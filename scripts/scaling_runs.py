#!/usr/bin/env python3
"""Solve-time scaling versus decision-variable count on random graphs.

Each trial draws a random scenario, solves it once per shrinking horizon
(the receding-horizon sequence) and prints one CSV row per solve: variable
count and wall seconds, the points moving right to left as the horizon
recedes.
"""

import argparse
import time
import warnings
from dataclasses import replace

from scoutplan import SolveOptions, compact_variable_count
from scoutplan.generate import random_scaling_scenario
from scoutplan.planner import solve_scenario

warnings.simplefilter("ignore")


def run(seed: int, nodes: int, edges: int, horizon: int, scout_steps: int,
        node_limit: int):
    scenario = random_scaling_scenario(seed, nodes, edges, horizon, scout_steps)
    print("trial,horizon,variables,seconds,status")
    for remaining in range(horizon, 1, -1):
        current = replace(scenario, horizon=remaining)
        t0 = time.perf_counter()
        outcome = solve_scenario(current, SolveOptions(node_limit=node_limit))
        seconds = time.perf_counter() - t0
        print(f"{seed},{remaining},{compact_variable_count(current)},"
              f"{seconds:.3f},{outcome.result.status}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--edges", type=int, default=8)
    parser.add_argument("--horizon", type=int, default=6)
    parser.add_argument("--scout-steps", type=int, default=4)
    parser.add_argument("--node-limit", type=int, default=25)
    args = parser.parse_args()
    run(args.seed, args.nodes, args.edges, args.horizon, args.scout_steps,
        args.node_limit)
