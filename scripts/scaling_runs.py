#!/usr/bin/env python3
"""Time to proof on a ladder of random scenarios: the embedded solver
against HiGHS under the same wall-clock cap.

Each rung is a `random_scaling_scenario(seed, nodes, edges, horizon,
scout_steps)`.  The embedded solver runs the whole planner
(`solve_scenario`: model, presolve, seeds, branch and bound); HiGHS runs
`scipy.optimize.milp` with a zero relative gap on the same model's
`model_to_lp` lowering.  Seconds include building the model for both.  One
CSV row per solver and instance: status, objective, bound, gap, nodes and
seconds, and, on the embedded solver's row, whether the two optima agree
(to 1e-6) when both solvers prove one ("" when either does not).  The
rows go to the named file, not to stdout, where HiGHS's own code may print.

    python3 scripts/scaling_runs.py --cap 60 ladder.csv
"""

import argparse
import csv
import math
import time
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from scoutplan import SolveOptions, build_model, model_to_lp
from scoutplan.generate import random_scaling_scenario
from scoutplan.planner import solve_scenario

warnings.simplefilter("ignore")

LADDER = [(5, 7, 5, 3), (6, 8, 6, 4), (7, 10, 7, 5), (8, 12, 8, 6)]
FIELDS = ["size", "seed", "variables", "solver", "status", "objective",
          "bound", "gap", "nodes", "seconds", "optima_agree"]


def ours(scenario, cap):
    t0 = time.perf_counter()
    outcome = solve_scenario(scenario, SolveOptions(time_limit=cap))
    seconds = time.perf_counter() - t0
    r = outcome.result
    return {"variables": len(outcome.model.variables), "status": r.status,
            "objective": r.objective, "bound": r.best_bound, "gap": r.gap,
            "nodes": r.nodes, "seconds": seconds}


def highs(scenario, cap):
    t0 = time.perf_counter()
    model, _ = build_model(scenario)
    problem, int_ids = model_to_lp(model)
    integrality = np.zeros(len(problem.objective))
    integrality[int_ids] = 1
    res = milp(problem.objective,
               constraints=LinearConstraint(problem.rows, *problem.row_bounds),
               integrality=integrality,
               bounds=Bounds(problem.lower, problem.upper),
               options={"mip_rel_gap": 0.0, "time_limit": cap})
    seconds = time.perf_counter() - t0
    objective = None if res.x is None else float(res.fun) + problem.constant
    bound = getattr(res, "mip_dual_bound", None)
    bound = -math.inf if bound is None else float(bound) + problem.constant
    status = {0: "optimal", 1: "feasible" if res.x is not None else "unknown",
              2: "infeasible", 3: "unbounded"}.get(res.status, "unknown")
    gap = math.inf if objective is None else max(objective - bound, 0.0)
    return {"variables": len(model.variables), "status": status,
            "objective": objective, "bound": bound, "gap": gap,
            "nodes": getattr(res, "mip_node_count", ""), "seconds": seconds}


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}" if math.isfinite(value) else str(value)
    return str(value)


def run(path: str, cap: float, seeds, sizes):
    with open(path, "w", newline="") as out:
        writer = csv.DictWriter(out, FIELDS, lineterminator="\n")
        writer.writeheader()
        for size in sizes:
            for seed in seeds:
                scenario = random_scaling_scenario(seed, *size)
                mine, theirs = ours(scenario, cap), highs(scenario, cap)
                agree = ""
                if mine["status"] == theirs["status"] == "optimal":
                    agree = abs(mine["objective"] - theirs["objective"]) <= 1e-6
                for solver, row in (("scoutplan", mine), ("highs", theirs)):
                    row = {"size": "x".join(map(str, size)), "seed": seed,
                           "solver": solver,
                           "optima_agree": agree if solver == "scoutplan" else "",
                           **row}
                    writer.writerow({k: fmt(v) for k, v in row.items()})
                out.flush()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("csv", help="file the CSV rows are written to")
    parser.add_argument("--cap", type=float, default=60.0,
                        help="wall-clock seconds per solve (default 60)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--rungs", type=int, default=len(LADDER),
                        help="how many rungs of the ladder to run, smallest first")
    args = parser.parse_args()
    run(args.csv, args.cap, args.seeds, LADDER[: args.rungs])
