"""The four benchmark workloads, their reference checks and their outputs.

Every workload is a closed loop: one caller issues the next solve only after
the previous one returned.  One pass runs a fixed list of operations; the
run repeats passes, so every pass does the same work and must produce the
same outputs.  Reference checks run after the timed passes.

Import this module only after checkout.prepare(): it imports scoutplan.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import checkout
from scoutplan import SolveOptions, branch_bound, executor, planner, report
from scoutplan.generate import random_scaling_scenario, random_tiny_scenario
from scoutplan.oracle import enumerate_optimal, evaluate_plan_cost
from scoutplan.scenario import load_scenario_file

REFERENCE = checkout.ROOT / "perfbench" / "reference.json"

OBJ_TOL = 1e-6              # solver optimum vs an independent exact optimum
ROUND_TRIP_TOL = 1e-9       # evaluate_plan_cost(extract_plan(x)) vs objective
CERTIFY_NODE_CAP = 20_000   # safety net only; hitting it fails the operation


@dataclass
class Solve:
    """One solve_scenario call: its wall time and its deterministic answer."""

    seconds: float
    status: str
    objective: float | None
    bound: float
    gap: float
    nodes: int

    @staticmethod
    def of(seconds, result) -> "Solve":
        objective = None if result.objective is None else float(result.objective)
        return Solve(seconds, result.status, objective, float(result.best_bound),
                     float(result.gap), int(result.nodes))

    def answer(self) -> list:
        return [self.status, self.objective, self.bound, self.nodes]


@dataclass
class Op:
    """One operation of a pass: a solve, or a whole mission."""

    key: str
    solves: list[Solve] = field(default_factory=list)
    output: str = ""            # the report text a user would receive
    error: str | None = None
    refs: tuple = ()            # what the reference check needs
    extras: dict = field(default_factory=dict)

    def answer(self) -> list:
        return [self.key, self.error, [s.answer() for s in self.solves], self.output]


def _solve_op(key, scenario, options) -> Op:
    t0 = time.perf_counter()
    outcome = planner.solve_scenario(scenario, options)
    seconds = time.perf_counter() - t0
    output = ("" if outcome.plan is None
              else report.plan_to_json(outcome.plan, scenario))
    return Op(key, [Solve.of(seconds, outcome.result)], output,
              refs=(scenario, outcome))


def _round_trip_problem(scenario, outcome) -> str | None:
    if outcome.plan is None:
        return "no plan returned"
    _, total = evaluate_plan_cost(scenario, outcome.plan)
    if abs(total - outcome.result.objective) > ROUND_TRIP_TOL:
        return (f"round trip {total!r} != objective "
                f"{float(outcome.result.objective)!r}")
    return None


def highs_optimum(model) -> float:
    """Optimum of the model's model_to_lp lowering, certified by HiGHS."""
    # imported here so that set-up time counts only what the program imports
    from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp

    problem, int_ids = branch_bound.model_to_lp(model)
    senses = problem.senses
    lb = np.where(senses == "L", -np.inf, problem.rhs)
    ub = np.where(senses == "G", np.inf, problem.rhs)
    integrality = np.zeros(len(problem.objective))
    integrality[int_ids] = 1
    res = highs_milp(problem.objective,
                     constraints=LinearConstraint(problem.rows, lb, ub),
                     integrality=integrality,
                     bounds=Bounds(problem.lower, problem.upper),
                     options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not certify an optimum: {res.message}")
    return float(res.fun) + problem.constant


def warm_up() -> None:
    """One tiny solve, so lazy imports and first-call costs fall in set-up."""
    planner.solve_scenario(random_tiny_scenario(0))


class PlanAblation8:
    name = "plan-ablation8"

    def __init__(self, seed: int, smoke: bool):
        self.options = SolveOptions(node_limit=1 if smoke else 25)

    def setup(self) -> None:
        self.scenario, _ = load_scenario_file(checkout.ABLATION8)
        self.optimum = json.loads(REFERENCE.read_text())["ablation8_optimum"]

    def items(self) -> list:
        return ["ablation8"]

    def run(self, key) -> Op:
        return _solve_op(key, self.scenario, self.options)

    def check(self, op: Op) -> list[str]:
        scenario, outcome = op.refs
        problems = [_round_trip_problem(scenario, outcome)]
        result = outcome.result
        if result.best_bound > self.optimum + OBJ_TOL:
            problems.append(f"bound {result.best_bound!r} above the optimum "
                            f"{self.optimum!r}")
        if result.objective is not None and result.objective < self.optimum - OBJ_TOL:
            problems.append(f"objective {float(result.objective)!r} below the "
                            f"optimum {self.optimum!r}")
        return [p for p in problems if p]


class MissionAblation8:
    name = "mission-ablation8"

    def __init__(self, seed: int, smoke: bool):
        self.options = SolveOptions(node_limit=1 if smoke else 5)

    def setup(self) -> None:
        self.scenario, self.truth = load_scenario_file(checkout.ABLATION8)

    def items(self) -> list:
        return ["full"]

    def run(self, key) -> Op:
        with _recording_solves() as calls:
            log = executor.run_mission(self.scenario, self.truth, self.options)
            output = report.mission_to_json(log, self.scenario, keep_timings=False)
        return Op(key, [Solve.of(seconds, outcome.result)
                        for _, outcome, seconds in calls],
                  output, refs=(log, calls),
                  extras={"route_true_cost": log.route_true_cost,
                          "objective_true_cost": log.objective_true_cost})

    def check(self, op: Op) -> list[str]:
        log, calls = op.refs
        problems = [] if log.status == "completed" else [f"mission {log.status}"]
        for step, (scenario, outcome, _) in enumerate(calls, start=1):
            problem = _round_trip_problem(scenario, outcome)
            if problem:
                problems.append(f"step {step}: {problem}")
        return problems


@contextmanager
def _recording_solves():
    """Record (scenario, outcome, seconds) of each replan a mission makes."""
    inner = executor.solve_scenario
    calls = []

    def recorded(scenario, *args, **kwargs):
        t0 = time.perf_counter()
        outcome = inner(scenario, *args, **kwargs)
        calls.append((scenario, outcome, time.perf_counter() - t0))
        return outcome

    executor.solve_scenario = recorded
    try:
        yield calls
    finally:
        executor.solve_scenario = inner


class CertifyRandom:
    name = "certify-random"
    instances = (0, 1, 2)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.keys = (1,) if smoke else self.instances
        self.options = SolveOptions(node_limit=CERTIFY_NODE_CAP)

    def setup(self) -> None:
        self.scenarios = {k: random_scaling_scenario(k, 5, 7, 5, 3)
                          for k in self.keys}

    def items(self) -> list:
        return _shuffled(self.keys, self.seed)

    def run(self, key) -> Op:
        return _solve_op(f"scaling-{key}", self.scenarios[key], self.options)

    def check(self, op: Op) -> list[str]:
        _, outcome = op.refs
        result = outcome.result
        if result.status != "optimal":
            return [f"status {result.status} after {result.nodes} nodes"]
        reference = highs_optimum(outcome.model)
        if abs(result.objective - reference) > OBJ_TOL:
            return [f"objective {float(result.objective)!r} != HiGHS {reference!r}"]
        return []


class OracleTiny:
    name = "oracle-tiny"
    instances = range(200)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.keys = range(20) if smoke else self.instances
        self.options = SolveOptions()

    def setup(self) -> None:
        self.scenarios = {k: random_tiny_scenario(k) for k in self.keys}

    def items(self) -> list:
        return _shuffled(self.keys, self.seed)

    def run(self, key) -> Op:
        return _solve_op(f"tiny-{key}", self.scenarios[key], self.options)

    def check(self, op: Op) -> list[str]:
        scenario, outcome = op.refs
        result = outcome.result
        oracle = enumerate_optimal(scenario)
        if oracle.status != result.status:
            return [f"status {result.status} != oracle {oracle.status}"]
        if (oracle.status == "optimal"
                and abs(result.objective - oracle.objective) > OBJ_TOL):
            return [f"objective {float(result.objective)!r} != oracle "
                    f"{oracle.objective!r}"]
        return []


def _shuffled(keys, seed: int) -> list:
    """The fixed corpus in an order drawn from the workload seed.  The corpus
    itself does not depend on the seed: per-instance solve times spread over
    an order of magnitude, so a seed-drawn corpus would make run_s measure
    the draw rather than the code."""
    order = list(keys)
    random.Random(seed).shuffle(order)
    return order


WORKLOADS = {w.name: w for w in (PlanAblation8, MissionAblation8,
                                 CertifyRandom, OracleTiny)}
