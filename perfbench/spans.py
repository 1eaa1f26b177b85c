"""Spans around calls into scoutplan's layers, recorded from outside the package.

Each function is wrapped at the attribute its caller looks it up through: a
module that imported a name directly holds its own reference, so wrapping the
defining module alone would record nothing.  Spans and counts stay in memory
while the traced pass runs and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at the top


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the part of each span's
    interval that its child spans cover (overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for idx, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(idx, ())):
            lo, hi = max(start, cursor), min(end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - covered)
    return out


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def inside(self, name: str) -> bool:
        return any(self.spans[idx].name == name for idx in self._open)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result
        return wrapper

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": self.counts}, fh)


def _after_solve_milp(tracer, result):
    tracer.count("branch_bound.nodes", result.nodes)


def _after_evaluate(tracer, result):
    tracer.count("milp.evaluate.feasible", result.feasible)


def _after_build_model(tracer, result):
    model = result[0]
    tracer.peak("formulation.model_vars", len(model.variables))
    tracer.peak("formulation.model_rows", len(model.constraints))
    tracer.peak("formulation.model_nnz",
                sum(len(con.expr.coeffs) for con in model.constraints))


def _after_run_mission(tracer, log):
    tracer.count("executor.steps", len(log.steps))


def _lp_solve(tracer, solve):
    """LpSolver.solve, split into cold and warm starts by its argument."""
    def wrapper(solver, warm_start=None, **kwargs):
        kind = "simplex.cold" if warm_start is None else "simplex.warm"
        in_search = tracer.inside("branch_bound.solve_milp")
        res = tracer.call(kind, solve, solver, warm_start=warm_start, **kwargs)
        tracer.count(kind + ".iters", res.iterations)
        if warm_start is not None and warm_start.binv is not None:
            tracer.count("simplex.warm_inverse_hits")
        if res.status == "stalled":
            tracer.count("simplex.stalled")
        if in_search:
            tracer.count("branch_bound.lp_solves")
        return res
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Wrap every traced call site for the duration of the block."""
    from scoutplan import branch_bound, executor, milp, planner, report, simplex

    sites = [
        (planner, "solve_scenario", "planner.solve_scenario", None),
        (executor, "solve_scenario", "planner.solve_scenario", None),
        (planner, "build_model", "formulation.build_model", _after_build_model),
        (planner, "model_to_lp", "branch_bound.model_to_lp", None),
        (branch_bound, "model_to_lp", "branch_bound.model_to_lp", None),
        (planner, "heuristic_plan_from_relaxation",
         "planner.heuristic_plan_from_relaxation", None),
        (planner, "plan_to_assignment", "formulation.plan_to_assignment", None),
        (planner, "structured_candidate", "planner.structured_candidate", None),
        (planner, "solve_milp", "branch_bound.solve_milp", _after_solve_milp),
        (planner, "extract_plan", "formulation.extract_plan", None),
        (milp, "evaluate", "milp.evaluate", _after_evaluate),
        (executor, "run_mission", "executor.run_mission", _after_run_mission),
        (executor, "update_belief", "executor.update_belief", None),
        (report, "plan_to_json", "report.plan_to_json", None),
        (report, "mission_to_json", "report.mission_to_json", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in sites:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, after))
        solve = simplex.LpSolver.solve
        saved.append((simplex.LpSolver, "solve", solve))
        simplex.LpSolver.solve = _lp_solve(tracer, solve)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `.s` is inclusive time."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
    own = self_times(tracer.spans)
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for kind in ("simplex.cold", "simplex.warm"):
        m[kind + ".calls"] = calls.get(kind, 0)
        m[kind + ".iters"] = c.get(kind + ".iters", 0)
        m[kind + ".s"] = total.get(kind, 0.0)
        m[kind + ".ms_per_iter"] = 1000.0 * ratio(m[kind + ".s"], m[kind + ".iters"])
    m["simplex.warm_inverse_hit_ratio"] = ratio(
        c.get("simplex.warm_inverse_hits", 0), m["simplex.warm.calls"])
    m["simplex.stalled"] = c.get("simplex.stalled", 0)
    m["branch_bound.nodes"] = c.get("branch_bound.nodes", 0)
    m["branch_bound.lp_solves"] = c.get("branch_bound.lp_solves", 0)
    m["branch_bound.lp_solves_per_node"] = ratio(m["branch_bound.lp_solves"],
                                                 m["branch_bound.nodes"])
    m["branch_bound.solve_milp.self_s"] = own.get("branch_bound.solve_milp", 0.0)
    m["branch_bound.model_to_lp.calls"] = calls.get("branch_bound.model_to_lp", 0)
    m["branch_bound.model_to_lp.s"] = total.get("branch_bound.model_to_lp", 0.0)
    m["milp.evaluate.calls"] = calls.get("milp.evaluate", 0)
    m["milp.evaluate.s"] = total.get("milp.evaluate", 0.0)
    m["milp.evaluate.feasible_ratio"] = ratio(c.get("milp.evaluate.feasible", 0),
                                              m["milp.evaluate.calls"])
    m["planner.structured_candidate.s"] = total.get("planner.structured_candidate", 0.0)
    m["planner.heuristic_plan_from_relaxation.s"] = total.get(
        "planner.heuristic_plan_from_relaxation", 0.0)
    m["planner.solve_scenario.self_s"] = own.get("planner.solve_scenario", 0.0)
    for name in ("build_model", "plan_to_assignment"):
        m[f"formulation.{name}.calls"] = calls.get(f"formulation.{name}", 0)
        m[f"formulation.{name}.s"] = total.get(f"formulation.{name}", 0.0)
    m["formulation.extract_plan.s"] = total.get("formulation.extract_plan", 0.0)
    for key in ("model_vars", "model_rows", "model_nnz"):
        m[f"formulation.{key}"] = c.get(f"formulation.{key}", 0)
    m["executor.steps"] = c.get("executor.steps", 0)
    m["executor.update_belief.calls"] = calls.get("executor.update_belief", 0)
    m["executor.update_belief.s"] = total.get("executor.update_belief", 0.0)
    m["report.s"] = (total.get("report.plan_to_json", 0.0)
                     + total.get("report.mission_to_json", 0.0))
    m["report.mission_to_json.s"] = total.get("report.mission_to_json", 0.0)
    return m
