"""Exact MILP solver: branch and bound on LP relaxations.

Branching forbids the fractional value on both children via floor/ceil bound
tightening.  Node selection is best-bound by default (depth-first available
for memory-light dives); branching picks the most fractional integer
variable with lowest-id tie-breaking.  Every incumbent is re-checked against
the model before acceptance, so a returned solution is always feasible and
integral regardless of LP tolerances.

The node pool could be served to concurrent workers as long as incumbent and
bound updates stay atomic; this implementation processes nodes in a single
worker, so identical inputs explore identical trees.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import milp
from .simplex import Basis, LpProblem, LpSolver

log = logging.getLogger("scoutplan.branch_bound")

BEST_BOUND = "best-bound"
DEPTH_FIRST = "depth-first"
MOST_FRACTIONAL = "most-fractional"
LOWEST_INDEX = "lowest-index"


@dataclass(frozen=True)
class SolveOptions:
    gap: float = 1e-6                   # absolute optimality gap
    int_tol: float = 1e-6
    node_selection: str = BEST_BOUND
    branch_rule: str = MOST_FRACTIONAL
    node_limit: int | None = None
    time_limit: float | None = None     # seconds
    log_every: int = 0                  # emit a log line every N nodes (0 = off)

    def __post_init__(self):
        if self.gap <= 0 or self.int_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.node_selection not in (BEST_BOUND, DEPTH_FIRST):
            raise ValueError(f"unknown node selection {self.node_selection!r}")
        if self.branch_rule not in (MOST_FRACTIONAL, LOWEST_INDEX):
            raise ValueError(f"unknown branch rule {self.branch_rule!r}")


@dataclass
class MilpResult:
    status: str                         # optimal | feasible | infeasible | unbounded | unknown
    x: np.ndarray | None
    objective: float | None
    best_bound: float
    gap: float
    nodes: int

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def model_to_lp(model: milp.Model) -> tuple[LpProblem, list[int]]:
    """LP relaxation of the model plus the ids of its integer variables."""
    arrays = milp.model_arrays(model)
    problem = LpProblem(arrays.objective, arrays.rows, arrays.senses, arrays.rhs,
                        arrays.lower, arrays.upper, constant=arrays.constant)
    return problem, np.flatnonzero(arrays.integer).tolist()


@dataclass
class _Node:
    bound: float
    seq: int
    depth: int
    overrides: dict[int, tuple[float, float]]
    basis: Basis | None = field(default=None, repr=False)

    def sort_key(self):
        return (self.bound, self.seq)


def _fractional(x, int_ids, tol):
    out = []
    for vid in int_ids:
        frac = x[vid] - math.floor(x[vid])
        if min(frac, 1.0 - frac) > tol:
            out.append((vid, frac))
    return out


def _rounding_dive(solver, model, int_ids, lower, upper, basis, options,
                   max_rounds=400):
    """Walk the relaxation to an integer point by repeatedly fixing the most
    roundable integer variables and re-solving.  Returns a feasible assignment
    or None; soundness rests on the final evaluation, not on the walk."""
    lo, hi = lower.copy(), upper.copy()
    warm = basis
    for _ in range(max_rounds):
        res = solver.solve(warm_start=warm, lower=lo, upper=hi)
        if res.status != "optimal":
            return None
        warm = res.basis
        fractional = _fractional(res.x, int_ids, options.int_tol)
        if not fractional:
            snapped = res.x.copy()
            for vid in int_ids:
                snapped[vid] = min(max(round(snapped[vid]), lo[vid]), hi[vid])
            check = milp.evaluate(model, snapped, int_tol=options.int_tol)
            return snapped if check.feasible else None
        near = [(vid, frac) for vid, frac in fractional
                if min(frac, 1.0 - frac) <= 0.1]
        if not near:
            near = [min(fractional, key=lambda vf: min(vf[1], 1.0 - vf[1]))]
        for vid, _ in near:
            value = min(max(round(res.x[vid]), lo[vid]), hi[vid])
            lo[vid] = hi[vid] = value
    return None


def solve_milp(model: milp.Model, options: SolveOptions | None = None,
               initial_incumbent=None, root_basis: Basis | None = None) -> MilpResult:
    """Minimize the model exactly (to the gap tolerance) by branch and bound.

    initial_incumbent seeds the search with a known assignment (it is
    re-checked against the model before use); root_basis warm-starts the root
    relaxation.
    """
    options = options or SolveOptions()
    problem, int_ids = model_to_lp(model)
    solver = LpSolver(problem)
    t_start = time.monotonic()

    incumbent_x = None
    incumbent_obj = math.inf
    nodes = 0
    heap: list[tuple[tuple[float, int], _Node]] = []
    stack: list[_Node] = []
    seq = 0

    def push(node: _Node):
        if options.node_selection == DEPTH_FIRST:
            stack.append(node)
        else:
            node_nobinv = node
            if node.basis is not None and options.node_selection == BEST_BOUND:
                # pooled nodes drop the dense inverse; it is rebuilt on demand
                node_nobinv = _Node(node.bound, node.seq, node.depth,
                                    node.overrides, node.basis.without_inverse())
            heapq.heappush(heap, (node_nobinv.sort_key(), node_nobinv))

    def pop() -> _Node:
        if options.node_selection == DEPTH_FIRST:
            return stack.pop()
        return heapq.heappop(heap)[1]

    def open_best_bound() -> float:
        bounds = [node.bound for node in stack] + [item[1].bound for item in heap]
        return min(bounds) if bounds else math.inf

    def try_incumbent(x, obj) -> bool:
        nonlocal incumbent_x, incumbent_obj
        if obj >= incumbent_obj - 1e-12:
            return False
        snapped = x.copy()
        for vid in int_ids:
            snapped[vid] = round(snapped[vid])
        check = milp.evaluate(model, snapped, int_tol=options.int_tol)
        if check.feasible:
            incumbent_x, incumbent_obj = snapped, check.objective
            return True
        check = milp.evaluate(model, x, int_tol=options.int_tol)
        if check.feasible:
            incumbent_x, incumbent_obj = x.copy(), check.objective
            return True
        return False

    if initial_incumbent is not None:
        seeded = milp.evaluate(model, initial_incumbent, int_tol=options.int_tol)
        if seeded.feasible:
            incumbent_x = np.asarray(initial_incumbent, dtype=float).copy()
            incumbent_obj = seeded.objective

    root = _Node(-math.inf, seq, 0, {}, root_basis)
    push(root)
    seq += 1
    saw_unbounded = False
    limit_hit = None

    while heap or stack:
        if options.node_limit is not None and nodes >= options.node_limit:
            limit_hit = "nodes"
            break
        if options.time_limit is not None and time.monotonic() - t_start > options.time_limit:
            limit_hit = "time"
            break

        node = pop()
        if node.bound >= incumbent_obj - options.gap:
            continue
        nodes += 1

        lower = problem.lower.copy()
        upper = problem.upper.copy()
        for vid, (lo, hi) in node.overrides.items():
            lower[vid] = max(lower[vid], lo)
            upper[vid] = min(upper[vid], hi)
        if np.any(lower > upper):
            continue
        res = solver.solve(warm_start=node.basis, lower=lower, upper=upper)
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            saw_unbounded = True
            break
        if res.status == "stalled":
            res = solver.solve(lower=lower, upper=upper)    # cold retry
            if res.status == "stalled":
                raise RuntimeError("LP relaxation stalled; model is numerically hostile")
            if res.status == "infeasible":
                continue
            if res.status == "unbounded":
                saw_unbounded = True
                break

        node_obj = res.objective
        if node_obj >= incumbent_obj - options.gap:
            continue
        fractional = _fractional(res.x, int_ids, options.int_tol)

        if not fractional:
            try_incumbent(res.x, node_obj)
            continue

        # fix-and-complete heuristic: freeze integers at rounded values and
        # re-optimize the continuous completion.  Besides finding incumbents,
        # a completion matching the node bound proves the node solved, which
        # fathoms ties where integral variables idle at degenerate fractions.
        if len(fractional) <= 80:
            fix_lo, fix_hi = lower.copy(), upper.copy()
            for vid in int_ids:
                snapped = min(max(round(res.x[vid]), lower[vid]), upper[vid])
                fix_lo[vid] = fix_hi[vid] = snapped
            completion = solver.solve(warm_start=res.basis, lower=fix_lo,
                                      upper=fix_hi)
            if completion.status == "optimal":
                comp_check = milp.evaluate(model, completion.x,
                                           int_tol=options.int_tol)
                if comp_check.feasible:
                    try_incumbent(completion.x, comp_check.objective)
                    if comp_check.objective <= node_obj + options.gap:
                        continue    # bound-tight completion: node solved

        # a rounding dive hunts incumbents while none exist; it walks tie
        # plateaus the one-shot completion cannot
        if incumbent_x is None and nodes % 10 == 1:
            dived = _rounding_dive(solver, model, int_ids, lower, upper,
                                   res.basis, options)
            if dived is not None:
                check = milp.evaluate(model, dived, int_tol=options.int_tol)
                if check.feasible:
                    try_incumbent(dived, check.objective)
                    if check.objective <= node_obj + options.gap:
                        continue

        if options.branch_rule == LOWEST_INDEX:
            branch_var, frac = fractional[0]
        else:
            branch_var, frac = max(fractional, key=lambda vf: min(vf[1], 1.0 - vf[1]))
        value = res.x[branch_var]
        floor_side = dict(node.overrides)
        floor_side[branch_var] = (lower[branch_var], math.floor(value))
        ceil_side = dict(node.overrides)
        ceil_side[branch_var] = (math.ceil(value), upper[branch_var])

        prefer_ceil = frac >= 0.5
        near = _Node(node_obj, seq + 1, node.depth + 1,
                     ceil_side if prefer_ceil else floor_side, res.basis)
        far = _Node(node_obj, seq, node.depth + 1,
                    floor_side if prefer_ceil else ceil_side,
                    res.basis.without_inverse() if res.basis else None)
        seq += 2
        push(far)
        push(near)       # depth-first pops this one next, inheriting the inverse

        if options.log_every and nodes % options.log_every == 0:
            bb = min(open_best_bound(), incumbent_obj)
            inc = "-" if incumbent_x is None else f"{incumbent_obj:.6f}"
            gap = "-" if incumbent_x is None else f"{max(incumbent_obj - bb, 0.0):.3e}"
            log.info("nodes=%d best_bound=%.6f incumbent=%s gap=%s", nodes, bb, inc, gap)

    if saw_unbounded:
        return MilpResult("unbounded", None, None, -math.inf, math.inf, nodes)

    open_bound = open_best_bound()
    if incumbent_x is None:
        if limit_hit:
            return MilpResult("unknown", None, None, open_bound, math.inf, nodes)
        return MilpResult("infeasible", None, None, math.inf, math.inf, nodes)

    best_bound = min(open_bound, incumbent_obj)
    gap = max(incumbent_obj - best_bound, 0.0)
    status = "optimal" if not limit_hit and gap <= options.gap else "feasible"
    if not (heap or stack):
        gap = min(gap, options.gap) if status == "optimal" else gap
    return MilpResult(status, incumbent_x, incumbent_obj, best_bound, gap, nodes)
