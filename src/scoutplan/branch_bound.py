"""Exact MILP solver: branch and bound on LP relaxations.

The search runs on the presolved relaxation (presolve.py): over the columns
presolve keeps, expanding every point back to the full model with
Presolved.expand before it is evaluated or returned.

solve_milp owns the search from the root down: it presolves the model once,
builds one LP solver on the result and solves the root relaxation, cold, as
the first node of its loop.  Every candidate incumbent passes one gate,
which re-checks it against the model and takes it only when it beats the
incumbent by more than 1e-12: first the caller's seeds, in order, then the
caller's rounding of the root LP's point, then the integral points of node
relaxations.  Ties therefore go to the candidate offered first, and a
returned solution is always feasible and integral regardless of LP
tolerances.

Each node costs one LP solve, and a cold retry when it stalls.  Below the
root, a node keeps only its parent's optimal basis (basic columns and
statuses), never the parent's final factors.  The two children of a node
share that basis: the first child's LP factors it, and the factorization it
reports, taken before its first pivot, is attached to the shared basis, so
the second child starts without factoring.  Under best-bound selection the
second child is normally taken right after the first, so the extra factors
live for about one node.  The basis is dual feasible under the child's
tightened bounds, so the node LP, like the cold root's, runs the dual
simplex with the incumbent minus the gap as its cutoff: a node that cannot
beat the incumbent is fathomed as soon as the dual objective shows it,
before its LP is solved to optimality.  With a time_limit the deadline
reaches into each LP solve, and a node whose LP it interrupts goes back to
the pool with its parent's bound.  A node is the bound changes it inherits,
(column, lower, upper) triples from the root down, and its LP bounds are the
presolved bounds with each change assigned in order.  Branching adds one
change to each child: floor or ceil of the fractional value, with the node's
own bound on the other side.  Nodes are selected best-bound first, ties in
creation order; branching picks the most fractional integer variable, where
fractionalities within the integrality tolerance of the best tie and the
lowest id among them wins.  With the logging level of scoutplan.branch_bound
at DEBUG, each branched node logs the node count, best bound, incumbent and
gap.

Without a time limit, identical inputs explore identical trees.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import milp
from .milp import LpProblem
from .presolve import presolve
from .simplex import Basis, LpSolver

log = logging.getLogger("scoutplan.branch_bound")

_IMPROVEMENT = 1e-12        # a candidate must beat the incumbent by more


@dataclass(frozen=True)
class SolveOptions:
    gap: float = 1e-6                   # absolute optimality gap
    node_limit: int | None = None
    time_limit: float | None = None     # seconds

    def __post_init__(self):
        if not self.gap > 0:                        # NaN too
            raise ValueError(f"gap must be positive, not {self.gap}")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node limit must not be negative, not {self.node_limit}")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time limit must not be negative, not {self.time_limit}")


@dataclass
class MilpResult:
    status: str                         # optimal | feasible | infeasible | unbounded | unknown
    x: np.ndarray | None
    objective: float | None
    best_bound: float
    nodes: int
    lp_solves: int = 0                  # node LPs, cold retries included
    lp_pivots: int = 0                  # their simplex pivots
    factorizations: int = 0             # their sparse LU factorizations

    @property
    def gap(self) -> float:
        """Incumbent minus best bound, or infinity without an incumbent."""
        if self.objective is None:
            return math.inf
        return max(self.objective - self.best_bound, 0.0)


def model_to_lp(model: milp.Model) -> tuple[LpProblem, np.ndarray]:
    """LP relaxation of the model plus its integer ids, an intp index array."""
    problem, integer = milp.model_arrays(model)
    return problem, np.flatnonzero(integer)


@dataclass
class _Node:
    bound: float
    seq: int
    changes: tuple[tuple[int, float, float], ...]   # (column, lower, upper)
    basis: Basis | None = field(default=None, repr=False)


def _branching_variable(x, int_ids, tol):
    """The most fractional integer column, or None when x is integral there.

    Fractionalities within tol of the best count as equal and the lowest id
    among them wins, so last-bit noise in the LP solution cannot decide.
    """
    values = x[int_ids]
    frac = values - np.floor(values)
    score = np.minimum(frac, 1.0 - frac)
    fractional = score > tol
    if not fractional.any():
        return None
    best = score[fractional].max()
    return int(int_ids[fractional & (score >= best - tol)].min())


def solve_milp(model: milp.Model, options: SolveOptions | None = None,
               seeds=(), round_root=None) -> MilpResult:
    """Minimize the model exactly (to the gap tolerance) by branch and bound.

    seeds are known assignments, in any form milp.evaluate reads, offered as
    incumbents in order before the first node.  round_root, when given, is
    called once with the full-space point of the root LP, only when that LP
    is optimal, and the assignment it returns is offered next.  Every
    candidate is re-checked against the model and taken only when it beats
    the incumbent by more than 1e-12, so ties go to the first one offered.
    The search runs over the presolved columns; every point is expanded to
    the full space before it is evaluated or returned.
    """
    options = options or SolveOptions()
    deadline = (None if options.time_limit is None
                else time.monotonic() + options.time_limit)
    presolved = presolve(*model_to_lp(model))
    if presolved is None:
        return MilpResult("infeasible", None, None, math.inf, 0)
    work = {"lp_solves": 0, "lp_pivots": 0, "factorizations": 0}
    problem, int_ids = presolved.problem, presolved.int_ids
    solver = LpSolver(problem)

    incumbent_x = None
    incumbent_obj = math.inf
    nodes = 0
    heap: list[tuple[tuple[float, int], _Node]] = []
    seq = 0

    def push(node: _Node):
        heapq.heappush(heap, ((node.bound, node.seq), node))

    def open_best_bound() -> float:
        return heap[0][1].bound if heap else math.inf

    def offer(full) -> bool:
        """The incumbent gate: take a full-space assignment when the model
        finds it feasible and it beats the incumbent by more than 1e-12.
        Returns whether it was feasible."""
        nonlocal incumbent_x, incumbent_obj
        check = milp.evaluate(model, full)
        if check.feasible and check.objective < incumbent_obj - _IMPROVEMENT:
            incumbent_x = milp.assignment_vector(model, full)
            incumbent_obj = check.objective
        return check.feasible

    def try_incumbent(x):
        """Offer a reduced-space point to the gate: its integers snapped
        first, the point as is only when the snapped one is infeasible."""
        snapped = x.copy()
        snapped[int_ids] = np.round(x[int_ids]) + 0.0     # np.round(-0.3) is -0.0
        for candidate in (snapped, x):
            if offer(presolved.expand(candidate)):
                return

    def counted(res):
        work["lp_solves"] += 1
        work["lp_pivots"] += res.iterations
        work["factorizations"] += res.factorizations
        return res

    def solve_node(node, lower, upper):
        """The node's LP: warm from its parent's basis (cold at the root),
        with the incumbent as cutoff; a cold retry when it stalls."""
        cutoff = incumbent_obj - options.gap if incumbent_x is not None else None
        res = counted(solver.solve(warm_start=node.basis, lower=lower, upper=upper,
                                   cutoff=cutoff, deadline=deadline))
        if res.status == "stalled":
            res = counted(solver.solve(lower=lower, upper=upper, deadline=deadline))
            if res.status == "stalled":
                raise RuntimeError("LP relaxation stalled; model is numerically hostile")
        return res

    for seed in seeds:
        offer(seed)

    push(_Node(-math.inf, seq, ()))
    seq += 1
    limit_hit = None

    while heap:
        if options.node_limit is not None and nodes >= options.node_limit:
            limit_hit = "nodes"
            break
        if deadline is not None and time.monotonic() >= deadline:
            limit_hit = "time"
            break

        node = heapq.heappop(heap)[1]
        if node.bound >= incumbent_obj - options.gap:
            continue
        nodes += 1

        lower, upper = problem.lower.copy(), problem.upper.copy()
        for vid, lo, hi in node.changes:
            lower[vid], upper[vid] = lo, hi
        res = solve_node(node, lower, upper)
        if res.start_factors is not None:
            node.basis.binv = res.start_factors     # the sibling's start
        if res.status == "interrupted":
            push(node)              # back to the pool with its parent's bound
            nodes -= 1
            limit_hit = "time"
            break
        if res.status in ("infeasible", "cutoff"):
            continue
        if res.status == "unbounded":
            return MilpResult("unbounded", None, None, -math.inf, nodes, **work)

        if node.seq == 0 and round_root is not None:    # the root LP is optimal
            offer(round_root(presolved.expand(res.x)))
        node_obj = res.objective
        if node_obj >= incumbent_obj - options.gap:
            continue
        branch_var = _branching_variable(res.x, int_ids, milp.INT_TOL)
        if branch_var is None:
            try_incumbent(res.x)
            continue

        # no change loosens an earlier one: the node's own bound on one side,
        # floor or ceil of a value more than INT_TOL inside the box on the other
        value = res.x[branch_var]
        floor_side = node.changes + ((branch_var, lower[branch_var], math.floor(value)),)
        ceil_side = node.changes + ((branch_var, math.ceil(value), upper[branch_var]),)

        # children share the basis but not its final factors: the first
        # child's LP factors it for both.  On equal bounds the child on the
        # side the value leans to is taken last.
        start = Basis(res.basis.basic, res.basis.status)
        prefer_ceil = value - math.floor(value) >= 0.5
        push(_Node(node_obj, seq, floor_side if prefer_ceil else ceil_side, start))
        push(_Node(node_obj, seq + 1, ceil_side if prefer_ceil else floor_side, start))
        seq += 2

        if log.isEnabledFor(logging.DEBUG):
            bb = min(open_best_bound(), incumbent_obj)
            inc = "-" if incumbent_x is None else f"{incumbent_obj:.6f}"
            gap = "-" if incumbent_x is None else f"{max(incumbent_obj - bb, 0.0):.3e}"
            log.debug("nodes=%d best_bound=%.6f incumbent=%s gap=%s", nodes, bb, inc, gap)

    open_bound = open_best_bound()
    if incumbent_x is None:
        if limit_hit:
            return MilpResult("unknown", None, None, open_bound, nodes, **work)
        return MilpResult("infeasible", None, None, math.inf, nodes, **work)

    best_bound = min(open_bound, incumbent_obj)
    status = ("optimal" if not limit_hit and incumbent_obj - best_bound <= options.gap
              else "feasible")
    return MilpResult(status, incumbent_x, incumbent_obj, best_bound, nodes, **work)
