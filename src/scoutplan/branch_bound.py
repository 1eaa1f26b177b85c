"""Exact MILP solver: presolve, then branch and bound on LP relaxations.

presolve shrinks the lowered relaxation before any simplex sees it: bound
propagation from row activities, redundant-row removal and dual fixing, to a
fixpoint, then fixed columns leave the problem.  The search runs over the
remaining columns and expands every point back to the full model before it
is evaluated or returned.

Each node costs one LP solve, and a cold retry when its warm start stalls.
A node keeps only its parent's optimal basis (basic columns and statuses),
never its factorization, so every node LP factors its start basis once
under either node selection.  Branching forbids the fractional value on
both children via floor/ceil bound tightening.  Node selection is
best-bound by default (depth-first available for memory-light dives);
branching picks the most fractional integer variable, where
fractionalities within the integrality tolerance of the best tie and the
lowest id among them wins.  Incumbents come from the caller's seed and from
nodes whose relaxation is integral.  Every incumbent is re-checked against
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


@dataclass(frozen=True)
class SolveOptions:
    gap: float = 1e-6                   # absolute optimality gap
    int_tol: float = 1e-6
    node_selection: str = BEST_BOUND
    node_limit: int | None = None
    time_limit: float | None = None     # seconds
    log_every: int = 0                  # emit a log line every N nodes (0 = off)

    def __post_init__(self):
        if self.gap <= 0 or self.int_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.node_selection not in (BEST_BOUND, DEPTH_FIRST):
            raise ValueError(f"unknown node selection {self.node_selection!r}")


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


_MIN_COEF = 1e-7            # smaller coefficients never imply a bound
_REDUNDANT_TOL = 1e-9       # slack a row keeps at its worst to count as redundant
_BOUND_STEP = 1e-3          # share of its range a continuous bound must gain
_PRESOLVE_ROUNDS = 100      # safety cap; the reductions reach a fixpoint first


@dataclass(frozen=True)
class Presolved:
    """A relaxation with its fixed columns and redundant rows taken out.

    problem ranges over the kept columns only and int_ids index into it; its
    constant and rhs absorb the fixed columns.  values is a full-length point
    holding every fixed column's value.  When infeasible is set, the bounds
    and rows admit no point and problem is the unreduced input.
    """

    problem: LpProblem
    int_ids: list[int]
    columns: np.ndarray         # full-space id of each kept column
    values: np.ndarray
    infeasible: bool = False

    def expand(self, x: np.ndarray) -> np.ndarray:
        """The full-space point of a reduced one."""
        full = self.values.copy()
        full[self.columns] = x
        return full


def presolve(problem: LpProblem, int_ids, int_tol: float = milp.INT_TOL) -> Presolved:
    """Shrink the relaxation by the standard MIP presolve reductions.

    Repeats until nothing changes: (a) tighten column bounds from each row's
    minimum and maximum activity, rounding integer bounds; (b) drop rows the
    bounds make redundant; (c) dual fixing: a column whose objective does not
    reward moving it away from a bound, and that no remaining row stops from
    moving there, is fixed at that bound.  Fixed columns are then removed.
    Every step is a vectorised pass over all nonzeros, so the result depends
    on the problem alone.  See Savelsbergh (1994), ORSA J. Computing 6(4),
    and Achterberg et al. (2020), INFORMS J. Computing 32(2).
    """
    rows = problem.rows.tocsr(copy=True)
    rows.eliminate_zeros()
    m, n = rows.shape
    row_of = np.repeat(np.arange(m), np.diff(rows.indptr))
    col_of, coef = rows.indices, rows.data
    pos = coef > 0
    row_lo = np.where(problem.senses == "L", -np.inf, problem.rhs)
    row_hi = np.where(problem.senses == "G", np.inf, problem.rhs)
    lower = np.array(problem.lower, dtype=float)
    upper = np.array(problem.upper, dtype=float)
    integer = np.zeros(n, dtype=bool)
    integer[list(int_ids)] = True
    cost = np.asarray(problem.objective, dtype=float)
    active = np.ones(m, dtype=bool)
    has_lo, has_hi = np.isfinite(row_lo)[row_of], np.isfinite(row_hi)[row_of]
    # a nonzero locks its column against moves that can break its row
    locks_down = np.where(pos, has_lo, has_hi)
    locks_up = np.where(pos, has_hi, has_lo)
    usable = np.abs(coef) >= _MIN_COEF

    def infeasible():
        return Presolved(problem, list(int_ids), np.arange(n), np.zeros(n), True)

    def activity(contrib):
        """Per-row finite sum and count of infinite terms."""
        unbounded = np.isinf(contrib)
        finite = np.bincount(row_of, np.where(unbounded, 0.0, contrib), m)
        return finite, np.bincount(row_of, unbounded, m), unbounded

    for _ in range(_PRESOLVE_ROUNDS):
        lo_nz, hi_nz = lower[col_of], upper[col_of]
        min_nz = coef * np.where(pos, lo_nz, hi_nz)
        max_nz = coef * np.where(pos, hi_nz, lo_nz)
        min_fin, min_inf, min_unb = activity(min_nz)
        max_fin, max_inf, max_unb = activity(max_nz)
        min_act = np.where(min_inf > 0, -np.inf, min_fin)
        max_act = np.where(max_inf > 0, np.inf, max_fin)
        if np.any(active & ((min_act > row_hi + milp.FEAS_TOL)
                            | (max_act < row_lo - milp.FEAS_TOL))):
            return infeasible()

        # (b) a row whose columns are all fixed is checked at the feasibility
        # tolerance; the bounds of every other row must satisfy it outright
        free_nz = (hi_nz > lo_nz).astype(float)
        tol = np.where(np.bincount(row_of, free_nz, m) > 0, _REDUNDANT_TOL,
                       milp.FEAS_TOL)
        redundant = active & (min_act >= row_lo - tol) & (max_act <= row_hi + tol)
        active &= ~redundant

        # (a) bounds each remaining row implies on each of its columns
        live = active[row_of] & usable
        rest_min = min_fin[row_of] - np.where(min_unb, 0.0, min_nz)
        rest_max = max_fin[row_of] - np.where(max_unb, 0.0, max_nz)
        # the rest of the row is bounded when no other term is infinite
        from_hi = live & has_hi & (min_inf[row_of] - min_unb == 0)
        from_lo = live & has_lo & (max_inf[row_of] - max_unb == 0)
        by_hi = (row_hi[row_of] - rest_min) / coef
        by_lo = (row_lo[row_of] - rest_max) / coef
        new_lower, new_upper = lower.copy(), upper.copy()
        np.minimum.at(new_upper, col_of[from_hi & pos], by_hi[from_hi & pos])
        np.maximum.at(new_lower, col_of[from_hi & ~pos], by_hi[from_hi & ~pos])
        np.maximum.at(new_lower, col_of[from_lo & pos], by_lo[from_lo & pos])
        np.minimum.at(new_upper, col_of[from_lo & ~pos], by_lo[from_lo & ~pos])
        new_lower[integer] = np.ceil(new_lower[integer] - int_tol)
        new_upper[integer] = np.floor(new_upper[integer] + int_tol)
        # continuous bounds move only by a real step, so the rounds terminate
        width = upper - lower
        step = np.where(integer | ~np.isfinite(width), 0.0,
                        np.maximum(_REDUNDANT_TOL, _BOUND_STEP * width))
        raise_lower = new_lower > lower + step
        cut_upper = new_upper < upper - step
        lower = np.where(raise_lower, new_lower, lower)
        upper = np.where(cut_upper, new_upper, upper)
        if np.any((lower > upper) & (integer | (lower > upper + milp.FEAS_TOL))):
            return infeasible()
        # continuous bounds that meet within the tolerance fix their column
        meet = (lower != upper) & (upper - lower <= _REDUNDANT_TOL)
        lower[meet] = upper[meet] = np.clip((lower[meet] + upper[meet]) / 2,
                                            problem.lower[meet], problem.upper[meet])

        # (c) dual fixing on the locks of the remaining rows
        kept = active[row_of]
        down = np.bincount(col_of[kept & locks_down], minlength=n)
        up = np.bincount(col_of[kept & locks_up], minlength=n)
        free = upper > lower
        at_lower = free & (cost >= 0) & (down == 0) & np.isfinite(lower)
        at_upper = free & ~at_lower & (cost <= 0) & (up == 0) & np.isfinite(upper)
        upper = np.where(at_lower, lower, upper)
        lower = np.where(at_upper, upper, lower)

        if not (redundant.any() or raise_lower.any() or cut_upper.any()
                or meet.any() or at_lower.any() or at_upper.any()):
            break

    # (d) fixed columns leave; their values move into the rhs and constant
    fixed = lower == upper
    columns = np.flatnonzero(~fixed)
    values = np.where(fixed, lower, 0.0)
    kept_rows = rows[np.flatnonzero(active)]
    reduced = LpProblem(
        cost[columns], kept_rows[:, columns].tocsr(), problem.senses[active],
        problem.rhs[active] - kept_rows @ values, lower[columns], upper[columns],
        constant=problem.constant + float(cost @ values))
    return Presolved(reduced, np.flatnonzero(integer[columns]).tolist(), columns,
                     values)


@dataclass
class _Node:
    bound: float
    seq: int
    depth: int
    overrides: dict[int, tuple[float, float]]
    basis: Basis | None = field(default=None, repr=False)

    def sort_key(self):
        return (self.bound, self.seq)


def _branching_variable(x, int_ids, tol):
    """The most fractional integer column, or None when x is integral there.

    Fractionalities within tol of the best count as equal and the lowest id
    among them wins, so last-bit noise in the LP solution cannot decide.
    """
    ids = np.asarray(int_ids, dtype=int)
    values = x[ids]
    frac = values - np.floor(values)
    score = np.minimum(frac, 1.0 - frac)
    fractional = score > tol
    if not fractional.any():
        return None
    best = score[fractional].max()
    return int(ids[fractional & (score >= best - tol)].min())


def solve_milp(model: milp.Model, options: SolveOptions | None = None,
               initial_incumbent=None, root_basis: Basis | None = None) -> MilpResult:
    """Minimize the model exactly (to the gap tolerance) by branch and bound.

    initial_incumbent seeds the search with a known assignment in any form
    milp.evaluate reads (it is re-checked against the model before use);
    root_basis warm-starts the root relaxation of the presolved problem.  The
    search runs over the presolved columns; every point is expanded to the
    full space before it is evaluated or returned.
    """
    options = options or SolveOptions()
    t_start = time.monotonic()
    presolved = presolve(*model_to_lp(model), int_tol=options.int_tol)
    if presolved.infeasible:
        return MilpResult("infeasible", None, None, math.inf, math.inf, 0)
    problem, int_ids = presolved.problem, presolved.int_ids
    solver = LpSolver(problem)

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
            heapq.heappush(heap, (node.sort_key(), node))

    def pop() -> _Node:
        if options.node_selection == DEPTH_FIRST:
            return stack.pop()
        return heapq.heappop(heap)[1]

    def open_best_bound() -> float:
        bounds = [node.bound for node in stack] + [item[1].bound for item in heap]
        return min(bounds) if bounds else math.inf

    def try_incumbent(x, obj):
        """Offer a reduced-space point: its integers snapped, else as is.
        The first candidate the model finds feasible is taken if it improves."""
        nonlocal incumbent_x, incumbent_obj
        if obj >= incumbent_obj - 1e-12:
            return
        snapped = x.copy()
        for vid in int_ids:
            snapped[vid] = round(snapped[vid])
        for candidate in (snapped, x):
            full = presolved.expand(candidate)
            check = milp.evaluate(model, full, int_tol=options.int_tol)
            if check.feasible:
                if check.objective < incumbent_obj - 1e-12:
                    incumbent_x, incumbent_obj = full, check.objective
                return

    if initial_incumbent is not None:
        seed = milp.assignment_vector(model, initial_incumbent)
        seeded = milp.evaluate(model, seed, int_tol=options.int_tol)
        if seeded.feasible:
            incumbent_x, incumbent_obj = seed, seeded.objective

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
        branch_var = _branching_variable(res.x, int_ids, options.int_tol)
        if branch_var is None:
            try_incumbent(res.x, node_obj)
            continue

        value = res.x[branch_var]
        floor_side = dict(node.overrides)
        floor_side[branch_var] = (lower[branch_var], math.floor(value))
        ceil_side = dict(node.overrides)
        ceil_side[branch_var] = (math.ceil(value), upper[branch_var])

        # children keep the basis but not its factors: each node LP factors
        # its start basis once
        start = Basis(res.basis.basic, res.basis.status)
        prefer_ceil = value - math.floor(value) >= 0.5
        near = _Node(node_obj, seq + 1, node.depth + 1,
                     ceil_side if prefer_ceil else floor_side, start)
        far = _Node(node_obj, seq, node.depth + 1,
                    floor_side if prefer_ceil else ceil_side, start)
        seq += 2
        push(far)
        push(near)       # depth-first pops this one next

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
