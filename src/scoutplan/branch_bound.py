"""Exact MILP solver: presolve, then branch and bound on LP relaxations.

presolve shrinks the lowered relaxation, a milp.LpProblem, before any
simplex sees it: bound propagation from row activities, redundant-row
removal, dual fixing and the aggregation of doubleton equations, to a
fixpoint, then fixed columns leave the problem, or it returns None when the
reductions show the relaxation infeasible.  An aggregation substitutes one
column of a two-column equality row by an affine function of the other, so
the postsolve map is affine: Presolved.expand puts fixed values back and
recomputes each aggregated column from its kept partner.  The search runs
over the remaining columns and expands every point back to the full model
before it is evaluated or returned.

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
the pool with its parent's bound.  Branching forbids the fractional value on
both children via floor/ceil bound tightening.  Nodes are selected
best-bound first, ties in creation order; branching picks the most
fractional integer variable, where fractionalities within the integrality
tolerance of the best tie and the lowest id among them wins.  With the
logging level of scoutplan.branch_bound at DEBUG, each branched node logs
the node count, best bound, incumbent and gap.

Without a time limit, identical inputs explore identical trees.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import milp
from .milp import LpProblem
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
    gap: float
    nodes: int
    lp_solves: int = 0                  # node LPs, cold retries included
    lp_pivots: int = 0                  # their simplex pivots
    factorizations: int = 0             # their sparse LU factorizations


def model_to_lp(model: milp.Model) -> tuple[LpProblem, list[int]]:
    """LP relaxation of the model plus the ids of its integer variables."""
    problem, integer = milp.model_arrays(model)
    return problem, np.flatnonzero(integer).tolist()


_MIN_COEF = 1e-7            # smaller coefficients never imply a bound
_REDUNDANT_TOL = 1e-9       # slack a row keeps at its worst to count as redundant
_BOUND_STEP = 1e-3          # share of its range a continuous bound must gain
_MAX_RATIO = 1e3            # largest |a_k/a_j| an aggregation substitutes
_EXACT_TOL = 1e-9           # a ratio this close to an integer is integral
_CANCELLED = 1e-12          # a merged coefficient this small has cancelled
_PRESOLVE_ROUNDS = 100      # safety cap; the reductions reach a fixpoint first


@dataclass(frozen=True)
class Presolved:
    """A relaxation with its fixed and aggregated columns and its redundant
    rows taken out.

    problem ranges over the kept columns only and int_ids index into it; its
    constant and rhs absorb the fixed and aggregated columns.  values is a
    full-length point holding every fixed column's value and the constant
    part of every aggregated column; aggregated (full space × kept columns)
    holds the rest of each aggregated column, so a reduced point x expands
    to values + aggregated @ x with x placed at columns.
    """

    problem: LpProblem
    int_ids: list[int]
    columns: np.ndarray         # full-space id of each kept column
    values: np.ndarray
    aggregated: sp.csr_matrix

    def expand(self, x: np.ndarray) -> np.ndarray:
        """The full-space point of a reduced one."""
        full = self.values + self.aggregated @ x
        full[self.columns] = x
        return full


def _merge_entries(row_of, col_of, coef, n):
    """Nonzeros sorted by row and column, duplicates summed, cancellations
    dropped."""
    key = row_of * n + col_of
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    coef = np.add.reduceat(coef[order], start)
    key = key[start]
    keep = np.abs(coef) > _CANCELLED
    return key[keep] // n, key[keep] % n, coef[keep]


def _pick_doubletons(row_of, col_of, coef, doubleton, row_lo, lower, upper,
                     integer, count):
    """Aggregations x_j = beta + rho x_k, one per doubleton equation picked.

    doubleton marks the equality rows with exactly two unfixed columns; their
    fixed columns move into beta.  A continuous column is eliminated when
    the pair has one; an integer j only when k is integer and rho and beta
    are integers, so x_j stays integral whenever x_k is.  Ties go to the
    column with fewer nonzeros (count), then to the lower id.  Each column
    takes part in at most one picked row, the lowest such row winning.
    Returns (rows, j, k, rho, beta).
    """
    m, n = len(row_lo), len(lower)
    in_row = doubleton[row_of]
    free = upper > lower
    first, second = np.flatnonzero(in_row & free[col_of]).reshape(-1, 2).T
    settled = in_row & ~free[col_of]
    fixed_part = np.bincount(row_of[settled],
                             coef[settled] * lower[col_of[settled]], m)
    rows = row_of[first]
    b = (row_lo - fixed_part)[rows]
    cols = np.stack([col_of[first], col_of[second]])
    a = np.stack([coef[first], coef[second]])
    rho, beta = -a[::-1] / a, b / a         # side s eliminated for side 1 - s
    ints = integer[cols]
    exact = (np.abs(rho - np.round(rho)) <= _EXACT_TOL) & (
        np.abs(beta - np.round(beta)) <= _EXACT_TOL)
    valid = (np.abs(rho) <= _MAX_RATIO) & (~ints | (ints[::-1] & exact))
    nnz = count[cols]
    second_better = (ints[1] < ints[0]) | ((ints[1] == ints[0]) & (nnz[1] < nnz[0]))
    side = np.where(valid.all(axis=0), second_better, valid[1]).astype(int)
    ok = np.flatnonzero(valid.any(axis=0))
    side = side[ok]
    rows, j, k = rows[ok], cols[side, ok], cols[1 - side, ok]
    rho, beta = rho[side, ok], beta[side, ok]
    rho[integer[j]] = np.round(rho[integer[j]])
    beta[integer[j]] = np.round(beta[integer[j]])

    # the lowest remaining row of each of its columns is picked; rows that
    # share a column with a picked one leave, until no candidate is left
    picked = np.zeros(len(rows), dtype=bool)
    used = np.zeros(n, dtype=bool)
    left = np.ones(len(rows), dtype=bool)
    while left.any():
        lowest = np.full(n, m)
        np.minimum.at(lowest, j[left], rows[left])
        np.minimum.at(lowest, k[left], rows[left])
        now = left & (lowest[j] == rows) & (lowest[k] == rows)
        picked |= now
        used[j[now]] = used[k[now]] = True
        left &= ~used[j] & ~used[k]
    return rows[picked], j[picked], k[picked], rho[picked], beta[picked]


def presolve(problem: LpProblem, int_ids) -> Presolved | None:
    """Shrink the relaxation by the standard MIP presolve reductions.

    Repeats until nothing changes: (a) tighten column bounds from each row's
    minimum and maximum activity, rounding integer bounds; (b) drop rows the
    bounds make redundant; (c) dual fixing: a column whose objective does not
    reward moving it away from a bound, and that no remaining row stops from
    moving there, is fixed at that bound; (e) doubleton equations: an
    equality row left with two unfixed columns, a_j x_j + a_k x_k = b,
    substitutes x_j = b/a_j - (a_k/a_j) x_k into every other row and the
    objective, moves x_j's bounds onto x_k and leaves with column j (see
    _pick_doubletons for which pairs qualify; each column takes part in one
    aggregation per round, so chains resolve over later rounds).  Then (d)
    fixed columns leave.  The substitutions compose into the postsolve map
    Presolved.aggregated once the loop ends.  Returns None when the bounds
    and rows admit no point.  Every step is a vectorised pass over all
    nonzeros, so the result depends on the problem alone.  See
    Savelsbergh (1994), ORSA J. Computing 6(4); Andersen and Andersen
    (1995), Math. Programming 71; and Achterberg et al. (2020), INFORMS J.
    Computing 32(2).
    """
    rows = problem.rows.tocsr(copy=True)
    rows.sum_duplicates()
    rows.eliminate_zeros()
    m, n = rows.shape
    row_of = np.repeat(np.arange(m), np.diff(rows.indptr))
    col_of, coef = rows.indices.astype(np.intp), rows.data
    row_lo, row_hi = problem.row_bounds
    equality = row_lo == row_hi
    lower = np.array(problem.lower, dtype=float)
    upper = np.array(problem.upper, dtype=float)
    integer = np.zeros(n, dtype=bool)
    integer[list(int_ids)] = True
    cost = np.array(problem.objective, dtype=float)
    constant = problem.constant
    active = np.ones(m, dtype=bool)
    # aggregated column j: x_j = offset[j] + ratio[j] * x[partner[j]]
    partner = np.full(n, -1)
    ratio, offset = np.zeros(n), np.zeros(n)

    def activity(contrib):
        """Per-row finite sum and count of infinite terms."""
        unbounded = np.isinf(contrib)
        finite = np.bincount(row_of, np.where(unbounded, 0.0, contrib), m)
        return finite, np.bincount(row_of, unbounded, m), unbounded

    for _ in range(_PRESOLVE_ROUNDS):
        pos = coef > 0
        has_lo, has_hi = np.isfinite(row_lo)[row_of], np.isfinite(row_hi)[row_of]
        lo_nz, hi_nz = lower[col_of], upper[col_of]
        min_nz = coef * np.where(pos, lo_nz, hi_nz)
        max_nz = coef * np.where(pos, hi_nz, lo_nz)
        min_fin, min_inf, min_unb = activity(min_nz)
        max_fin, max_inf, max_unb = activity(max_nz)
        min_act = np.where(min_inf > 0, -np.inf, min_fin)
        max_act = np.where(max_inf > 0, np.inf, max_fin)
        if np.any(active & ((min_act > row_hi + milp.FEAS_TOL)
                            | (max_act < row_lo - milp.FEAS_TOL))):
            return None

        # (b) a row whose columns are all fixed is checked at the feasibility
        # tolerance; the bounds of every other row must satisfy it outright
        free_nz = (hi_nz > lo_nz).astype(float)
        tol = np.where(np.bincount(row_of, free_nz, m) > 0, _REDUNDANT_TOL,
                       milp.FEAS_TOL)
        redundant = active & (min_act >= row_lo - tol) & (max_act <= row_hi + tol)
        active &= ~redundant

        # (a) bounds each remaining row implies on each of its columns
        live = active[row_of] & (np.abs(coef) >= _MIN_COEF)
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
        new_lower[integer] = np.ceil(new_lower[integer] - milp.INT_TOL)
        new_upper[integer] = np.floor(new_upper[integer] + milp.INT_TOL)
        # continuous bounds move only by a real step, so the rounds terminate
        width = upper - lower
        step = np.where(integer | ~np.isfinite(width), 0.0,
                        np.maximum(_REDUNDANT_TOL, _BOUND_STEP * width))
        raise_lower = new_lower > lower + step
        cut_upper = new_upper < upper - step
        lower = np.where(raise_lower, new_lower, lower)
        upper = np.where(cut_upper, new_upper, upper)
        if np.any((lower > upper) & (integer | (lower > upper + milp.FEAS_TOL))):
            return None
        # continuous bounds that meet within the tolerance fix their column
        meet = (lower != upper) & (upper - lower <= _REDUNDANT_TOL)
        lower[meet] = upper[meet] = np.clip((lower[meet] + upper[meet]) / 2,
                                            problem.lower[meet], problem.upper[meet])

        # (c) dual fixing on the locks of the remaining rows: a nonzero locks
        # its column against moves that can break its row
        kept = active[row_of]
        down = np.bincount(col_of[kept & np.where(pos, has_lo, has_hi)], minlength=n)
        up = np.bincount(col_of[kept & np.where(pos, has_hi, has_lo)], minlength=n)
        free = upper > lower
        at_lower = free & (cost >= 0) & (down == 0) & np.isfinite(lower)
        at_upper = free & ~at_lower & (cost <= 0) & (up == 0) & np.isfinite(upper)
        upper = np.where(at_lower, lower, upper)
        lower = np.where(at_upper, upper, lower)

        # (e) doubleton equations
        free = upper > lower
        unfixed = np.bincount(row_of[kept & free[col_of]], minlength=m)
        doubleton = active & equality & (unfixed == 2)
        pairs = ()
        if doubleton.any():
            pairs, j, k, rho, beta = _pick_doubletons(
                row_of, col_of, coef, doubleton, row_lo, lower, upper, integer,
                np.bincount(col_of[kept], minlength=n))
        if len(pairs):
            active[pairs] = False
            # x_j's bounds move onto x_k
            lo_k = (np.where(rho > 0, lower[j], upper[j]) - beta) / rho
            hi_k = (np.where(rho > 0, upper[j], lower[j]) - beta) / rho
            whole = integer[k]
            lo_k[whole] = np.ceil(lo_k[whole] - milp.INT_TOL)
            hi_k[whole] = np.floor(hi_k[whole] + milp.INT_TOL)
            lower[k] = np.maximum(lower[k], lo_k)
            upper[k] = np.minimum(upper[k], hi_k)
            if np.any((lower[k] > upper[k])
                      & (whole | (lower[k] > upper[k] + milp.FEAS_TOL))):
                return None
            cost[k] += rho * cost[j]
            constant += float(cost[j] @ beta)
            cost[j] = 0.0
            partner[j], ratio[j], offset[j] = k, rho, beta
            # column j has no row and no cost left: free bounds keep every
            # other reduction away from it
            lower[j], upper[j] = -np.inf, np.inf
            # a_ij x_j in row i becomes a_ij beta + a_ij rho x_k
            slot = np.full(n, -1)
            slot[j] = np.arange(len(j))
            kept = active[row_of]
            hit = kept & (slot[col_of] >= 0)
            which = slot[col_of[hit]]
            shift = np.bincount(row_of[hit], coef[hit] * beta[which], m)
            row_lo, row_hi = row_lo - shift, row_hi - shift
            stay = kept & ~hit
            row_of, col_of, coef = _merge_entries(
                np.concatenate([row_of[stay], row_of[hit]]),
                np.concatenate([col_of[stay], k[which]]),
                np.concatenate([coef[stay], coef[hit] * rho[which]]), n)

        if not (redundant.any() or raise_lower.any() or cut_upper.any()
                or meet.any() or at_lower.any() or at_upper.any() or len(pairs)):
            break

    # (d) fixed columns leave; their values move into the rhs and constant
    fixed = lower == upper
    gone = partner >= 0
    columns = np.flatnonzero(~fixed & ~gone)
    values = np.where(fixed, lower, 0.0)
    place = np.full(n, -1)
    place[columns] = np.arange(len(columns))
    # postsolve: follow each aggregation chain to a kept or fixed column
    ids = np.flatnonzero(gone)
    to, scale, shift = partner[ids], ratio[ids], offset[ids]
    while (chained := gone[to]).any():
        via = to[chained]
        shift[chained] += scale[chained] * offset[via]
        scale[chained] *= ratio[via]
        to[chained] = partner[via]
    values[ids] = shift + scale * values[to]
    onto = place[to] >= 0
    aggregated = sp.csr_matrix((scale[onto], (ids[onto], place[to[onto]])),
                               shape=(n, len(columns)))

    kept = active[row_of] & (place[col_of] >= 0)
    rhs = (np.where(problem.senses == "L", row_hi, row_lo)
           - np.bincount(row_of, coef * values[col_of], m))[active]
    indptr = np.zeros(active.sum() + 1, dtype=np.int64)
    np.cumsum(np.bincount((np.cumsum(active) - 1)[row_of[kept]],
                          minlength=len(indptr) - 1), out=indptr[1:])
    reduced = LpProblem(
        cost[columns],
        sp.csr_matrix((coef[kept], place[col_of[kept]], indptr),
                      shape=(len(indptr) - 1, len(columns))),
        problem.senses[active], rhs, lower[columns], upper[columns],
        constant=constant + float(cost @ values))
    return Presolved(reduced, np.flatnonzero(integer[columns]).tolist(), columns,
                     values, aggregated)


@dataclass
class _Node:
    bound: float
    seq: int
    overrides: dict[int, tuple[float, float]]
    basis: Basis | None = field(default=None, repr=False)


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
        return MilpResult("infeasible", None, None, math.inf, math.inf, 0)
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

    def try_incumbent(x, obj):
        """Offer a reduced-space point to the gate: its integers snapped
        first, the point as is only when the snapped one is infeasible."""
        if obj >= incumbent_obj - _IMPROVEMENT:
            return
        snapped = x.copy()
        for vid in int_ids:
            snapped[vid] = round(snapped[vid])
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

    push(_Node(-math.inf, seq, {}))
    seq += 1
    saw_unbounded = False
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

        lower = problem.lower.copy()
        upper = problem.upper.copy()
        for vid, (lo, hi) in node.overrides.items():
            lower[vid] = max(lower[vid], lo)
            upper[vid] = min(upper[vid], hi)
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
            saw_unbounded = True
            break

        if node.seq == 0 and round_root is not None:    # the root LP is optimal
            offer(round_root(presolved.expand(res.x)))
        node_obj = res.objective
        if node_obj >= incumbent_obj - options.gap:
            continue
        branch_var = _branching_variable(res.x, int_ids, milp.INT_TOL)
        if branch_var is None:
            try_incumbent(res.x, node_obj)
            continue

        value = res.x[branch_var]
        floor_side = dict(node.overrides)
        floor_side[branch_var] = (lower[branch_var], math.floor(value))
        ceil_side = dict(node.overrides)
        ceil_side[branch_var] = (math.ceil(value), upper[branch_var])

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

    if saw_unbounded:
        return MilpResult("unbounded", None, None, -math.inf, math.inf, nodes, **work)

    open_bound = open_best_bound()
    if incumbent_x is None:
        if limit_hit:
            return MilpResult("unknown", None, None, open_bound, math.inf, nodes,
                              **work)
        return MilpResult("infeasible", None, None, math.inf, math.inf, nodes, **work)

    best_bound = min(open_bound, incumbent_obj)
    gap = max(incumbent_obj - best_bound, 0.0)
    status = "optimal" if not limit_hit and gap <= options.gap else "feasible"
    return MilpResult(status, incumbent_x, incumbent_obj, best_bound, gap, nodes,
                      **work)
