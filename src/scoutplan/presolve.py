"""Presolve: the standard MIP reductions on a relaxation before any simplex.

presolve shrinks the lowered relaxation, a milp.LpProblem: bound propagation
from row activities, redundant-row removal, dual fixing and the aggregation
of doubleton equations, to a fixpoint, then fixed columns leave the problem,
or it returns None when the reductions show the relaxation infeasible.  An
aggregation substitutes one column of a two-column equality row by an affine
function of the other, so the postsolve map is affine: Presolved.expand puts
fixed values back and recomputes each aggregated column from its kept
partner.

Each round of the fixpoint loop starts with one activity-and-implied-bound
step, implied_bounds, over a Structure: every array the step needs that
depends only on the nonzeros and the row bounds.  A Structure is built once
per structure epoch, at entry and again after each round that aggregates
doubletons, so a round gathers the column bounds once and runs each
bincount and each side's ufunc.at once.  The step takes any column bounds
and any mask of live rows, so node propagation in the search can call it on
a node's bounds over the presolved problem's Structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import milp
from .milp import LpProblem

_MIN_COEF = 1e-7            # smaller coefficients never imply a bound
_REDUNDANT_TOL = 1e-9       # slack a row keeps at its worst to count as redundant
_BOUND_STEP = 1e-3          # share of its range a continuous bound must gain
_MAX_RATIO = 1e3            # largest |a_k/a_j| an aggregation substitutes
_EXACT_TOL = 1e-9           # a ratio this close to an integer is integral
_CANCELLED = 1e-12          # a merged coefficient this small has cancelled
_PRESOLVE_ROUNDS = 100      # safety cap; the reductions reach a fixpoint first
_OPEN = np.array([-np.inf, np.inf])     # the activity of a row with an open term


@dataclass(frozen=True)
class Presolved:
    """A relaxation with its fixed and aggregated columns and its redundant
    rows taken out.

    problem ranges over the kept columns only; int_ids, an intp index
    array, picks its integer columns; its constant and rhs absorb the fixed
    and aggregated columns.  values is a full-length point holding every
    fixed column's value and the constant part of every aggregated column;
    aggregated (full space × kept columns) holds the rest of each, so a
    reduced point x expands to values + aggregated @ x with x at columns.
    """

    problem: LpProblem
    int_ids: np.ndarray
    columns: np.ndarray         # full-space id of each kept column
    values: np.ndarray
    aggregated: sp.csr_matrix

    def expand(self, x: np.ndarray) -> np.ndarray:
        """The full-space point of a reduced one."""
        full = self.values + self.aggregated @ x
        full[self.columns] = x
        return full


class Structure:
    """What an activity-and-implied-bound step needs of the nonzeros (row_of,
    col_of, coef; sorted by row) and the row bounds (row_lo, row_hi).

    Every per-nonzero array holds two halves: the minimum activity's first,
    the maximum activity's second.  In the minimum half each nonzero takes
    the column bound that minimises its term, and the row's upper bound
    implies a bound on its column; the maximum half mirrors it.  Activity
    rows of the maximum half are offset by m, and the ids of upper bounds
    by n, so one bincount sums both halves and one gather from the stacked
    column bounds (lower, upper) reads both.  A term whose implying bound
    is finite also locks its column against moving away from the bound the
    term reads: up from a lower bound, down from an upper one.
    """

    def __init__(self, row_of, col_of, coef, row_lo, row_hi, n):
        m = len(row_lo)
        self.m, self.n = m, n
        self.row_of, self.col_of = row_of, col_of
        pos = coef > 0
        reads_lower = np.concatenate([pos, ~pos])
        self.coef2 = np.concatenate([coef, coef])
        self.rows2 = np.concatenate([row_of, row_of])
        self.row2 = np.concatenate([row_of, row_of + m])     # activity bins
        self.cols2 = np.concatenate([col_of, col_of])
        self.upper_ids = self.cols2 + n
        self.terms = np.where(reads_lower, self.cols2, self.upper_ids)
        self.open_activity = _OPEN.repeat(m)
        # the row bound each half implies from: hi for the minimum, lo for
        # the maximum
        self.implying = np.concatenate([row_hi, row_lo])[self.row2]
        finite = np.isfinite(self.implying)
        implies = finite & (np.abs(self.coef2) >= _MIN_COEF)
        self.to_upper = implies & reads_lower
        self.to_lower = implies & ~reads_lower
        # activity thresholds: infeasible beyond FEAS_TOL; redundant within
        # _REDUNDANT_TOL, or within FEAS_TOL once all the row's columns are fixed
        self.lo_feas, self.hi_feas = row_lo - milp.FEAS_TOL, row_hi + milp.FEAS_TOL
        self.lo_tight = row_lo - _REDUNDANT_TOL
        self.hi_tight = row_hi + _REDUNDANT_TOL
        # locks: down locks counted in the first n bins, up locks in the next n
        self.lock_rows = self.rows2[finite]
        self.lock_cols = np.where(reads_lower, self.upper_ids, self.cols2)[finite]


def implied_bounds(s: Structure, bounds, live):
    """One activity-and-implied-bound step over the rows marked live.

    bounds stacks the column bounds, lower then upper.  Computes each row's
    minimum and maximum activity under them.  Returns None when a live
    row's activity range misses its bounds by more than FEAS_TOL.
    Otherwise returns (live, implied): live without the rows that the
    bounds make redundant (a row whose columns are all fixed is checked at
    FEAS_TOL, any other row must hold within _REDUNDANT_TOL), and bounds,
    in a new array, tightened by every bound a remaining row implies on one
    of its columns, through a coefficient of at least _MIN_COEF, where the
    rest of the row is bounded.
    """
    m, n = s.m, s.n
    finite = s.coef2 * bounds[s.terms]
    unbounded = np.isinf(finite)
    finite[unbounded] = 0.0
    total = np.bincount(s.row2, finite, 2 * m)
    infinite = np.bincount(s.row2[unbounded], minlength=2 * m)
    activity = np.where(infinite > 0, s.open_activity, total)
    min_act, max_act = activity[:m], activity[m:]
    if np.count_nonzero(live & ((min_act > s.hi_feas) | (max_act < s.lo_feas))):
        return None

    some_free = np.bincount(s.row_of, (bounds[n:] > bounds[:n])[s.col_of], m) > 0
    live = live & ~((min_act >= np.where(some_free, s.lo_tight, s.lo_feas))
                    & (max_act <= np.where(some_free, s.hi_tight, s.hi_feas)))

    # the rest of the row is bounded when no other term is infinite
    implied = (s.implying - (total[s.row2] - finite)) / s.coef2
    bounded = live[s.rows2] & (infinite[s.row2] == unbounded)
    tightened = bounds.copy()
    side = bounded & s.to_upper
    np.minimum.at(tightened, s.upper_ids[side], implied[side])
    side = bounded & s.to_lower
    np.maximum.at(tightened, s.cols2[side], implied[side])
    return live, tightened


def _merge_entries(row_of, col_of, coef, n):
    """Nonzeros sorted by row and column, duplicates summed, cancellations
    dropped."""
    key = row_of * n + col_of
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)       # the first entry of each key
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    start = first.nonzero()[0]
    coef = np.add.reduceat(coef[order], start)
    key = key[start]
    keep = np.abs(coef) > _CANCELLED
    return key[keep] // n, key[keep] % n, coef[keep]


def _pick_doubletons(row_of, col_of, coef, doubleton, row_lo, lower, free,
                     integer, count):
    """Aggregations x_j = beta + rho x_k, one per doubleton equation picked.

    doubleton marks the equality rows with exactly two unfixed columns; their
    fixed columns move into beta.  A continuous column is eliminated when
    the pair has one; an integer j only when k is integer and rho and beta
    are integers, so x_j stays integral whenever x_k is.  Ties go to the
    column with fewer nonzeros (count), then to the lower id.  Each column
    takes part in at most one picked row, the lowest such row winning.
    free marks the columns whose bounds differ, and lower holds the fixed
    columns' values.  Returns (rows, j, k, rho, beta).
    """
    m, n = len(row_lo), len(lower)
    in_row = doubleton[row_of]
    free_nz = free[col_of]
    pair = (in_row & free_nz).nonzero()[0].reshape(-1, 2).T    # 2 × rows
    settled = in_row & ~free_nz
    fixed_part = np.bincount(row_of[settled],
                             coef[settled] * lower[col_of[settled]], m)
    rows = row_of[pair[0]]
    b = (row_lo - fixed_part)[rows]
    cols, a = col_of[pair], coef[pair]
    rho, beta = -a[::-1] / a, b / a         # side s eliminated for side 1 - s
    ints = integer[cols]
    exact = (np.abs(rho - np.rint(rho)) <= _EXACT_TOL) & (
        np.abs(beta - np.rint(beta)) <= _EXACT_TOL)
    valid = (np.abs(rho) <= _MAX_RATIO) & (~ints | (ints[::-1] & exact))
    nnz = count[cols]
    second_better = (ints[1] < ints[0]) | ((ints[1] == ints[0]) & (nnz[1] < nnz[0]))
    side = np.where(valid[0] & valid[1], second_better, valid[1]).astype(int)
    ok = (valid[0] | valid[1]).nonzero()[0]
    side = side[ok]
    rows, j, k = rows[ok], cols[side, ok], cols[1 - side, ok]
    rho, beta = rho[side, ok], beta[side, ok]
    rho[integer[j]] = np.rint(rho[integer[j]])
    beta[integer[j]] = np.rint(beta[integer[j]])

    # the lowest remaining row of each of its columns is picked; rows that
    # share a column with a picked one leave, until no candidate is left
    picked = np.zeros(len(rows), dtype=bool)
    used = np.zeros(n, dtype=bool)
    left = ~picked
    while np.count_nonzero(left):
        lowest = np.full(n, m)
        np.minimum.at(lowest, j[left], rows[left])
        np.minimum.at(lowest, k[left], rows[left])
        now = left & (lowest[j] == rows) & (lowest[k] == rows)
        picked |= now
        used[j[now]] = used[k[now]] = True
        left &= ~used[j] & ~used[k]
    return rows[picked], j[picked], k[picked], rho[picked], beta[picked]


def _nonzeros(rows):
    """(row_of, col_of, coef) of a matrix's nonzeros, sorted by row and
    column, with duplicates summed and explicit zeros dropped."""
    if not (rows.format == "csr" and rows.has_canonical_format
            and np.count_nonzero(rows.data) == len(rows.data)):
        rows = rows.tocsr(copy=True)
        rows.sum_duplicates()
        rows.eliminate_zeros()
    indptr = rows.indptr
    return (np.arange(rows.shape[0]).repeat(indptr[1:] - indptr[:-1]),
            rows.indices.astype(np.intp), rows.data)


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
    and rows admit no point.  (a) and (b) are implied_bounds; every step is
    a vectorised pass over all nonzeros, so the result depends on the
    problem alone.  See Savelsbergh (1994), ORSA J. Computing 6(4); Andersen
    and Andersen (1995), Math. Programming 71; and Achterberg et al. (2020),
    INFORMS J. Computing 32(2).
    """
    m, n = problem.rows.shape
    row_of, col_of, coef = _nonzeros(problem.rows)
    row_lo, row_hi = problem.row_bounds
    equality = row_lo == row_hi
    # the column bounds, stacked, and a view of each half
    bounds = np.concatenate([problem.lower, problem.upper]).astype(float)
    lower, upper = bounds[:n], bounds[n:]
    integer = np.zeros(n, dtype=bool)
    integer[np.asarray(int_ids, dtype=np.intp)] = True     # a bare () would mark all
    continuous = ~integer
    whole = integer.nonzero()[0]
    whole_upper = whole + n
    stepped = np.empty(n, dtype=bool)
    moved = np.empty(2 * n, dtype=bool)
    cost = np.array(problem.objective, dtype=float)
    favoured = np.concatenate([cost >= 0, cost <= 0])   # bounds the cost favours
    constant = problem.constant
    active = np.ones(m, dtype=bool)
    # aggregated column j: x_j = offset[j] + ratio[j] * x[partner[j]]
    partner = np.full(n, -1)
    ratio, offset = np.zeros(n), np.zeros(n)
    structure = Structure(row_of, col_of, coef, row_lo, row_hi, n)

    for _ in range(_PRESOLVE_ROUNDS):
        # (a) and (b)
        step = implied_bounds(structure, bounds, active)
        if step is None:
            return None
        live, implied = step
        dropped = np.count_nonzero(active) - np.count_nonzero(live)
        active = live
        implied[whole] = np.ceil(implied[whole] - milp.INT_TOL)
        implied[whole_upper] = np.floor(implied[whole_upper] + milp.INT_TOL)
        # continuous bounds move only by a real step, so the rounds terminate
        width = upper - lower
        np.isfinite(width, out=stepped)
        stepped &= continuous
        least = np.where(stepped, np.maximum(_REDUNDANT_TOL, _BOUND_STEP * width),
                         0.0)
        np.greater(implied[:n], lower + least, out=moved[:n])
        np.less(implied[n:], upper - least, out=moved[n:])
        np.copyto(bounds, implied, where=moved)
        crossed = lower > upper
        if np.count_nonzero(crossed) and np.count_nonzero(
                crossed & (integer | (lower > upper + milp.FEAS_TOL))):
            return None
        # continuous bounds that meet within the tolerance fix their column
        meet = (lower != upper) & (upper - lower <= _REDUNDANT_TOL)
        met = np.count_nonzero(meet)
        if met:
            lower[meet] = upper[meet] = np.clip(
                (lower[meet] + upper[meet]) / 2,
                problem.lower[meet], problem.upper[meet])

        # (c) dual fixing on the locks of the remaining rows: fix a column at
        # a finite bound its cost favours when no row locks it there
        fixing = np.bincount(structure.lock_cols[active[structure.lock_rows]],
                             minlength=2 * n) == 0
        fixing &= np.isfinite(bounds)
        fixing &= favoured
        free = upper > lower
        at_lower = fixing[:n] & free
        at_upper = fixing[n:] & free & ~at_lower
        np.copyto(upper, lower, where=at_lower)
        np.copyto(lower, upper, where=at_upper)
        fixed = np.count_nonzero(at_lower) + np.count_nonzero(at_upper)

        # (e) doubleton equations
        free = upper > lower
        unfixed = np.bincount(row_of, free[col_of], m)
        doubleton = active & equality & (unfixed == 2)
        pairs = ()
        if np.count_nonzero(doubleton):
            pairs, j, k, rho, beta = _pick_doubletons(
                row_of, col_of, coef, doubleton, row_lo, lower, free, integer,
                np.bincount(col_of[active[row_of]], minlength=n))
        if len(pairs):
            active[pairs] = False
            # x_j's bounds move onto x_k
            lo_k = (np.where(rho > 0, lower[j], upper[j]) - beta) / rho
            hi_k = (np.where(rho > 0, upper[j], lower[j]) - beta) / rho
            whole_k = integer[k]
            lo_k[whole_k] = np.ceil(lo_k[whole_k] - milp.INT_TOL)
            hi_k[whole_k] = np.floor(hi_k[whole_k] + milp.INT_TOL)
            lower[k] = np.maximum(lower[k], lo_k)
            upper[k] = np.minimum(upper[k], hi_k)
            crossed = lower[k] > upper[k]
            if np.count_nonzero(crossed) and np.count_nonzero(
                    crossed & (whole_k | (lower[k] > upper[k] + milp.FEAS_TOL))):
                return None
            cost[k] += rho * cost[j]
            constant += float(cost[j] @ beta)
            cost[j] = 0.0
            favoured = np.concatenate([cost >= 0, cost <= 0])
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
            structure = Structure(row_of, col_of, coef, row_lo, row_hi, n)

        if not (dropped or np.count_nonzero(moved) or met or fixed or len(pairs)):
            break

    # (d) fixed columns leave; their values move into the rhs and constant
    fixed = lower == upper
    gone = partner >= 0
    columns = (~fixed & ~gone).nonzero()[0]
    values = np.where(fixed, lower, 0.0)
    # int32 indices where they fit, which scipy would otherwise scan to find
    index = np.int32 if max(len(coef), n) < 2**31 else np.int64
    place = np.full(n, -1, dtype=index)
    place[columns] = np.arange(len(columns))
    # postsolve: follow each aggregation chain to a kept or fixed column
    ids = gone.nonzero()[0]
    to, scale, shift = partner[ids], ratio[ids], offset[ids]
    while np.count_nonzero(chained := gone[to]):
        via = to[chained]
        shift[chained] += scale[chained] * offset[via]
        scale[chained] *= ratio[via]
        to[chained] = partner[via]
    values[ids] = shift + scale * values[to]
    # each aggregated column is one row of one entry
    onto = place[to] >= 0
    indptr = np.zeros(n + 1, dtype=index)
    indptr[ids[onto] + 1] = 1
    aggregated = sp.csr_matrix(
        (scale[onto], place[to[onto]], np.add.accumulate(indptr)),
        shape=(n, len(columns)))

    kept = active[row_of] & (place[col_of] >= 0)
    rhs = (np.where(problem.senses == "L", row_hi, row_lo)
           - np.bincount(row_of, coef * values[col_of], m))[active]
    indptr = np.zeros(np.count_nonzero(active) + 1, dtype=index)
    np.add.accumulate(np.bincount(row_of[kept], minlength=m)[active],
                      out=indptr[1:])
    reduced = LpProblem(
        cost[columns],
        sp.csr_matrix((coef[kept], place[col_of[kept]], indptr),
                      shape=(len(indptr) - 1, len(columns))),
        problem.senses[active], rhs, lower[columns], upper[columns],
        constant=constant + float(cost @ values))
    return Presolved(reduced, integer[columns].nonzero()[0], columns, values, aggregated)
