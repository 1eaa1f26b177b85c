"""Bounded-variable dual simplex with a dual phase 1 on an auxiliary problem.

Relaxation engine for the branch-and-bound solver, on a milp.LpProblem.
Variables keep their boxes (no standard-form expansion): nonbasic variables
rest at a bound and the ratio tests allow bound flips.  Row i gains a slack
boxed by the row's bounds (lo, hi) from LpProblem.row_bounds:
rows_i x + s_i = rhs_i with rhs_i - hi_i <= s_i <= rhs_i - lo_i.

Every solve runs one pivot loop, the bounded dual simplex: a cold one from
the slack basis with each structural column at the bound its cost favours,
a warm one from the given basis (a parent node's optimal basis after a
branching bound change).  A problem without rows runs the same loop, in
which no row is ever infeasible, so the first pricing and its bound flips
settle it.  The leaving row is the primal infeasibility with the largest
square over its dual devex weight, and the ratio test is a Harris two-pass
test with bound flipping, so boxed columns whose reduced cost changes sign
jump to their other bound instead of entering (Maros (2003), EJOR 144;
Koberstein (2005), PhD thesis, Paderborn).  Whenever the
reduced costs are priced afresh, a boxed column of the wrong sign flips to
its other bound.  Should any other column have the wrong sign (unboxed on
the side its cost favours, or free), the basis goes to phase 1: the same
dual loop solves the auxiliary problem with zero right-hand sides in which
every column is boxed (finite lower bounds become 0 and infinite ones -1,
finite upper bounds 0 and infinite ones 1), whose optimal basis is dual
feasible for the LP unless the LP has a ray of negative cost (the
subproblem method of Koberstein and Suhl (2007), Comput. Optim. Appl. 37,
after Fourer (1994)).  Such a ray makes the LP unbounded when it is
feasible, which the dual loop settles with zero costs.  Every dual
iterate's objective bounds the LP optimum from below, so a solve given a
cutoff, on any problem, stops as soon as it reaches it.

After a run of degenerate steps the dual falls back to Bland's rule to
guarantee termination.  A deadline is checked at every pivot.  The basis
is held as a sparse LU factorization (SuperLU, fixed COLAMD column order)
of a start basis plus a product-form eta file, one eta per pivot (Forrest
and Tomlin (1972), Math. Programming 2; Suhl and Suhl (1990), ORSA J.
Computing 2(4)).  It is refactorized once the eta file holds more nonzeros
than L and U.  A solve that factors its warm start basis reports the
factorization as it stood before the first eta, so another solve from that
basis can start on it.  Before a cutoff, infeasible or optimal verdict,
x_B and the duals are recomputed on the current factors, which are kept
when the primal residual |Ax - b| and the basic reduced costs stay within
RESIDUAL_PRIMAL and RESIDUAL_DUAL (relative to 1 + |b| and 1 + |c|), and
refactorized otherwise; the verdict is then checked again on the
recomputed values.  All tie-breaks take the lowest variable index, so
identical inputs give identical bases.

LpSolver keeps the assembled matrices so branch-and-bound can re-solve the
same problem under per-node bounds without rebuilding anything.  Each solve
is one _Run, which owns its limits (iteration cap and deadline) and its
pivot count, shared by both phases.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_tocsc
from scipy.sparse.linalg import splu

from .milp import LpProblem

EPS_PIVOT = 1e-9            # steps below this count as degenerate
EPS_FEAS = 1e-6
EPS_COST = 1e-9
_MIN_PIVOT = 1e-7           # coefficients below this never block or pivot
RESIDUAL_PRIMAL = 1e-9      # |Ax - b| over 1 + |b| that a verdict's factors may leave
RESIDUAL_DUAL = 1e-9        # |c_B - B'y| over 1 + |c| that a verdict's factors may leave

NB_LOWER, NB_UPPER, BASIC, NB_FREE = 0, 1, 2, 3

_BLAND_AFTER = 400          # consecutive degenerate pivots before Bland's rule


class _Factors:
    """B⁻¹ as the sparse LU of a start basis B₀ times a product-form eta file.

    Pivot j put a column into basis position r_j whose FTRAN against the
    basis before it was w_j, so B = B₀E₁…E_k with E_j the identity but for
    column r_j = w_j.  Row j of etas holds w_j - e_{r_j}, and tri is the
    k × k upper triangle tri[i, j] = etas[i, r_j] (i < j) with pivots
    w_j[r_j] on its diagonal.  Applying the k etas one after another then
    collapses to one triangular solve with tri and one product with etas.
    pos and etas grow in capacity steps; tri is an exact Fortran array, so
    BLAS takes it without a copy, and it is replaced at every update, never
    written, so copies share it.
    """

    def __init__(self, cols, basic):
        """Factor the columns basic of cols; basic=None is the slack basis,
        B₀ = I, which needs no factorization."""
        self.m = m = cols.shape[0]
        self.lu = None
        self.basis_nnz, self.lu_nnz = m, 2 * m     # L's unit diagonal counts
        if basic is not None:
            # the basis columns as CSC, gathered straight from cols' arrays
            starts = cols.indptr[basic]
            counts = cols.indptr[basic + 1] - starts
            indptr = np.zeros(m + 1, dtype=cols.indptr.dtype)
            np.cumsum(counts, out=indptr[1:])
            take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
            matrix = sp.csc_matrix((cols.data[take], cols.indices[take], indptr),
                                   shape=(m, m))
            # splu raises RuntimeError on an exactly singular basis
            self.lu = splu(matrix, permc_spec="COLAMD")
            self.basis_nnz = matrix.nnz
            self.lu_nnz = None      # counted on first need: L and U cost a copy
        self.k = 0
        self.eta_nnz = 0
        self.pos = np.zeros(0, dtype=np.intp)
        self.etas = np.zeros((0, self.m))
        self.tri = np.zeros((0, 0), order="F")

    def copy(self) -> "_Factors":
        """A copy whose eta file grows independently (the LU is shared)."""
        other = copy.copy(self)
        other.pos, other.etas = self.pos.copy(), self.etas.copy()
        return other

    def ftran(self, b):
        """B⁻¹ b."""
        v = np.array(b, dtype=float) if self.lu is None else self.lu.solve(b)
        k = self.k
        if k:
            alpha = dtrsv(self.tri, v[self.pos[:k]], trans=1)
            v -= self.etas[:k].T @ alpha
        return v

    def btran(self, c):
        """B⁻ᵀ c."""
        u = np.array(c, dtype=float)
        return self._btran(u, self.etas[:self.k] @ u)

    def btran_unit(self, r):
        """B⁻ᵀ e_r, row r of B⁻¹.  The eta file's product with e_r is its
        column r, up to the sign of a zero, which _btran's bincount erases."""
        u = np.zeros(self.m)
        u[r] = 1.0
        return self._btran(u, self.etas[:self.k, r])

    def _btran(self, u, etas_u):
        """B⁻ᵀ u, given the product of the eta file with u."""
        k = self.k
        if k:
            u -= np.bincount(self.pos[:k], dtrsv(self.tri, etas_u), self.m)
        return u if self.lu is None else self.lu.solve(u, trans="T")

    def update(self, r, w) -> bool:
        """Record that FTRAN column w entered basis position r; True when
        the eta file now outweighs L and U and the basis should be refactored."""
        k = self.k
        if k == len(self.pos):
            size = max(2 * k, 16)
            self.pos = np.concatenate([self.pos, np.zeros(size - k, dtype=np.intp)])
            self.etas = np.vstack([self.etas, np.zeros((size - k, self.m))])
        self.etas[k] = w
        self.etas[k, r] -= 1.0
        tri = np.zeros((k + 1, k + 1), order="F")
        tri[:k, :k] = self.tri
        tri[:k, k] = self.etas[:k, r]
        tri[k, k] = w[r]
        self.tri = tri
        self.pos[k] = r
        self.k = k + 1
        self.eta_nnz += np.count_nonzero(w)
        if self.eta_nnz <= self.basis_nnz:
            return False            # L and U hold at least the basis's nonzeros
        if self.lu_nnz is None:
            self.lu_nnz = self.lu.L.nnz + self.lu.U.nnz
        return self.eta_nnz > self.lu_nnz


@dataclass
class Basis:
    """Warm-start handle: basic column ids, per-column status, optional factors.

    binv holds a factorization of this basis (or None): the final factors of
    the solve that produced the handle, or, on a handle that branch and bound
    shares between two children, the start factors the first child's solve
    reports.  A solve warm-started from a handle with factors skips its
    initial factorization, and never writes into the handle.  The name is
    kept from the dense inverse it replaced, because perfbench/spans.py
    reads it to count warm starts that carry factors.
    """

    basic: np.ndarray
    status: np.ndarray
    binv: _Factors | None = None


@dataclass
class LpResult:
    """status is optimal, infeasible, unbounded, stalled (iteration limit),
    cutoff (the objective provably reaches the cutoff; objective holds the
    bound that showed it) or interrupted (the deadline passed).  iterations
    counts the pivots of phase 1 and phase 2 alike, factorizations the
    sparse LU factorizations of a non-slack basis.  start_factors is the
    factorization of the warm start basis as the solve made it, before any
    eta, or None when the solve started from carried factors or the slack
    basis: another solve from the same basis may carry it as Basis.binv."""

    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: Basis | None
    factorizations: int = 0
    start_factors: _Factors | None = field(default=None, repr=False)


def _initial_status(lower, upper):
    status = np.full(len(lower), NB_LOWER, dtype=np.int8)
    status[np.isinf(lower) & ~np.isinf(upper)] = NB_UPPER
    status[np.isinf(lower) & np.isinf(upper)] = NB_FREE
    return status


class LpSolver:
    """Reusable solver for one constraint matrix under varying bounds."""

    def __init__(self, problem: LpProblem):
        self.problem = problem
        m, n = problem.rows.shape
        self.m, self.n = m, n
        self.total = n + m

        self.rhs = np.asarray(problem.rhs, dtype=float)
        row_lo, row_hi = problem.row_bounds
        self.slack_lower = self.rhs - row_hi
        self.slack_upper = self.rhs - row_lo

        self.cost = np.concatenate([
            np.asarray(problem.objective, dtype=float), np.zeros(m)])
        # cols = [A | I] in CSC: A's columns, each in row order, then one
        # unit entry per slack.  Its arrays are also those of cols.T in CSR.
        rows = problem.rows.tocsr()
        nnz = int(rows.indptr[-1])
        index = rows.indices.dtype if nnz + m + n < 2**31 else np.int64
        indptr = np.empty(self.total + 1, dtype=index)
        indices = np.empty(nnz + m, dtype=index)
        data = np.empty(nnz + m)
        csr_tocsc(m, n, rows.indptr.astype(index, copy=False),
                  rows.indices.astype(index, copy=False), rows.data,
                  indptr[:n + 1], indices[:nnz], data[:nnz])
        indptr[n + 1:] = np.arange(nnz + 1, nnz + m + 1)
        indices[nnz:] = np.arange(m)
        data[nnz:] = 1.0
        self.cols = cols = sp.csc_matrix((data, indices, indptr),
                                         shape=(m, self.total))
        # the arguments of the kernels behind cols @ x and cols.T @ y
        self.col_arrays = (m, self.total, cols.indptr, cols.indices, cols.data)
        self.row_arrays = (self.total, m, cols.indptr, cols.indices, cols.data)
        self.constant = problem.constant

    def solve(self, warm_start: Basis | None = None,
              lower: np.ndarray | None = None,
              upper: np.ndarray | None = None,
              max_iterations: int | None = None,
              cutoff: float | None = None,
              deadline: float | None = None) -> LpResult:
        """Solve under optionally overridden structural bounds, from
        warm_start's basis or, without one, from the slack basis.

        Every solve, one of a problem without rows included, runs the dual
        simplex, which returns status cutoff once its objective reaches
        cutoff.  Hitting max_iterations returns stalled (never a silently
        wrong answer).  deadline is a time.monotonic() value; past it the
        solve returns interrupted.  Bounds with a lower above an upper give
        infeasible without a pivot.
        """
        lo = self.problem.lower if lower is None else lower
        hi = self.problem.upper if upper is None else upper
        if np.any(lo > hi):
            return LpResult("infeasible", None, None, 0, None)
        if max_iterations is None:
            max_iterations = 50 * (self.m + self.n) + 10_000
        return _Run(self, np.concatenate([lo, self.slack_lower]),
                    np.concatenate([hi, self.slack_upper]), warm_start,
                    max_iterations, deadline).solve(cutoff)


def _dual_ratio_test(slope_dir, reduced, span, slope, bland):
    """Harris ratio test with bound flipping over the blocking columns.

    A dual step s moves each blocking column's reduced cost by s·slope_dir
    towards zero, which it crosses at its breakpoint; span is the column's
    range.  Passing a boxed column's breakpoint flips it to its other bound
    and lowers the dual objective's slope, at first the row's infeasibility,
    by |slope_dir|·span.  Breakpoints are taken one Harris group at a time
    (those within the tolerance-relaxed smallest ratio): a group is passed
    while the slope stays non-negative after it and breakpoints remain, and
    the next group supplies the entering column, its largest |slope_dir|
    (under Bland's rule the smallest ratio, exactly).  Ties go to the lowest
    position.  Returns (entering position, flipped positions, step), or None
    when the slope stays above EPS_FEAS past every breakpoint: the row cannot
    be made feasible.
    """
    if not len(slope_dir):
        return None
    magnitude = np.abs(slope_dir)
    ratio = np.maximum(reduced / -slope_dir, 0.0)
    relaxed = ratio if bland else ratio + EPS_COST / magnitude
    taken = ratio <= relaxed.min()
    members, passed = taken.nonzero()[0], []
    while True:
        size = magnitude[members]
        after = slope - size @ span[members]
        if after >= 0 and not taken.all():      # pass the group: it flips
            passed.append(members)
            slope = after
            rest = (~taken).nonzero()[0]
            members = rest[ratio[rest] <= relaxed[rest].min()]
            taken[members] = True
            continue
        if after > EPS_FEAS:
            return None
        pick = int(members[0] if bland else members[size.argmax()])
        flips = np.concatenate(passed) if passed else members[:0]
        return pick, flips, float(ratio[pick])


class _Run:
    """One solve: bound vectors, basis state, its limits, its pivot count
    and the pivot loop."""

    def __init__(self, ctx: LpSolver, lower, upper, warm_start: Basis | None,
                 max_iterations, deadline):
        self.ctx = ctx
        self.max_iterations = max_iterations
        self.deadline = deadline
        self.iterations = 0             # pivots of phase 1 and phase 2 alike
        self.m, self.n, self.total = ctx.m, ctx.n, ctx.total
        self.cost = ctx.cost            # zeros while phase 1 tests a ray for feasibility
        self.cols = ctx.cols
        self.rhs = ctx.rhs
        self.lower = lower
        self.upper = upper
        self.factorizations = 0         # LU factorizations of a non-slack basis
        self.start_factors = None       # the warm start basis's, before any eta

        self.basis = None
        if (
            warm_start is not None
            and len(warm_start.basic) == self.m
            and len(warm_start.status) == self.total
            and (self.m == 0 or warm_start.basic.max() < self.total)
        ):
            basic = warm_start.basic.astype(int).copy()
            status = warm_start.status.astype(np.int8).copy()
            if warm_start.binv is not None:
                self.basis, self.status = basic, status
                self.factors = warm_start.binv.copy()
            elif self.m == 0:           # the empty basis: nothing to factor
                self.basis, self.status = basic, status
                self.factors = _Factors(self.cols, None)
            else:
                self.factorizations += 1
                try:
                    self.start_factors = _Factors(self.cols, basic)
                    self.factors = self.start_factors.copy()
                    self.basis, self.status = basic, status
                except RuntimeError:
                    self.basis = None
        if self.basis is None:
            self._slack_restart(_initial_status(lower, upper))

        self.x = self._recompute_x()
        self.reduced = None

    def _slack_restart(self, status=None):
        if status is None:      # the basic columns leave at their initial status
            status = np.where(self.status == BASIC,
                              _initial_status(self.lower, self.upper), self.status)
        self.basis = np.arange(self.n, self.n + self.m)
        status[self.basis] = BASIC
        self.status = status
        self.factors = _Factors(self.cols, None)
        self.reduced = None

    def _cols_times(self, x):
        """cols @ x, by the kernel that the operator dispatches to."""
        y = np.zeros(self.m)
        csc_matvec(*self.ctx.col_arrays, x, y)
        return y

    def _times_cols(self, y):
        """cols.T @ y, likewise."""
        out = np.zeros(self.total)
        csr_matvec(*self.ctx.row_arrays, y, out)
        return out

    def _ftran_column(self, j):
        """B⁻¹ a_j."""
        _, _, ptr, idx, val = self.ctx.col_arrays
        a_j = np.zeros(self.m)
        a_j[idx[ptr[j]:ptr[j + 1]]] = val[ptr[j]:ptr[j + 1]]
        return self.factors.ftran(a_j)

    def _recompute_x(self):
        x = np.where(self.status == NB_UPPER, self.upper, self.lower)
        x[self.status == NB_FREE] = 0.0
        x[self.basis] = 0.0
        x[self.basis] = self.factors.ftran(self.rhs - self._cols_times(x))
        return x

    def _refactorize(self):
        self.factorizations += 1
        try:
            self.factors = _Factors(self.cols, self.basis)
        except RuntimeError:
            self._slack_restart()
        self.x = self._recompute_x()
        self.reduced = None

    def _price(self):
        """Reduced costs from a fresh BTRAN of the basic costs."""
        y = self.factors.btran(self.cost[self.basis])
        self.reduced = self.cost - self._times_cols(y)

    def _confirm(self, movable):
        """Recompute x_B and the reduced costs on the current factors,
        refactorize when their residuals show that the factors have drifted,
        and return _make_dual_feasible's answer on the recomputed values."""
        self.x = self._recompute_x()
        self._price()
        if self.factors.k:          # a fresh factorization is as good as it gets
            primal = np.abs(self._cols_times(self.x) - self.rhs).max()
            dual = np.abs(self.reduced[self.basis]).max()
            if (primal > RESIDUAL_PRIMAL * (1.0 + np.abs(self.rhs).max())
                    or dual > RESIDUAL_DUAL * (1.0 + np.abs(self.cost).max())):
                self._refactorize()
                self._price()
        return self._make_dual_feasible(movable)

    def _sides(self, movable):
        """Movable nonbasic columns whose reduced cost dual feasibility keeps
        non-negative (at lower, or free) and non-positive (at upper, or free)."""
        free = self.status == NB_FREE
        return (movable & ((self.status == NB_LOWER) | free),
                movable & ((self.status == NB_UPPER) | free))

    def _flip(self, flips):
        """Move the boxed nonbasic columns flips to their other bound."""
        to_upper = self.status[flips] == NB_LOWER
        target = np.where(to_upper, self.upper[flips], self.lower[flips])
        change = np.zeros(self.total)
        change[flips] = target - self.x[flips]
        self.x[flips] = target
        self.status[flips] = np.where(to_upper, NB_UPPER, NB_LOWER)
        self.lo_ok[flips], self.hi_ok[flips] = self.hi_ok[flips], self.lo_ok[flips]
        self.x[self.basis] -= self.factors.ftran(self._cols_times(change))

    def _make_dual_feasible(self, movable):
        """Flip each boxed column whose reduced cost has the wrong sign beyond
        EPS_COST to its other bound, and return the number of flips.
        Returns None, flipping nothing, when a column that cannot flip (it
        is unboxed on the side its cost favours, or free) has the wrong
        sign, so that phase 1 is needed.  Sets the masks lo_ok and hi_ok of
        _sides, which the dual keeps current from here on."""
        d = self.reduced
        self.lo_ok, self.hi_ok = self._sides(movable)
        wrong = (self.lo_ok & (d < -EPS_COST)) | (self.hi_ok & (d > EPS_COST))
        if not wrong.any():
            return 0
        boxed = (np.isfinite(self.lower) & np.isfinite(self.upper)
                 & (self.status != NB_FREE))
        if (wrong & ~boxed).any():
            return None
        flips = np.flatnonzero(wrong)
        self._flip(flips)
        return flips.size

    def solve(self, cutoff=None) -> LpResult:
        while True:
            result = self._dual(cutoff)
            if result is None:
                result = self._phase_one()
            if result is not None:
                return result

    def _phase_one(self):
        """Make the basis dual feasible by solving the auxiliary problem:
        zero right-hand sides, boxed columns fixed at 0, columns bounded
        below only in [0, 1], above only in [-1, 0], free ones in [-1, 1].

        Returns a result, or None to hand the basis, now dual feasible for
        the LP, back to phase 2.
        """
        lower, upper, rhs = self.lower, self.upper, self.rhs
        unboxed = ~(np.isfinite(lower) & np.isfinite(upper))
        self.lower = np.where(np.isfinite(lower), 0.0, -1.0)
        self.upper = np.where(np.isfinite(upper), 0.0, 1.0)
        self.rhs = np.zeros(self.m)
        self.status[self.status == NB_FREE] = NB_LOWER
        self.x = self._recompute_x()
        result = self._dual(None)
        self.lower, self.upper, self.rhs = lower, upper, rhs
        back = unboxed & (self.status != BASIC)
        self.status[back] = _initial_status(lower[back], upper[back])
        self.x = self._recompute_x()
        if result.status != "optimal":          # stalled or interrupted
            return self._result(result.status)
        self._price()
        if self._make_dual_feasible((upper - lower) > EPS_PIVOT) is not None:
            return None
        # a ray of negative cost: the LP is unbounded if it is feasible at all
        cost, self.cost = self.cost, np.zeros(self.total)
        result = self._dual(None)
        self.cost = cost
        if result.status == "optimal":
            return self._result("unbounded")
        return result

    def _dual(self, cutoff):
        """Bounded dual simplex from the current basis, made dual feasible by
        bound flips, under the bounds in force.

        Returns a result, or None when only phase 1 can make the basis dual
        feasible.
        """
        movable = (self.upper - self.lower) > EPS_PIVOT
        span = np.where(movable, self.upper - self.lower, 0.0)
        weights = np.ones(self.m)       # dual devex reference weights, per row
        degenerate_run = 0
        self.reduced = None
        checked = False                 # x and d recomputed since the last pivot
        fresh = False                   # x recomputed, and no pivot or flip since
        while True:
            if self.deadline is not None and time.monotonic() >= self.deadline:
                return self._result("interrupted")
            if self.iterations > self.max_iterations:
                return self._result("stalled")
            if self.reduced is None:            # refactorized since last pivot
                self._price()
                fresh = False
                if self._make_dual_feasible(movable) is None:
                    return None
            trusted = checked or self.factors.k == 0
            if cutoff is not None:
                objective = float(self.cost @ self.x) + self.ctx.constant
                if objective >= cutoff:
                    if trusted:
                        return self._result("cutoff", objective)
                    if self._confirm(movable) is None:
                        return None
                    checked = True
                    continue

            basis = self.basis
            xb = self.x[basis]
            lb_b, ub_b = self.lower[basis], self.upper[basis]
            excess = np.maximum(lb_b - xb, xb - ub_b)
            bland = degenerate_run >= _BLAND_AFTER
            if bland:
                rows = (excess > EPS_FEAS).nonzero()[0]
                r = int(rows[basis[rows].argmin()]) if rows.size else -1
            elif self.m:
                r = int(np.where(excess > EPS_FEAS, excess * excess / weights,
                                 -1.0).argmax())
                if not excess[r] > EPS_FEAS:
                    r = -1
            else:
                r = -1
            if r < 0:                           # no row is infeasible
                if trusted:
                    return self._result("optimal", x=self.x if fresh else None)
                flips = self._confirm(movable)
                if flips is None:
                    return None
                checked, fresh = True, not flips
                continue
            leaving = int(basis[r])
            sigma = 1.0 if xb[r] < lb_b[r] else -1.0    # +1: leaves at its lower

            # row r of B⁻¹A; moving the duals by step s changes d by s·sigma·alpha
            alpha = self._times_cols(self.factors.btran_unit(r))
            # the columns whose reduced cost sigma·alpha moves towards zero
            on_neg, on_pos = ((self.lo_ok, self.hi_ok) if sigma > 0
                              else (self.hi_ok, self.lo_ok))
            cand = ((on_neg & (alpha < -_MIN_PIVOT))
                    | (on_pos & (alpha > _MIN_PIVOT))).nonzero()[0]
            found = _dual_ratio_test(sigma * alpha[cand], self.reduced[cand],
                                     span[cand], excess[r], bland)
            if found is None:
                if trusted:
                    return self._result("infeasible")
                if self._confirm(movable) is None:
                    return None
                checked = True
                continue
            pick, flips, step = found
            entering = int(cand[pick])

            w = self._ftran_column(entering)
            pivot = float(w[r])
            if (abs(pivot - alpha[entering]) > 1e-7 * (1.0 + abs(pivot))
                    and self.factors.k):
                self._refactorize()     # the row and the column disagree
                continue

            if flips.size:
                self._flip(cand[flips])

            bound = float(lb_b[r] if sigma > 0 else ub_b[r])
            theta = (float(self.x[leaving]) - bound) / pivot
            self.x[basis] -= theta * w
            self.x[entering] += theta
            self.x[leaving] = bound
            self.status[leaving] = NB_LOWER if sigma > 0 else NB_UPPER
            self.status[entering] = BASIC
            basis[r] = entering
            self.lo_ok[entering] = self.hi_ok[entering] = False
            self.lo_ok[leaving] = sigma > 0 and movable[leaving]
            self.hi_ok[leaving] = sigma < 0 and movable[leaving]

            self.reduced += (sigma * step) * alpha
            self.reduced[basis] = 0.0
            self.reduced[leaving] = sigma * step

            gamma = float(weights[r])
            np.maximum(weights, np.square(w / pivot) * gamma, out=weights)
            weights[r] = max(gamma / (pivot * pivot), 1.0)
            if weights.max() > 1e8:
                weights[:] = 1.0

            self.iterations += 1
            checked = fresh = False
            degenerate_run = degenerate_run + 1 if step <= EPS_COST else 0
            if self.factors.update(r, w):
                self._refactorize()

    def _result(self, status, objective=None, x=None) -> LpResult:
        """The result of a verdict; an optimal one takes x when given (it must
        equal a fresh recomputation) and recomputes it otherwise."""
        factors = self.factors if status in ("optimal", "infeasible") else None
        basis = (None if status == "unbounded"
                 else Basis(self.basis, self.status, factors))
        if status == "optimal":
            if x is None:
                x = self._recompute_x()
            objective = float(self.cost @ x) + self.ctx.constant
            x = x[: self.n].copy()
        return LpResult(status, x, objective, self.iterations, basis,
                        self.factorizations, self.start_factors)
