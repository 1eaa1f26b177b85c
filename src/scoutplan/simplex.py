"""Bounded-variable dual simplex, with the primal as its phase 2.

Relaxation engine for the branch-and-bound solver.  Variables keep their
boxes (no standard-form expansion): nonbasic variables rest at a bound and
the ratio tests allow bound flips.

Every solve starts in the bounded dual simplex: a cold one from the slack
basis with each structural column at the bound its cost favours, a warm one
from the given basis (a parent node's optimal basis after a branching bound
change).  The leaving row is
the primal infeasibility with the largest square over its dual devex
weight, and the ratio test is a Harris two-pass test with bound flipping,
so boxed columns whose reduced cost changes sign jump to their other bound
instead of entering (Maros (2003), EJOR 144; Koberstein (2005), PhD thesis,
Paderborn).  Whenever the reduced costs are priced afresh, a boxed column
of the wrong sign flips to its other bound, and any other column of the
wrong sign (unboxed on the side its cost favours, or free) gets a cost
shift that makes its reduced cost zero, so no phase 1 is needed.  Every
dual iterate's objective bounds the LP optimum from below, so a solve given
a cutoff stops as soon as it reaches it, unless a shift is in effect.  An
infeasible verdict does not depend on the costs and stands under shifts.
Once the basis is primal feasible the shifts are removed and the primal
phase 2 finishes, which normally takes no pivot; should it find the basis
primal infeasible, it hands it back to the dual.

Pricing in either loop is devex with reduced costs updated incrementally;
after a run of degenerate steps either loop falls back to Bland's rule to
guarantee termination.  The primal ratio test is the two-pass (Harris)
kind: tiny coefficients never block, and the second pass picks the largest
admissible pivot within the tolerance-relaxed step.  A deadline is checked
at every pivot of either loop.  The basis is held as a sparse LU
factorization (SuperLU, fixed COLAMD column order) of a start basis plus a
product-form eta file, one eta per pivot (Forrest and Tomlin (1972), Math.
Programming 2; Suhl and Suhl (1990), ORSA J. Computing 2(4)).  It is
refactorized once the eta file holds more nonzeros than L and U.  A solve
that factors its warm start basis reports the factorization as it stood
before the first eta, so another solve from that basis can start on it.
Before a cutoff, infeasible or optimal verdict, x_B and the duals are
recomputed on the current factors, which are kept when the primal residual
|Ax - b| and the basic reduced costs stay within RESIDUAL_PRIMAL and
RESIDUAL_DUAL (relative to 1 + |b| and 1 + |c|), and refactorized
otherwise; the verdict is then checked again on the recomputed values.
All tie-breaks take the lowest variable index, so identical inputs give
identical bases.

LpSolver keeps the assembled matrices so branch-and-bound can re-solve the
same problem under per-node bounds without rebuilding anything.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.linalg import splu

EPS_PIVOT = 1e-9            # steps below this count as degenerate
EPS_FEAS = 1e-6
EPS_COST = 1e-9
_MIN_PIVOT = 1e-7           # coefficients below this never block or pivot
RESIDUAL_PRIMAL = 1e-9      # |Ax - b| over 1 + |b| that a verdict's factors may leave
RESIDUAL_DUAL = 1e-9        # |c_B - B'y| over 1 + |c| that a verdict's factors may leave

NB_LOWER, NB_UPPER, BASIC, NB_FREE = 0, 1, 2, 3

_BLAND_AFTER = 400          # consecutive degenerate pivots before Bland's rule


@dataclass(frozen=True)
class LpProblem:
    """min objective @ x + constant  s.t.  rows x {<=,==,>=} rhs, lower <= x <= upper."""

    objective: np.ndarray
    rows: sp.csr_matrix
    senses: np.ndarray          # one of "L", "E", "G" per row
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        m, n = self.rows.shape
        if not (
            len(self.objective) == n
            and len(self.senses) == len(self.rhs) == m
            and len(self.lower) == len(self.upper) == n
        ):
            raise ValueError("inconsistent problem dimensions")
        if np.any(self.lower > self.upper):
            raise ValueError("variable with lower bound above upper bound")


class _Factors:
    """B⁻¹ as the sparse LU of a start basis B₀ times a product-form eta file.

    Pivot j put a column into basis position r_j whose FTRAN against the
    basis before it was w_j, so B = B₀E₁…E_k with E_j the identity but for
    column r_j = w_j.  Row j of etas holds w_j - e_{r_j}, and tri is the
    upper triangle tri[i, j] = etas[i, r_j] (i < j) with pivots w_j[r_j] on
    its diagonal.  Applying the k etas one after another then collapses to
    one triangular solve with tri and one product with etas.
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
        other.pos, other.etas, other.tri = (
            self.pos.copy(), self.etas.copy(), self.tri.copy(order="F"))
        return other

    def ftran(self, b):
        """B⁻¹ b."""
        v = np.array(b, dtype=float) if self.lu is None else self.lu.solve(b)
        k = self.k
        if k:
            alpha = dtrsv(self.tri[:k, :k], v[self.pos[:k]], trans=1)
            v -= self.etas[:k].T @ alpha
        return v

    def btran(self, c):
        """B⁻ᵀ c."""
        u = np.array(c, dtype=float)
        k = self.k
        if k:
            beta = dtrsv(self.tri[:k, :k], self.etas[:k] @ u)
            u -= np.bincount(self.pos[:k], beta, self.m)
        return u if self.lu is None else self.lu.solve(u, trans="T")

    def update(self, r, w) -> bool:
        """Record that FTRAN column w entered basis position r; True when
        the eta file now outweighs L and U and the basis should be refactored."""
        k = self.k
        if k == len(self.pos):
            size = max(2 * k, 16)
            self.pos = np.concatenate([self.pos, np.zeros(size - k, dtype=np.intp)])
            self.etas = np.vstack([self.etas, np.zeros((size - k, self.m))])
            tri = np.zeros((size, size), order="F")
            tri[:k, :k] = self.tri
            self.tri = tri
        self.etas[k] = w
        self.etas[k, r] -= 1.0
        self.tri[:k, k] = self.etas[:k, r]
        self.tri[k, k] = w[r]
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
    counts dual and primal pivots alike, factorizations the sparse LU
    factorizations of a non-slack basis.  start_factors is the factorization
    of the warm start basis as the solve made it, before any eta, or None
    when the solve started from carried factors or the slack basis: another
    solve from the same basis may carry it as Basis.binv."""

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

        senses = np.asarray(problem.senses)
        unknown = ~np.isin(senses, ("L", "E", "G"))
        if unknown.any():
            raise ValueError(f"unknown sense {str(senses[unknown][0])!r}")
        self.slack_lower = np.where(senses == "G", -np.inf, 0.0)
        self.slack_upper = np.where(senses == "L", np.inf, 0.0)

        self.cost = np.concatenate([
            np.asarray(problem.objective, dtype=float), np.zeros(m)])
        cols = sp.hstack([problem.rows.tocsc(), sp.eye(m, format="csc")],
                         format="csc")
        self.cols = cols
        cols_t = cols.T.tocsr()
        # the arguments of the kernels behind cols @ x and cols.T @ y
        self.col_arrays = (m, self.total, cols.indptr, cols.indices, cols.data)
        self.row_arrays = (self.total, m, cols_t.indptr, cols_t.indices, cols_t.data)
        self.rhs = np.asarray(problem.rhs, dtype=float)
        self.constant = problem.constant

    def solve(self, warm_start: Basis | None = None,
              lower: np.ndarray | None = None,
              upper: np.ndarray | None = None,
              max_iterations: int | None = None,
              cutoff: float | None = None,
              deadline: float | None = None) -> LpResult:
        """Solve under optionally overridden structural bounds, from
        warm_start's basis or, without one, from the slack basis.

        The dual simplex returns status cutoff once its objective reaches
        cutoff.  Hitting max_iterations returns stalled (never a silently
        wrong answer).  deadline is a time.monotonic() value; past it the
        solve returns interrupted.  Bounds with a lower above an upper give
        infeasible without a pivot.  Independent solves may run
        concurrently; a single solve is single-threaded.
        """
        lo = self.problem.lower if lower is None else lower
        hi = self.problem.upper if upper is None else upper
        if np.any(lo > hi):
            return LpResult("infeasible", None, None, 0, None)
        if max_iterations is None:
            max_iterations = 50 * (self.m + self.n) + 10_000
        if self.m == 0:
            return _solve_unconstrained(self.cost[: self.n], lo, hi, self.constant)
        return _Run(self, np.concatenate([lo, self.slack_lower]),
                    np.concatenate([hi, self.slack_upper]),
                    warm_start).solve(max_iterations, cutoff, deadline)


def _solve_unconstrained(cost, lower, upper, constant) -> LpResult:
    best = np.where(cost > 0, lower, np.where(cost < 0, upper, 0.0))
    if np.any(np.isinf(best)):
        return LpResult("unbounded", None, None, 0, None)
    x = np.clip(best, lower, upper)
    obj = float(cost @ x) + constant
    return LpResult("optimal", x, obj, 0,
                    Basis(np.empty(0, dtype=int), _initial_status(lower, upper)))


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
    """One solve: bound vectors, basis state and the pivot loops."""

    def __init__(self, ctx: LpSolver, lower, upper, warm_start: Basis | None):
        self.ctx = ctx
        self.m, self.n, self.total = ctx.m, ctx.n, ctx.total
        self.cost = ctx.cost            # a shifted copy while shifts are in effect
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
        self.weights = np.ones(self.total)

    def _slack_restart(self, status=None):
        if status is None:      # the basic columns leave at their initial status
            status = np.where(self.status == BASIC,
                              _initial_status(self.lower, self.upper), self.status)
        self.basis = np.arange(self.n, self.n + self.m)
        status[self.basis] = BASIC
        self.status = status
        self.factors = _Factors(self.cols, None)
        self.weights = np.ones(self.total)
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

    def _confirm(self):
        """Recompute x_B and the reduced costs on the current factors, and
        refactorize when their residuals show that the factors have drifted."""
        self.x = self._recompute_x()
        self._price()
        if self.factors.k == 0:
            return                  # a fresh factorization is as good as it gets
        primal = np.abs(self._cols_times(self.x) - self.rhs).max()
        dual = np.abs(self.reduced[self.basis]).max()
        if (primal > RESIDUAL_PRIMAL * (1.0 + np.abs(self.rhs).max())
                or dual > RESIDUAL_DUAL * (1.0 + np.abs(self.cost).max())):
            self._refactorize()
            self._price()

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
        EPS_COST to its other bound, and shift the cost of every other such
        column so that its reduced cost is zero.  Sets the masks lo_ok and
        hi_ok of _sides, which the dual keeps current from here on."""
        d = self.reduced
        self.lo_ok, self.hi_ok = self._sides(movable)
        wrong = (self.lo_ok & (d < -EPS_COST)) | (self.hi_ok & (d > EPS_COST))
        if not wrong.any():
            return
        boxed = (np.isfinite(self.lower) & np.isfinite(self.upper)
                 & (self.status != NB_FREE))
        flips = np.flatnonzero(wrong & boxed)
        if flips.size:
            self._flip(flips)
        shifts = np.flatnonzero(wrong & ~boxed)
        if shifts.size:
            if self.cost is self.ctx.cost:
                self.cost = self.cost.copy()
            self.cost[shifts] -= d[shifts]
            d[shifts] = 0.0

    def solve(self, max_iterations, cutoff=None, deadline=None) -> LpResult:
        movable = (self.upper - self.lower) > EPS_PIVOT
        iterations = 0
        while True:
            result, iterations = self._dual(movable, iterations, max_iterations,
                                            cutoff, deadline)
            if result is None:
                if self.cost is not self.ctx.cost:      # remove the shifts
                    self.cost, self.reduced = self.ctx.cost, None
                result, iterations = self._primal(movable, iterations,
                                                  max_iterations, deadline)
            if result is not None:
                return result

    def _dual(self, movable, iterations, max_iterations, cutoff, deadline):
        """Bounded dual simplex from the current basis, made dual feasible.

        Returns (result, iterations); result None hands the now primal
        feasible basis to the primal phase 2.
        """
        span = np.where(movable, self.upper - self.lower, 0.0)
        weights = np.ones(self.m)       # dual devex reference weights, per row
        unit = np.zeros(self.m)
        degenerate_run = 0
        self.reduced = None
        checked = False                 # x and d recomputed since the last pivot
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                return self._result("interrupted", iterations), iterations
            if iterations > max_iterations:
                return self._result("stalled", iterations), iterations
            if self.reduced is None:            # refactorized since last pivot
                self._price()
                self._make_dual_feasible(movable)
            trusted = checked or self.factors.k == 0
            if cutoff is not None and self.cost is self.ctx.cost:
                objective = float(self.cost @ self.x) + self.ctx.constant
                if objective >= cutoff:
                    if trusted:
                        return self._result("cutoff", iterations, objective), iterations
                    self._confirm()
                    self._make_dual_feasible(movable)
                    checked = True
                    continue

            basis = self.basis
            xb = self.x[basis]
            lb_b, ub_b = self.lower[basis], self.upper[basis]
            excess = np.maximum(lb_b - xb, xb - ub_b)
            bland = degenerate_run >= _BLAND_AFTER
            if bland:
                rows = (excess > EPS_FEAS).nonzero()[0]
                if not rows.size:
                    return None, iterations
                r = int(rows[basis[rows].argmin()])
            else:
                r = int(np.where(excess > EPS_FEAS, excess * excess / weights,
                                 -1.0).argmax())
                if not excess[r] > EPS_FEAS:
                    return None, iterations     # no row is infeasible
            leaving = int(basis[r])
            sigma = 1.0 if xb[r] < lb_b[r] else -1.0    # +1: leaves at its lower

            # row r of B⁻¹A; moving the duals by step s changes d by s·sigma·alpha
            unit[r] = 1.0
            alpha = self._times_cols(self.factors.btran(unit))
            unit[r] = 0.0
            # the columns whose reduced cost sigma·alpha moves towards zero
            on_neg, on_pos = ((self.lo_ok, self.hi_ok) if sigma > 0
                              else (self.hi_ok, self.lo_ok))
            cand = ((on_neg & (alpha < -_MIN_PIVOT))
                    | (on_pos & (alpha > _MIN_PIVOT))).nonzero()[0]
            found = _dual_ratio_test(sigma * alpha[cand], self.reduced[cand],
                                     span[cand], excess[r], bland)
            if found is None:
                if trusted:
                    return self._result("infeasible", iterations), iterations
                self._confirm()
                self._make_dual_feasible(movable)
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

            iterations += 1
            checked = False
            degenerate_run = degenerate_run + 1 if step <= EPS_COST else 0
            if self.factors.update(r, w):
                self._refactorize()

    def _primal(self, movable, iterations, max_iterations, deadline):
        """Primal phase 2 from a primal feasible basis.

        Returns (result, iterations); result None hands the basis back to
        the dual when it is found primal infeasible beyond EPS_FEAS.
        """
        degenerate_run = 0
        confirmed = False       # a terminal check already recomputed x and d and
                                # only noise-level steps happened since
        fresh = False           # x recomputed by that check, and no step since
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                return self._result("interrupted", iterations), iterations
            if iterations > max_iterations:
                return self._result("stalled", iterations), iterations

            xb = self.x[self.basis]
            lb_b, ub_b = self.lower[self.basis], self.upper[self.basis]
            if np.any((xb < lb_b - EPS_FEAS) | (xb > ub_b + EPS_FEAS)):
                return None, iterations
            if self.reduced is None:
                self._price()

            reduced = self.reduced
            lo_ok, hi_ok = self._sides(movable)
            eligible_up = lo_ok & (reduced < -EPS_COST)
            candidates = eligible_up | (hi_ok & (reduced > EPS_COST))

            if not candidates.any():
                if self.factors.k > 0 and not confirmed:
                    # if the recomputed values only resurface sub-tolerance
                    # noise, the verdict is accepted next time instead of
                    # livelocking
                    self._confirm()
                    confirmed = fresh = True
                    continue
                x = self.x if fresh else None
                return self._result("optimal", iterations, x=x), iterations

            if degenerate_run >= _BLAND_AFTER:
                entering = int(np.flatnonzero(candidates)[0])
            else:
                score = np.where(candidates, reduced * reduced / self.weights, -1.0)
                entering = int(np.argmax(score))
            sigma = 1.0 if eligible_up[entering] else -1.0

            w = self._ftran_column(entering)
            move = -sigma * w

            # two-pass (Harris) ratio test over the basics that move
            idx = np.flatnonzero(np.abs(move) > _MIN_PIVOT)
            rising = move[idx] > 0
            gap = np.where(rising, ub_b[idx] - xb[idx], xb[idx] - lb_b[idx])
            magnitude = np.abs(move[idx])
            ratios = np.maximum(gap, 0.0) / magnitude
            relaxed = (gap + EPS_FEAS) / magnitude
            own_range = self.upper[entering] - self.lower[entering]
            room = float(relaxed.min()) if idx.size else np.inf

            if np.isinf(room) and np.isinf(own_range):
                return self._result("unbounded", iterations), iterations

            iterations += 1
            fresh = False
            if own_range <= room:
                step = own_range
                degenerate_run = degenerate_run + 1 if step <= EPS_PIVOT else 0
                if step > 1e-7:
                    confirmed = False
                self.x[self.basis] = xb + move * own_range
                self.x[entering] = (self.upper[entering] if sigma > 0
                                    else self.lower[entering])
                self.status[entering] = NB_UPPER if sigma > 0 else NB_LOWER
                continue

            admissible = np.flatnonzero(ratios <= room)
            if degenerate_run >= _BLAND_AFTER:
                pick = int(admissible[np.argmin(self.basis[idx[admissible]])])
            else:
                pick = int(admissible[np.argmax(magnitude[admissible])])
            leave_pos = int(idx[pick])
            pivot = w[leave_pos]
            step = float(ratios[pick])
            degenerate_run = degenerate_run + 1 if step <= EPS_PIVOT else 0
            if step > 1e-7:
                confirmed = False       # real progress: future checks re-verify

            leaving = int(self.basis[leave_pos])
            self.x[self.basis] = xb + move * step
            self.x[entering] = self.x[entering] + sigma * step
            self.x[leaving] = self.upper[leaving] if rising[pick] else self.lower[leaving]
            self.status[leaving] = NB_UPPER if rising[pick] else NB_LOWER
            self.status[entering] = BASIC
            self.basis[leave_pos] = entering

            # price update along the pivot row keeps reduced costs current;
            # row r of the new inverse is that of the old over the pivot
            unit = np.zeros(self.m)
            unit[leave_pos] = 1.0 / pivot
            alpha = self._times_cols(self.factors.btran(unit))
            d_q = self.reduced[entering]
            self.reduced -= d_q * alpha
            self.reduced[entering] = 0.0
            self.reduced[leaving] = -d_q / pivot
            gamma_q = max(self.weights[entering], 1.0)
            np.maximum(self.weights, np.square(alpha) * gamma_q, out=self.weights)
            self.weights[leaving] = max(gamma_q / (pivot * pivot), 1.0)
            if self.weights.max() > 1e8:
                self.weights[:] = 1.0

            if self.factors.update(leave_pos, w):
                self._refactorize()

    def _result(self, status, iterations, objective=None, x=None) -> LpResult:
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
        return LpResult(status, x, objective, iterations, basis,
                        self.factorizations, self.start_factors)
