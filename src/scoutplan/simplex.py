"""Bounded-variable primal simplex.

Relaxation engine for the branch-and-bound solver.  Variables keep their
boxes (no standard-form expansion): nonbasic variables rest at a bound and
the ratio test allows bound flips.  Feasibility is reached with a composite
phase 1 that prices currently-infeasible basic variables with unit costs, so
no artificial columns are ever added and any basis (e.g. a parent node's) can
be warm-started from directly.

Pricing is devex with reduced costs updated incrementally while the phase-2
cost vector is stable; after a run of degenerate steps the rule falls back to
Bland's to guarantee termination.  The ratio test is the two-pass (Harris)
kind: tiny coefficients never block, and the second pass picks the largest
admissible pivot within the tolerance-relaxed step.  The basis is held as a
sparse LU factorization (SuperLU, fixed COLAMD column order) of a start
basis plus a product-form eta file, one eta per pivot (Forrest and Tomlin
(1972), Math. Programming 2; Suhl and Suhl (1990), ORSA J. Computing 2(4)).
It is refactorized once the eta file holds more nonzeros than L and U, and
a terminal verdict is always confirmed on a fresh factorization.  All
tie-breaks take the lowest variable index, so identical inputs give
identical bases.

LpSolver keeps the assembled matrices so branch-and-bound can re-solve the
same problem under per-node bounds without rebuilding anything.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.sparse.linalg import splu

EPS_PIVOT = 1e-9            # steps below this count as degenerate
EPS_FEAS = 1e-6
EPS_COST = 1e-9
_MIN_PIVOT = 1e-7           # coefficients below this never block or pivot

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

    binv holds the basis factorization of the solve that produced the handle
    (or None); a warm start that carries it skips the initial factorization.
    The name is kept from the dense inverse it replaced, because
    perfbench/spans.py reads it to count warm starts that carry factors.
    """

    basic: np.ndarray
    status: np.ndarray
    binv: _Factors | None = None


@dataclass
class LpResult:
    status: str                 # optimal | infeasible | unbounded | stalled
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: Basis | None


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

        self.slack_lower = np.zeros(m)
        self.slack_upper = np.zeros(m)
        for i, sense in enumerate(problem.senses):
            if sense == "L":
                self.slack_upper[i] = np.inf
            elif sense == "G":
                self.slack_lower[i] = -np.inf
            elif sense != "E":
                raise ValueError(f"unknown sense {sense!r}")

        self.cost = np.concatenate([
            np.asarray(problem.objective, dtype=float), np.zeros(m)])
        cols = sp.hstack([problem.rows.tocsc(), sp.eye(m, format="csc")],
                         format="csc")
        self.cols = cols
        self.cols_t = cols.T.tocsr()
        self.col_ptr = cols.indptr
        self.col_idx = cols.indices
        self.col_val = cols.data
        self.rhs = np.asarray(problem.rhs, dtype=float)
        self.constant = problem.constant

    def solve(self, warm_start: Basis | None = None,
              lower: np.ndarray | None = None,
              upper: np.ndarray | None = None,
              max_iterations: int | None = None) -> LpResult:
        """Solve under optionally overridden structural bounds."""
        lo = self.problem.lower if lower is None else lower
        hi = self.problem.upper if upper is None else upper
        if max_iterations is None:
            max_iterations = 50 * (self.m + self.n) + 10_000
        if self.m == 0:
            return _solve_unconstrained(self.cost[: self.n], lo, hi, self.constant)
        return _Run(self, np.concatenate([lo, self.slack_lower]),
                    np.concatenate([hi, self.slack_upper]),
                    warm_start).solve(max_iterations)


def _solve_unconstrained(cost, lower, upper, constant) -> LpResult:
    best = np.where(cost > 0, lower, np.where(cost < 0, upper, 0.0))
    if np.any(np.isinf(best)):
        return LpResult("unbounded", None, None, 0, None)
    x = np.clip(best, lower, upper)
    obj = float(cost @ x) + constant
    return LpResult("optimal", x, obj, 0,
                    Basis(np.empty(0, dtype=int), _initial_status(lower, upper)))


class _Run:
    """One solve: bound vectors, basis state and the pivot loop."""

    def __init__(self, ctx: LpSolver, lower, upper, warm_start: Basis | None):
        self.ctx = ctx
        self.m, self.n, self.total = ctx.m, ctx.n, ctx.total
        self.cost = ctx.cost
        self.cols = ctx.cols
        self.cols_t = ctx.cols_t
        self.rhs = ctx.rhs
        self.lower = lower
        self.upper = upper

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
                try:
                    self.factors = _Factors(self.cols, basic)
                    self.basis, self.status = basic, status
                except RuntimeError:
                    self.basis = None
        if self.basis is None:
            self._slack_restart(_initial_status(lower, upper))

        self.x = self._recompute_x()
        self.reduced = None
        self.reduced_phase = None       # 2 when self.reduced matches phase-2 costs
        self.weights = np.ones(self.total)

    def _slack_restart(self, status=None):
        if status is None:
            status = self.status
            basic_mask = status == BASIC
            lo_ok = np.isfinite(self.lower)
            hi_ok = np.isfinite(self.upper)
            status[basic_mask & lo_ok] = NB_LOWER
            status[basic_mask & ~lo_ok & hi_ok] = NB_UPPER
            status[basic_mask & ~lo_ok & ~hi_ok] = NB_FREE
        self.basis = np.arange(self.n, self.n + self.m)
        status[self.basis] = BASIC
        self.status = status
        self.factors = _Factors(self.cols, None)
        self.weights = np.ones(self.total)
        self.reduced = None

    def _recompute_x(self):
        x = np.where(self.status == NB_UPPER, self.upper, self.lower)
        x[self.status == NB_FREE] = 0.0
        x[self.basis] = 0.0
        x[self.basis] = self.factors.ftran(self.rhs - self.cols @ x)
        return x

    def _refactorize(self):
        try:
            self.factors = _Factors(self.cols, self.basis)
        except RuntimeError:
            self._slack_restart()
        self.x = self._recompute_x()
        self.reduced = None

    def column(self, j):
        lo, hi = self.ctx.col_ptr[j], self.ctx.col_ptr[j + 1]
        return self.ctx.col_idx[lo:hi], self.ctx.col_val[lo:hi]

    def solve(self, max_iterations) -> LpResult:
        iterations = 0
        degenerate_run = 0
        confirmed = False       # a terminal check already refactorized once and
                                # only noise-level steps happened since
        while True:
            if iterations > max_iterations:
                return self._result("stalled", iterations)
            iterations += 1

            xb = self.x[self.basis]
            lb_b, ub_b = self.lower[self.basis], self.upper[self.basis]
            below = xb < lb_b - EPS_FEAS
            above = xb > ub_b + EPS_FEAS
            phase1 = bool(below.any() or above.any())

            if phase1 or self.reduced is None or self.reduced_phase != 2:
                if phase1:
                    # price only the infeasible rows: unit costs of sign +-1
                    y = self.factors.btran(above.astype(float) - below)
                    self.reduced = -(self.cols_t @ y)
                    self.reduced[self.basis] = 0.0
                    self.reduced_phase = 1
                else:
                    y = self.factors.btran(self.cost[self.basis])
                    self.reduced = self.cost - self.cols_t @ y
                    self.reduced_phase = 2

            reduced = self.reduced
            at_lower = self.status == NB_LOWER
            at_upper = self.status == NB_UPPER
            free = self.status == NB_FREE
            movable = (self.upper - self.lower) > EPS_PIVOT
            eligible_up = ((at_lower & movable) | free) & (reduced < -EPS_COST)
            eligible_dn = ((at_upper & movable) | free) & (reduced > EPS_COST)
            candidates = eligible_up | eligible_dn

            if not candidates.any():
                if self.factors.k > 0 and not confirmed:
                    # terminal decisions want a fresh factorization; if the
                    # refresh only resurfaces sub-tolerance noise we accept
                    # the verdict next time instead of livelocking
                    self._refactorize()
                    confirmed = True
                    continue
                if phase1:
                    return self._result("infeasible", iterations)
                return self._result("optimal", iterations)

            if degenerate_run >= _BLAND_AFTER:
                entering = int(np.flatnonzero(candidates)[0])
            else:
                score = np.where(candidates, reduced * reduced / self.weights, -1.0)
                entering = int(np.argmax(score))
            sigma = 1.0 if eligible_up[entering] else -1.0

            rows_e, vals_e = self.column(entering)
            a_q = np.zeros(self.m)
            a_q[rows_e] = vals_e
            w = self.factors.ftran(a_q)
            move = -sigma * w

            # two-pass (Harris) ratio test
            up = move > _MIN_PIVOT
            dn = move < -_MIN_PIVOT
            ratios = np.full(self.m, np.inf)
            relaxed = np.full(self.m, np.inf)
            target_status = np.zeros(self.m, dtype=np.int8)
            idx = np.flatnonzero(up)
            if idx.size:
                blo = below[idx]
                bound = np.where(blo, lb_b[idx], ub_b[idx])
                blocks = ~above[idx]
                ratio = np.where(blocks, (bound - xb[idx]) / move[idx], np.inf)
                ratios[idx] = np.maximum(ratio, 0.0)
                relaxed[idx] = np.where(
                    blocks, (bound + EPS_FEAS - xb[idx]) / move[idx], np.inf)
                target_status[idx] = np.where(blo, NB_LOWER, NB_UPPER)
            idx = np.flatnonzero(dn)
            if idx.size:
                abv = above[idx]
                bound = np.where(abv, ub_b[idx], lb_b[idx])
                blocks = ~below[idx]
                ratio = np.where(blocks, (bound - xb[idx]) / move[idx], np.inf)
                ratios[idx] = np.maximum(ratio, 0.0)
                relaxed[idx] = np.where(
                    blocks, (bound - EPS_FEAS - xb[idx]) / move[idx], np.inf)
                target_status[idx] = np.where(abv, NB_UPPER, NB_LOWER)

            own_range = self.upper[entering] - self.lower[entering]
            room = float(relaxed.min()) if self.m else np.inf

            if np.isinf(room) and np.isinf(own_range):
                if phase1:
                    return self._result("stalled", iterations)
                return LpResult("unbounded", None, None, iterations, None)

            if own_range <= room:
                step = own_range
                degenerate_run = degenerate_run + 1 if step <= EPS_PIVOT else 0
                if step > 1e-7:
                    confirmed = False
                self.x[self.basis] = xb + move * own_range
                self.x[entering] = (self.upper[entering] if sigma > 0
                                    else self.lower[entering])
                self.status[entering] = NB_UPPER if sigma > 0 else NB_LOWER
                if phase1:
                    self.reduced = None     # infeasibility set may have changed
                continue

            admissible = np.flatnonzero(ratios <= room)
            if admissible.size == 0:
                admissible = np.flatnonzero(relaxed <= room + 1e-12)
            if degenerate_run >= _BLAND_AFTER:
                leave_pos = int(admissible[np.argmin(self.basis[admissible])])
            else:
                leave_pos = int(admissible[np.argmax(np.abs(move[admissible]))])
            pivot = w[leave_pos]
            step = max(float(ratios[leave_pos]), 0.0)
            if np.isinf(step):
                step = max(float(relaxed[leave_pos]), 0.0)
            degenerate_run = degenerate_run + 1 if step <= EPS_PIVOT else 0
            if step > 1e-7:
                confirmed = False       # real progress: future checks re-verify

            leaving = int(self.basis[leave_pos])
            self.x[self.basis] = xb + move * step
            self.x[entering] = self.x[entering] + sigma * step
            self.x[leaving] = (self.lower[leaving]
                               if target_status[leave_pos] == NB_LOWER
                               else self.upper[leaving])
            self.status[leaving] = target_status[leave_pos]
            self.status[entering] = BASIC
            self.basis[leave_pos] = entering

            if self.reduced_phase == 2 and not phase1:
                # price update along the pivot row keeps reduced costs current;
                # row r of the new inverse is that of the old over the pivot
                unit = np.zeros(self.m)
                unit[leave_pos] = 1.0 / pivot
                row = self.factors.btran(unit)
                alpha = self.cols_t @ row
                d_q = self.reduced[entering]
                self.reduced -= d_q * alpha
                self.reduced[entering] = 0.0
                self.reduced[leaving] = -d_q / pivot
                gamma_q = max(self.weights[entering], 1.0)
                np.maximum(self.weights, np.square(alpha) * gamma_q,
                           out=self.weights)
                self.weights[leaving] = max(gamma_q / (pivot * pivot), 1.0)
                if self.weights.max() > 1e8:
                    self.weights[:] = 1.0
            else:
                self.reduced = None

            if self.factors.update(leave_pos, w):
                self._refactorize()

    def _result(self, status, iterations) -> LpResult:
        factors = self.factors if status in ("optimal", "infeasible") else None
        basis = Basis(self.basis, self.status, factors)
        if status != "optimal":
            return LpResult(status, None, None, iterations, basis)
        x = self._recompute_x()
        obj = float(self.cost @ x) + self.ctx.constant
        return LpResult(status, x[: self.n].copy(), obj, iterations, basis)


def solve_lp(problem: LpProblem, warm_start: Basis | None = None,
             max_iterations: int | None = None) -> LpResult:
    """Solve to a basic optimal solution or report infeasible/unbounded.

    Hitting the iteration limit returns status "stalled" (never a silently
    wrong answer).  Independent solves may run concurrently; a single solve
    is single-threaded.
    """
    return LpSolver(problem).solve(warm_start=warm_start,
                                   max_iterations=max_iterations)
