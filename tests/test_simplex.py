import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from scoutplan.simplex import BASIC, NB_LOWER, Basis, LpProblem, LpSolver, _Factors, solve_lp


def boxed_lp(objective, rows, senses, rhs, lower, upper, constant=0.0):
    return LpProblem(
        np.asarray(objective, dtype=float),
        sp.csr_matrix(np.asarray(rows, dtype=float)),
        np.asarray(senses),
        np.asarray(rhs, dtype=float),
        np.asarray(lower, dtype=float),
        np.asarray(upper, dtype=float),
        constant,
    )


class TestBasics:
    def test_single_variable(self):
        prob = boxed_lp([-1.0], [[1.0]], ["L"], [3.0], [0.0], [np.inf])
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(-3.0)

    def test_tight_cover(self):
        prob = boxed_lp([1.0, 1.0], [[1.0, 1.0]], ["G"], [2.0],
                        [0.0, 0.0], [2.0, 2.0])
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)

    def test_infeasible(self):
        prob = boxed_lp([1.0], [[1.0], [1.0]], ["G", "L"], [3.0, 1.0],
                        [0.0], [10.0])
        assert solve_lp(prob).status == "infeasible"

    def test_unbounded(self):
        prob = boxed_lp([-1.0], [[0.0]], ["L"], [1.0], [0.0], [np.inf])
        assert solve_lp(prob).status == "unbounded"

    def test_no_constraints(self):
        prob = boxed_lp([2.0, -1.0], np.zeros((0, 2)), [], [],
                        [0.0, 0.0], [5.0, 5.0])
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-5.0)

    def test_iteration_limit_reports_stalled(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 1, size=(20, 40))
        prob = boxed_lp(rng.uniform(0.1, 1, 40), A, ["G"] * 20,
                        rng.uniform(1, 3, 20), np.zeros(40), np.full(40, 10.0))
        res = solve_lp(prob, max_iterations=2)
        assert res.status == "stalled"
        assert res.x is None

    def test_constant_carried(self):
        prob = boxed_lp([1.0], [[1.0]], ["G"], [1.0], [0.0], [5.0], constant=7.0)
        assert solve_lp(prob).objective == pytest.approx(8.0)


class TestDeterminism:
    def test_identical_bases_and_objective(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 2, size=(30, 60))
        prob = boxed_lp(rng.uniform(-2, 2, 60), A, ["L"] * 30,
                        rng.uniform(1, 4, 30), np.zeros(60), np.full(60, 3.0))
        a, b = solve_lp(prob), solve_lp(prob)
        assert a.objective == b.objective
        assert np.array_equal(a.basis.basic, b.basis.basic)
        assert np.array_equal(a.basis.status, b.basis.status)
        assert a.iterations == b.iterations


class TestFeasibilityOfReportedOptima:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_lps_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        A = np.round(rng.uniform(-3, 3, size=(m, n)) * (rng.random((m, n)) < 0.7), 2)
        c = np.round(rng.uniform(-5, 5, n), 2)
        lower = np.round(rng.uniform(-3, 0, n), 2)
        upper = lower + np.round(rng.uniform(0, 4, n), 2)
        senses = np.array(["L", "G", "E"])[rng.integers(0, 3, m)]
        rhs = np.round(rng.uniform(-4, 4, m), 2)
        prob = boxed_lp(c, A, senses, rhs, lower, upper)
        res = solve_lp(prob)

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i, s in enumerate(senses):
            if s == "L":
                a_ub.append(A[i]); b_ub.append(rhs[i])
            elif s == "G":
                a_ub.append(-A[i]); b_ub.append(-rhs[i])
            else:
                a_eq.append(A[i]); b_eq.append(rhs[i])
        ref = linprog(c,
                      A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=np.array(b_ub) if b_ub else None,
                      A_eq=np.array(a_eq) if a_eq else None,
                      b_eq=np.array(b_eq) if b_eq else None,
                      bounds=list(zip(lower, upper)), method="highs")
        if ref.status == 0:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(ref.fun, abs=1e-6)
            # feasibility of the reported optimum
            lhs = A @ res.x
            for i, s in enumerate(senses):
                if s == "L":
                    assert lhs[i] <= rhs[i] + 1e-6
                elif s == "G":
                    assert lhs[i] >= rhs[i] - 1e-6
                else:
                    assert lhs[i] == pytest.approx(rhs[i], abs=1e-6)
            assert np.all(res.x >= lower - 1e-6)
            assert np.all(res.x <= upper + 1e-6)
        elif ref.status == 2:
            assert res.status == "infeasible"
        elif ref.status == 3:
            assert res.status == "unbounded"


class TestWarmStart:
    def test_bound_change_resolves_fast_and_identically(self):
        rng = np.random.default_rng(11)
        m, n = 40, 80
        A = rng.uniform(0.05, 1.0, size=(m, n))
        prob = boxed_lp(rng.uniform(0.2, 2, n), A, ["G"] * m,
                        rng.uniform(1, 5, m), np.zeros(n), np.full(n, 4.0))
        base = solve_lp(prob)
        assert base.status == "optimal"

        upper = prob.upper.copy()
        upper[int(np.argmax(base.x))] = 0.5
        solver = LpSolver(prob)
        warm = solver.solve(warm_start=base.basis, upper=upper)
        cold = solver.solve(upper=upper)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert warm.iterations < cold.iterations

    def test_warm_start_with_stale_shape_is_ignored(self):
        prob = boxed_lp([1.0], [[1.0]], ["G"], [1.0], [0.0], [5.0])
        junk = Basis(np.array([0, 1, 2]), np.array([2, 2, 2], dtype=np.int8))
        res = solve_lp(prob, warm_start=junk)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_singular_warm_basis_restarts_from_slacks(self):
        # columns 0 and 1 are parallel, so the warm basis {0, 1} is singular
        prob = boxed_lp([1.0, 1.0, 1.0], [[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]],
                        ["G", "G"], [2.0, 3.0], np.zeros(3), np.full(3, 5.0))
        status = np.array([BASIC, BASIC, NB_LOWER, NB_LOWER, NB_LOWER], dtype=np.int8)
        with pytest.raises(RuntimeError):
            _Factors(LpSolver(prob).cols, np.array([0, 1]))
        cold = solve_lp(prob)
        warm = solve_lp(prob, warm_start=Basis(np.array([0, 1]), status))
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.array_equal(warm.basis.basic, cold.basis.basic)

    def test_carried_factors_give_the_fresh_answer_and_stay_unchanged(self):
        rng = np.random.default_rng(3)
        m, n = 30, 60
        prob = boxed_lp(rng.uniform(0.2, 2, n), rng.uniform(0.05, 1.0, size=(m, n)),
                        ["G"] * m, rng.uniform(1, 5, m), np.zeros(n), np.full(n, 4.0))
        base = solve_lp(prob)
        assert base.basis.binv is not None
        upper = prob.upper.copy()
        upper[int(np.argmax(base.x))] = 0.5
        solver = LpSolver(prob)
        carried = solver.solve(warm_start=base.basis, upper=upper)
        again = solver.solve(warm_start=base.basis, upper=upper)
        fresh = solver.solve(warm_start=Basis(base.basis.basic, base.basis.status),
                             upper=upper)
        for res in (again, fresh):
            assert res.status == carried.status == "optimal"
            assert res.objective == pytest.approx(carried.objective, abs=1e-9)
            assert np.array_equal(res.basis.basic, carried.basis.basic)
            assert np.array_equal(res.basis.status, carried.basis.status)
        assert again.iterations == carried.iterations


class TestFactors:
    """FTRAN and BTRAN against dense solves on the current basis."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.m, n = 25, 50
        dense = rng.uniform(-1, 1, size=(self.m, n)) * (rng.random((self.m, n)) < 0.2)
        self.cols = sp.hstack([sp.csc_matrix(dense), sp.eye(self.m, format="csc")],
                              format="csc")
        self.rng = rng

    def pivot(self, factors, basis, j, r=None):
        """Put column j into basis position r (default: its largest FTRAN entry)."""
        w = factors.ftran(self.cols[:, [j]].toarray().ravel())
        if r is None:
            r = int(np.argmax(np.abs(w)))
        assert abs(w[r]) > 1e-3
        basis[r] = j
        return factors.update(r, w)

    def assert_solves_match(self, factors, basis):
        dense = self.cols[:, basis].toarray()
        b = self.rng.normal(size=self.m)
        assert np.allclose(factors.ftran(b), np.linalg.solve(dense, b),
                           rtol=0, atol=1e-9)
        assert np.allclose(factors.btran(b), np.linalg.solve(dense.T, b),
                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("start", ["slack", "lu"])
    def test_solves_after_eta_updates_and_refactorization(self, start):
        basis = np.arange(50, 50 + self.m)
        factors = _Factors(self.cols, None if start == "slack" else basis)
        for k, j in enumerate(self.rng.permutation(50)[:12], start=1):
            self.pivot(factors, basis, j)
            assert factors.k == k
            self.assert_solves_match(factors, basis)
        # the same position replaced twice in a row
        r = int(factors.pos[0])
        for _ in range(2):
            j = next(j for j in np.setdiff1d(np.arange(50), basis)
                     if abs(factors.ftran(self.cols[:, [j]].toarray().ravel())[r]) > 1e-3)
            self.pivot(factors, basis, j, r)
            self.assert_solves_match(factors, basis)
        assert list(factors.pos[factors.k - 2:factors.k]) == [r, r]
        refreshed = _Factors(self.cols, basis)
        assert refreshed.k == 0
        self.assert_solves_match(refreshed, basis)

    def test_update_asks_for_refactorization_once_etas_outweigh_lu(self):
        basis = np.arange(50, 50 + self.m)
        factors = _Factors(self.cols, basis)
        lu_nnz = factors.lu.L.nnz + factors.lu.U.nnz
        for j in self.rng.permutation(50):
            if self.pivot(factors, basis, j):
                break
            assert factors.eta_nnz <= lu_nnz
        assert factors.eta_nnz > lu_nnz
        self.assert_solves_match(factors, basis)

    def test_copy_does_not_share_the_eta_file(self):
        basis = np.arange(50, 50 + self.m)
        factors = _Factors(self.cols, basis)
        self.pivot(factors, basis, 0)
        twin = factors.copy()
        self.pivot(twin, basis.copy(), 1)
        assert (factors.k, twin.k) == (1, 2)
