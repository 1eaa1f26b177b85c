import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from scoutplan import simplex
from scoutplan.simplex import BASIC, NB_LOWER, Basis, LpProblem, LpSolver, _Factors


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
        res = LpSolver(prob).solve()
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(-3.0)

    def test_tight_cover(self):
        prob = boxed_lp([1.0, 1.0], [[1.0, 1.0]], ["G"], [2.0],
                        [0.0, 0.0], [2.0, 2.0])
        res = LpSolver(prob).solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)

    def test_infeasible(self):
        prob = boxed_lp([1.0], [[1.0], [1.0]], ["G", "L"], [3.0, 1.0],
                        [0.0], [10.0])
        assert LpSolver(prob).solve().status == "infeasible"

    def test_unbounded(self):
        prob = boxed_lp([-1.0], [[0.0]], ["L"], [1.0], [0.0], [np.inf])
        assert LpSolver(prob).solve().status == "unbounded"

    def test_no_constraints(self):
        prob = boxed_lp([2.0, -1.0], np.zeros((0, 2)), [], [],
                        [0.0, 0.0], [5.0, 5.0])
        res = LpSolver(prob).solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-5.0)

    def test_iteration_limit_reports_stalled(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 1, size=(20, 40))
        prob = boxed_lp(rng.uniform(0.1, 1, 40), A, ["G"] * 20,
                        rng.uniform(1, 3, 20), np.zeros(40), np.full(40, 10.0))
        res = LpSolver(prob).solve(max_iterations=2)
        assert res.status == "stalled"
        assert res.x is None

    def test_constant_carried(self):
        prob = boxed_lp([1.0], [[1.0]], ["G"], [1.0], [0.0], [5.0], constant=7.0)
        assert LpSolver(prob).solve().objective == pytest.approx(8.0)


class TestDeterminism:
    def test_identical_bases_and_objective(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 2, size=(30, 60))
        prob = boxed_lp(rng.uniform(-2, 2, 60), A, ["L"] * 30,
                        rng.uniform(1, 4, 30), np.zeros(60), np.full(60, 3.0))
        a, b = LpSolver(prob).solve(), LpSolver(prob).solve()
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
        res = LpSolver(prob).solve()

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
        # mixed rows, so the cold dual needs dozens of pivots from the slacks
        prob = random_boxed_lp(11, m=40, n=80)
        base = LpSolver(prob).solve()
        assert base.status == "optimal"

        lower, upper = branched(prob, base, np.random.default_rng(11))
        solver = LpSolver(prob)
        warm = solver.solve(warm_start=base.basis, lower=lower, upper=upper)
        cold = solver.solve(lower=lower, upper=upper)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert cold.iterations > 20
        assert warm.iterations < cold.iterations

    def test_warm_start_with_stale_shape_is_ignored(self):
        prob = boxed_lp([1.0], [[1.0]], ["G"], [1.0], [0.0], [5.0])
        junk = Basis(np.array([0, 1, 2]), np.array([2, 2, 2], dtype=np.int8))
        res = LpSolver(prob).solve(warm_start=junk)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_singular_warm_basis_restarts_from_slacks(self):
        # columns 0 and 1 are parallel, so the warm basis {0, 1} is singular
        prob = boxed_lp([1.0, 1.0, 1.0], [[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]],
                        ["G", "G"], [2.0, 3.0], np.zeros(3), np.full(3, 5.0))
        status = np.array([BASIC, BASIC, NB_LOWER, NB_LOWER, NB_LOWER], dtype=np.int8)
        with pytest.raises(RuntimeError):
            _Factors(LpSolver(prob).cols, np.array([0, 1]))
        cold = LpSolver(prob).solve()
        warm = LpSolver(prob).solve(warm_start=Basis(np.array([0, 1]), status))
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.array_equal(warm.basis.basic, cold.basis.basic)

    def test_carried_factors_give_the_fresh_answer_and_stay_unchanged(self):
        rng = np.random.default_rng(3)
        m, n = 30, 60
        prob = boxed_lp(rng.uniform(0.2, 2, n), rng.uniform(0.05, 1.0, size=(m, n)),
                        ["G"] * m, rng.uniform(1, 5, m), np.zeros(n), np.full(n, 4.0))
        base = LpSolver(prob).solve()
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


def random_boxed_lp(seed, m=20, n=40):
    """A feasible bounded LP with mixed L/G/E rows and boxed columns, most of
    them binary-like, built around a known interior point."""
    rng = np.random.default_rng(seed)
    A = np.round(rng.uniform(-2, 3, size=(m, n)) * (rng.random((m, n)) < 0.4), 2)
    lower = np.zeros(n)
    upper = np.where(rng.random(n) < 0.7, 1.0, np.round(rng.uniform(2, 6, n), 1))
    point = lower + rng.uniform(0.2, 0.8, n) * (upper - lower)
    senses = np.array(["L", "G", "E"])[rng.integers(0, 3, m)]
    activity = A @ point
    rhs = np.where(senses == "L", activity + rng.uniform(0, 1, m),
                   np.where(senses == "G", activity - rng.uniform(0, 1, m), activity))
    return boxed_lp(np.round(rng.uniform(-3, 3, n), 2), A, senses, rhs, lower, upper)


def random_general_lp(seed):
    """A small LP with mixed L/G/E rows whose columns are boxed, bounded on
    one side only or free, with costs of either sign: a cold start finds
    some of them unboxed on the side their cost favours."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 8)), int(rng.integers(3, 10))
    A = np.round(rng.uniform(-3, 3, size=(m, n)) * (rng.random((m, n)) < 0.7), 2)
    lower = np.round(rng.uniform(-3, 0, n), 2)
    upper = lower + np.round(rng.uniform(0, 4, n), 2)
    kind = rng.choice(4, n, p=[0.55, 0.15, 0.15, 0.15])    # boxed, >=, <=, free
    lower[(kind == 2) | (kind == 3)] = -np.inf
    upper[(kind == 1) | (kind == 3)] = np.inf
    senses = np.array(["L", "G", "E"])[rng.integers(0, 3, m)]
    return boxed_lp(np.round(rng.uniform(-5, 5, n), 2), A, senses,
                    np.round(rng.uniform(-4, 4, m), 2), lower, upper)


def highs(prob, lower, upper):
    """(status, objective) of scipy's HiGHS on prob under the given bounds.

    HiGHS gives status 2 both for infeasible LPs and for some feasible
    unbounded ones, so a status 2 is settled by solving again with zero
    costs: the LP is unbounded exactly when that one is feasible.
    """
    A = prob.rows.toarray()
    ub_rows = [(A[i], prob.rhs[i]) if s == "L" else (-A[i], -prob.rhs[i])
               for i, s in enumerate(prob.senses) if s != "E"]
    eq = prob.senses == "E"

    def run(costs):
        return linprog(costs,
                       A_ub=np.array([r for r, _ in ub_rows]) if ub_rows else None,
                       b_ub=np.array([b for _, b in ub_rows]) if ub_rows else None,
                       A_eq=A[eq] if eq.any() else None,
                       b_eq=prob.rhs[eq] if eq.any() else None,
                       bounds=list(zip(lower, upper)), method="highs")

    ref = run(prob.objective)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if ref.status == 2 and run(np.zeros(len(prob.objective))).status == 0:
        status = "unbounded"
    return status, (ref.fun + prob.constant if ref.status == 0 else None)


def branched(prob, base, rng):
    """Bounds of a child: one fractional basic binary-like column rounded
    down or up."""
    lower, upper = prob.lower.copy(), prob.upper.copy()
    frac = [j for j in base.basis.basic if j < len(lower) and upper[j] == 1.0
            and abs(base.x[j] - round(base.x[j])) > 1e-3]
    j = int(frac[int(rng.integers(len(frac)))])
    if rng.random() < 0.5:
        upper[j] = np.floor(base.x[j])
    else:
        lower[j] = np.ceil(base.x[j])
    return lower, upper


@pytest.fixture
def dual_calls(monkeypatch):
    """Records the pivots of every run of the dual simplex."""
    calls = []
    dual = simplex._Run._dual

    def recorded(run, *args, **kwargs):
        result, iterations = dual(run, *args, **kwargs)
        calls.append(iterations)
        return result, iterations

    monkeypatch.setattr(simplex._Run, "_dual", recorded)
    return calls


class TestDualReSolve:
    @pytest.mark.parametrize("seed", range(12))
    def test_child_matches_cold_primal_and_highs(self, seed, dual_calls):
        prob = random_boxed_lp(seed)
        base = LpSolver(prob).solve()
        assert base.status == "optimal"
        lower, upper = branched(prob, base, np.random.default_rng(seed))
        solver = LpSolver(prob)
        cold = solver.solve(lower=lower, upper=upper)
        warm = solver.solve(warm_start=Basis(base.basis.basic, base.basis.status),
                            lower=lower, upper=upper)
        status, objective = highs(prob, lower, upper)
        assert warm.status == cold.status == status
        # the primal phase 2 after the dual confirms optimality without a pivot
        assert warm.iterations == dual_calls[-1]
        if status == "optimal":
            assert warm.objective == pytest.approx(objective, abs=1e-6)
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            assert np.all(warm.x >= lower - 1e-6) and np.all(warm.x <= upper + 1e-6)

    def test_warm_resolve_that_moves_counts_its_pivots(self, dual_calls):
        prob = random_boxed_lp(3)
        base = LpSolver(prob).solve()
        lower, upper = branched(prob, base, np.random.default_rng(0))
        warm = LpSolver(prob).solve(
            warm_start=Basis(base.basis.basic, base.basis.status),
            lower=lower, upper=upper)
        assert dual_calls
        assert warm.status == "optimal"
        assert not np.allclose(warm.x, base.x)
        assert warm.iterations > 0

    def test_infeasible_child_is_reported_infeasible(self, dual_calls):
        # x0 + x1 >= 1.5 over two binaries: fixing x0 at 0 leaves no point
        prob = boxed_lp([1.0, 2.0, 0.5], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                        ["G", "L"], [1.5, 1.8], np.zeros(3), np.ones(3))
        base = LpSolver(prob).solve()
        assert base.status == "optimal"
        upper = prob.upper.copy()
        upper[0] = 0.0
        warm = LpSolver(prob).solve(warm_start=base.basis, upper=upper)
        assert dual_calls
        assert warm.status == "infeasible" == highs(prob, prob.lower, upper)[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_cutoff_only_at_or_below_the_optimum(self, seed, dual_calls):
        prob = random_boxed_lp(seed)
        base = LpSolver(prob).solve()
        lower, upper = branched(prob, base, np.random.default_rng(seed))
        status, objective = highs(prob, lower, upper)
        solver = LpSolver(prob)
        start = Basis(base.basis.basic, base.basis.status)
        reference = base.objective if objective is None else objective
        for cutoff in (reference - 1.0, reference - 1e-4, reference + 1e-4,
                       reference + 1.0):
            res = solver.solve(warm_start=start, lower=lower, upper=upper,
                               cutoff=cutoff)
            if res.status == "cutoff":
                assert status == "infeasible" or objective >= cutoff - 1e-9
                assert res.objective >= cutoff
            else:
                assert res.status == status
        if status == "optimal":
            res = solver.solve(warm_start=start, lower=lower, upper=upper,
                               cutoff=objective - 1.0)
            assert res.status == "cutoff"
        assert dual_calls

    @pytest.mark.parametrize("warm", [False, True])
    def test_crossed_child_bounds_are_infeasible(self, warm):
        # a child's ceil(x_j) above column j's fractional upper bound
        prob = random_boxed_lp(6)
        base = LpSolver(prob).solve()
        j = next(j for j in base.basis.basic if j < len(prob.upper)
                 and np.ceil(base.x[j]) > prob.upper[j])
        lower = prob.lower.copy()
        lower[j] = np.ceil(base.x[j])
        res = LpSolver(prob).solve(warm_start=base.basis if warm else None,
                                   lower=lower)
        assert res.status == "infeasible" == highs(prob, lower, prob.upper)[0]
        assert res.x is None and res.iterations == 0

    @pytest.mark.parametrize("warm", [False, True])
    def test_past_deadline_gives_no_verdict(self, warm):
        prob = random_boxed_lp(5)
        base = LpSolver(prob).solve()
        lower, upper = branched(prob, base, np.random.default_rng(5))
        res = LpSolver(prob).solve(warm_start=base.basis if warm else None,
                                   lower=lower, upper=upper,
                                   deadline=time.monotonic() - 1.0)
        assert res.status == "interrupted"
        assert res.x is None and res.objective is None
        assert res.iterations == 0


def assert_rows_hold(prob, x, tol=1e-6):
    lhs = prob.rows @ x
    assert np.all(lhs[prob.senses == "L"] <= prob.rhs[prob.senses == "L"] + tol)
    assert np.all(lhs[prob.senses == "G"] >= prob.rhs[prob.senses == "G"] - tol)
    assert np.allclose(lhs[prob.senses == "E"], prob.rhs[prob.senses == "E"],
                       rtol=0, atol=tol)


class TestColdStart:
    @pytest.mark.parametrize("seed", [*range(60), 1572])
    def test_shifted_costs_give_the_highs_verdict(self, seed):
        # 51 of seeds 0-59 start with a column unboxed on the side its cost
        # favours, which the dual can only start from with a cost shift:
        # 15 optimal, 22 infeasible and 14 unbounded.  Seed 1572 is feasible
        # and unbounded, and HiGHS reports it with its infeasible status.
        prob = random_general_lp(seed)
        res = LpSolver(prob).solve()
        status, objective = highs(prob, prob.lower, prob.upper)
        assert res.status == status
        if status == "optimal":
            assert res.objective == pytest.approx(objective, abs=1e-6)
            assert_rows_hold(prob, res.x)
            assert np.all(res.x >= prob.lower - 1e-6)
            assert np.all(res.x <= prob.upper + 1e-6)

    def test_columns_start_at_the_bound_their_cost_favours(self):
        prob = boxed_lp([-1.0, 2.0, -3.0], [[1.0, 1.0, 1.0]], ["L"], [10.0],
                        [0.0, -1.0, -np.inf], [4.0, 5.0, 2.0])
        res = LpSolver(prob).solve(max_iterations=0)
        assert res.status == "optimal" and res.iterations == 0
        assert list(res.x) == [4.0, -1.0, 2.0]


class TestResidualConfirm:
    @pytest.mark.parametrize("child", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_carried_factors_give_the_highs_verdict(self, seed, child):
        # the root hand-off re-solves under the same bounds; a child under
        # one branching bound change
        prob = random_boxed_lp(seed)
        base = LpSolver(prob).solve()
        factors = base.basis.binv.copy()
        assert factors.k > 0
        # perturb the last eta row outside the positions the pivots used
        off = np.setdiff1d(np.arange(factors.m), factors.pos[:factors.k])
        factors.etas[factors.k - 1, off] += 1e-3
        lower, upper = prob.lower, prob.upper
        if child:
            lower, upper = branched(prob, base, np.random.default_rng(seed))
        start = Basis(base.basis.basic, base.basis.status, factors)
        res = LpSolver(prob).solve(warm_start=start, lower=lower, upper=upper)
        status, objective = highs(prob, lower, upper)
        assert res.status == status
        if status == "optimal":
            assert res.objective == pytest.approx(objective, abs=1e-6)
            assert_rows_hold(prob, res.x)


def sibling_bounds(prob, base):
    """The floor and ceil children's bounds on the first fractional basic
    binary-like column of base."""
    j = next(j for j in base.basis.basic if j < len(prob.upper)
             and prob.upper[j] == 1.0 and abs(base.x[j] - round(base.x[j])) > 1e-3)
    floor_hi, ceil_lo = prob.upper.copy(), prob.lower.copy()
    floor_hi[j], ceil_lo[j] = np.floor(base.x[j]), np.ceil(base.x[j])
    return [(prob.lower, floor_hi), (ceil_lo, prob.upper)]


def assert_same_solve(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert a.objective == b.objective
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        assert a.x.tobytes() == b.x.tobytes()
    assert a.basis.basic.tobytes() == b.basis.basic.tobytes()
    assert a.basis.status.tobytes() == b.basis.status.tobytes()


class TestSharedStartFactors:
    @pytest.mark.parametrize("ceil_first", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_sibling_on_the_shared_factors_solves_bit_identically(
            self, seed, ceil_first, monkeypatch):
        prob = random_boxed_lp(seed)
        base = LpSolver(prob).solve()
        children = sibling_bounds(prob, base)[::-1 if ceil_first else 1]
        solver = LpSolver(prob)
        fresh = [solver.solve(warm_start=Basis(base.basis.basic, base.basis.status),
                              lower=lo, upper=hi) for lo, hi in children]

        shared = Basis(base.basis.basic.copy(), base.basis.status.copy())
        first = solver.solve(warm_start=shared, lower=children[0][0],
                             upper=children[0][1])
        assert shared.binv is None and first.factorizations >= 1
        assert first.start_factors is not None and first.start_factors.k == 0
        shared.binv = first.start_factors
        built = []
        init = _Factors.__init__

        def counted(factors, cols, basic):
            built.append(basic)
            init(factors, cols, basic)

        monkeypatch.setattr(_Factors, "__init__", counted)
        second = solver.solve(warm_start=shared, lower=children[1][0],
                              upper=children[1][1])
        # no factorization of the start basis; a refactorization later in
        # the solve is counted like any other
        assert not any(np.array_equal(basic, shared.basic) for basic in built)
        assert second.factorizations == len(built)
        assert second.start_factors is None
        for res, ref in zip((first, second), fresh):
            assert_same_solve(res, ref)
        assert second.factorizations == fresh[1].factorizations - 1
        # the handle is left as it was given
        assert shared.binv is first.start_factors and shared.binv.k == 0
        assert np.array_equal(shared.basic, base.basis.basic)
        assert np.array_equal(shared.status, base.basis.status)


class TestBlockingMasks:
    @pytest.mark.parametrize("seed", range(8))
    def test_kept_masks_equal_fresh_ones_at_every_ratio_test(self, seed, monkeypatch):
        runs, checks = [], []
        dual, ratio_test = simplex._Run._dual, simplex._dual_ratio_test

        def tracked(run, *args, **kwargs):
            runs.append(run)
            try:
                return dual(run, *args, **kwargs)
            finally:
                runs.pop()

        def checked(*args):
            run = runs[-1]
            lo_ok, hi_ok = run._sides((run.upper - run.lower) > simplex.EPS_PIVOT)
            assert np.array_equal(run.lo_ok, lo_ok) and np.array_equal(run.hi_ok, hi_ok)
            checks.append(1)
            return ratio_test(*args)

        monkeypatch.setattr(simplex._Run, "_dual", tracked)
        monkeypatch.setattr(simplex, "_dual_ratio_test", checked)
        prob = random_boxed_lp(seed, m=30, n=60)
        base = LpSolver(prob).solve()
        lower, upper = branched(prob, base, np.random.default_rng(seed))
        LpSolver(prob).solve(warm_start=base.basis, lower=lower, upper=upper)
        LpSolver(random_general_lp(seed)).solve()
        assert len(checks) > 20


def ratio_test_by_groups(slope_dir, reduced, span, slope, bland):
    """The reference for _dual_ratio_test: every Harris group taken in a
    loop that keeps a mask of the breakpoints not yet passed."""
    magnitude = np.abs(slope_dir)
    ratio = np.maximum(reduced / -slope_dir, 0.0)
    relaxed = ratio if bland else ratio + simplex.EPS_COST / magnitude
    remaining = np.ones(len(ratio), dtype=bool)
    passed = []
    while remaining.any():
        group = remaining & (ratio <= relaxed[remaining].min())
        remaining &= ~group
        members = np.flatnonzero(group)
        after = slope - magnitude[members] @ span[members]
        if after >= 0 and remaining.any():
            passed.append(members)
            slope = after
            continue
        if after > simplex.EPS_FEAS:
            return None
        pick = int(members[0] if bland else members[np.argmax(magnitude[members])])
        flips = np.concatenate(passed) if passed else members[:0]
        return pick, flips, float(ratio[pick])
    return None


# breakpoints from small sets, so that ratios tie exactly or within the
# Harris tolerance, and spans and slopes that pass several groups
_breakpoints = st.lists(st.tuples(
    st.sampled_from([-3.0, -1.0, -0.5, -1e-6, 1e-6, 0.5, 2.0]),    # slope_dir
    st.sampled_from([0.0, 1e-10, 0.5, 1.0, 1.0 + 1e-10, 2.0, -1e-12]),  # ratio
    st.sampled_from([0.0, 0.25, 1.0, 3.0, np.inf])), max_size=12)        # span


class TestDualRatioTest:
    @given(_breakpoints, st.sampled_from([0.0, 1e-7, 0.3, 1.0, 2.5, 10.0, 1e3]),
           st.booleans())
    @settings(max_examples=400, deadline=None)
    @example([], 1.0, False)                            # no candidate
    @example([(-1.0, 1.0, 1.0)], 5.0, False)            # cannot be made feasible
    @example([(-1.0, 1.0, 1.0), (-1.0, 2.0, 1.0), (-1.0, 3.0, 1.0),
              (-1.0, 4.0, 1.0)], 2.5, False)            # two flip passes
    @example([(-1.0, 1.0, 1.0), (-2.0, 1.0, 1.0), (0.5, 1.0 + 1e-10, 1.0),
              (-3.0, 2.0, 1.0)], 0.5, True)             # ties, Bland
    def test_matches_the_group_loop(self, points, slope, bland):
        slope_dir = np.array([p[0] for p in points])
        reduced = np.array([-p[0] * p[1] for p in points])
        span = np.array([p[2] for p in points])
        got = simplex._dual_ratio_test(slope_dir, reduced, span, slope, bland)
        want = ratio_test_by_groups(slope_dir, reduced, span, slope, bland)
        if want is None:
            assert got is None
            return
        (pick, flips, step), (ref_pick, ref_flips, ref_step) = got, want
        assert pick == ref_pick
        assert step == ref_step
        assert flips.tolist() == ref_flips.tolist()
