import itertools
import logging
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from scoutplan import branch_bound, milp, planner
from scoutplan.branch_bound import (
    MilpResult,
    SolveOptions,
    _branching_variable,
    model_to_lp,
    solve_milp,
)
from scoutplan.formulation import (
    build_model,
    heuristic_plan_from_relaxation,
    plan_to_assignment,
)
from scoutplan.generate import random_scaling_scenario, random_tiny_scenario
from scoutplan.milp import BINARY, CONTINUOUS, INTEGER, LinExpr, Model, Sense
from scoutplan.presolve import Structure, implied_bounds, presolve
from scoutplan.scenario import load_scenario_file
from scoutplan.simplex import LpResult, LpSolver


def knapsack_model():
    values = [9, 7, 6, 4, 3, 2]
    weights = [5, 4, 3, 2, 2, 1]
    m = Model(name="knapsack")
    ids = [m.add_var(BINARY, 0, 1, f"item{i}") for i in range(6)]
    m.objective = LinExpr({vid: -values[i] for i, vid in enumerate(ids)})
    m.add_constraint(LinExpr({vid: weights[i] for i, vid in enumerate(ids)}),
                     Sense.LE, 9.0, "capacity")
    return m, values, weights


def knapsack_brute_force(values, weights, capacity=9.0):
    best = math.inf
    for combo in itertools.product([0, 1], repeat=len(values)):
        if sum(w * c for w, c in zip(weights, combo)) <= capacity:
            best = min(best, -sum(v * c for v, c in zip(values, combo)))
    return best


class TestKnapsack:
    def test_matches_exhaustive_enumeration(self):
        model, values, weights = knapsack_model()
        expected = knapsack_brute_force(values, weights)
        res = solve_milp(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(expected, abs=1e-9)

    def test_incumbent_passes_evaluation(self):
        model, _, _ = knapsack_model()
        res = solve_milp(model)
        check = milp.evaluate(model, res.x)
        assert check.feasible
        assert check.objective == pytest.approx(res.objective)


class TestIntegralRelaxation:
    def test_network_like_model_solves_at_root(self):
        # unit path flow on a line graph: totally unimodular, LP is integral
        m = Model(name="path")
        arcs = [m.add_var(INTEGER, 0, 1, f"arc{i}") for i in range(3)]
        m.objective = LinExpr({a: c for a, c in zip(arcs, [1.0, 2.0, 1.5])})
        m.add_constraint(LinExpr({arcs[0]: 1.0}), Sense.EQ, 1.0, "src")
        m.add_constraint(LinExpr({arcs[0]: 1.0, arcs[1]: -1.0}), Sense.EQ, 0.0, "n1")
        m.add_constraint(LinExpr({arcs[1]: 1.0, arcs[2]: -1.0}), Sense.EQ, 0.0, "n2")
        res = solve_milp(m)
        assert res.status == "optimal"
        assert res.nodes == 1
        assert res.objective == pytest.approx(4.5)


class TestStatuses:
    def test_infeasible(self):
        m = Model()
        x = m.add_var(BINARY, 0, 1, "x")
        m.add_constraint(LinExpr({x: 1.0}), Sense.GE, 2.0, "impossible")
        assert solve_milp(m).status == "infeasible"

    def test_unbounded(self):
        m = Model()
        x = m.add_var(CONTINUOUS, 0, math.inf, "x")
        m.objective = LinExpr({x: -1.0})
        assert solve_milp(m).status == "unbounded"

    def test_node_limit_never_claims_optimal(self):
        model, values, weights = knapsack_model()
        res = solve_milp(model, SolveOptions(node_limit=1))
        assert res.status in ("feasible", "unknown")
        if res.status == "feasible":
            assert res.objective >= res.best_bound - 1e-9

    def test_nan_seed_is_ignored(self):
        model, values, weights = knapsack_model()
        seed = np.zeros(len(model.variables))
        seed[0] = math.nan
        res = solve_milp(model, seeds=[seed])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(knapsack_brute_force(values, weights))
        assert np.all(np.isfinite(res.x))

    def test_mapping_seed_is_read_like_evaluate(self):
        model, values, weights = knapsack_model()
        seed = {vid: 0.0 for vid in range(len(model.variables))}
        seed[0] = 1.0
        res = solve_milp(model, seeds=[seed])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(knapsack_brute_force(values, weights))
        assert milp.evaluate(model, res.x).feasible

    def test_gap_must_be_positive(self):
        for bad in ({"gap": 0.0}, {"gap": -1.0}, {"gap": math.nan},
                    {"node_limit": -1}, {"time_limit": -1.0},
                    {"time_limit": math.nan}):
            with pytest.raises(ValueError):
                SolveOptions(**bad)
        # zero limits stay valid: the planner passes what is left of its time
        SolveOptions(node_limit=0, time_limit=0.0)

    def test_interrupted_node_returns_to_the_pool(self, monkeypatch):
        model, _ = build_model(random_scaling_scenario(0, 5, 7, 5, 3))
        root = LpSolver(presolve(*model_to_lp(model)).problem).solve()
        optimum = solve_milp(model).objective
        calls = []
        solve = LpSolver.solve

        def third_call_runs_out_of_time(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                kwargs["deadline"] = time.monotonic() - 1.0
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(LpSolver, "solve", third_call_runs_out_of_time)
        res = solve_milp(model, SolveOptions(time_limit=1e6))
        assert len(calls) == 3
        assert res.nodes == 2
        assert res.status in ("feasible", "unknown")
        # the pool keeps the interrupted child, whose bound is the root's
        assert res.best_bound == pytest.approx(root.objective, abs=1e-9)
        assert res.best_bound <= optimum

    @staticmethod
    def stall(monkeypatch, stalls):
        """Make the solves whose 1-based call number passes stalls return
        stalled without running; returns each call's keyword arguments."""
        calls = []
        solve = LpSolver.solve

        def stalling(self, *args, **kwargs):
            calls.append(kwargs)
            if stalls(len(calls)):
                return LpResult("stalled", None, None, 0, None)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(LpSolver, "solve", stalling)
        return calls

    @pytest.mark.parametrize("stalled_call", [1, 2])
    def test_stalled_lp_is_retried_cold(self, monkeypatch, stalled_call):
        model, values, weights = knapsack_model()
        plain = solve_milp(model)
        calls = self.stall(monkeypatch, lambda n: n == stalled_call)
        res = solve_milp(model)
        retry = calls[stalled_call]
        assert "warm_start" not in retry and "cutoff" not in retry
        assert res.status == plain.status == "optimal"
        assert res.objective == plain.objective
        if stalled_call == 1:
            # the root starts cold anyway, so the search is the unpatched one
            assert res.x.tolist() == plain.x.tolist()
            assert res.nodes == plain.nodes
            assert res.lp_solves == plain.lp_solves + 1

    def test_lp_stalled_twice_raises(self, monkeypatch):
        model, _, _ = knapsack_model()
        calls = self.stall(monkeypatch, lambda n: True)
        with pytest.raises(RuntimeError, match="stalled"):
            solve_milp(model)
        assert len(calls) == 2


class TestDeterminism:
    def test_identical_runs(self):
        model, _, _ = knapsack_model()
        a = solve_milp(model)
        b = solve_milp(model)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        assert a.nodes == b.nodes
        assert np.array_equal(a.x, b.x)

    def test_work_counters_repeat_exactly(self):
        runs = [solve_milp(build_model(random_scaling_scenario(0, 5, 7, 5, 3))[0])
                for _ in range(2)]
        a, b = ((r.nodes, r.lp_solves, r.lp_pivots, r.factorizations) for r in runs)
        assert a == b
        assert runs[0].lp_pivots > 0 and runs[0].factorizations > 0


class TestBranchingVariable:
    def test_ties_within_int_tol_go_to_the_lowest_id(self):
        x = np.array([0.5 + 2e-16, 0.5])
        assert _branching_variable(x, np.array([0, 1]), 1e-6) == 0

    def test_most_fractional_wins_beyond_the_tolerance(self):
        x = np.array([0.3, 1.0, 2.5, 0.5 - 1e-4])
        assert _branching_variable(x, np.arange(4), 1e-6) == 2

    def test_integral_point_gives_none(self):
        x = np.array([0.0, 1.0 + 1e-9, 0.4])
        assert _branching_variable(x, np.array([0, 1]), 1e-6) is None
        assert _branching_variable(x, np.array([], dtype=np.intp), 1e-6) is None


class TestGap:
    def test_infinite_without_an_incumbent(self):
        assert MilpResult("unknown", None, None, 12.5, 3).gap == math.inf

    def test_objective_minus_bound_on_a_node_limited_solve(self, ablation_scenario):
        result = planner.solve_scenario(ablation_scenario[0],
                                        SolveOptions(node_limit=25)).result
        assert result.status == "feasible"
        assert result.gap == result.objective - result.best_bound > 0


class TestBoundMonotonicity:
    def test_best_bound_nondecreasing_in_log(self, caplog):
        rng = np.random.default_rng(7)
        m = Model(name="assign")
        n = 5
        ids = {}
        for i in range(n):
            for j in range(n):
                ids[i, j] = m.add_var(BINARY, 0, 1, f"x{i}{j}")
        cost = rng.uniform(1, 9, size=(n, n))
        # perturbed assignment problem with a side constraint to force branching
        obj = LinExpr({ids[i, j]: float(cost[i, j]) for i in range(n) for j in range(n)})
        m.objective = obj
        for i in range(n):
            m.add_constraint(LinExpr({ids[i, j]: 1.0 for j in range(n)}),
                             Sense.EQ, 1.0, f"row{i}")
        for j in range(n):
            m.add_constraint(LinExpr({ids[i, j]: 1.0 for i in range(n)}),
                             Sense.EQ, 1.0, f"col{j}")
        m.add_constraint(
            LinExpr({ids[i, j]: float(rng.uniform(0.5, 2)) for i in range(n)
                     for j in range(n)}), Sense.LE, 4.2, "side")

        with caplog.at_level(logging.DEBUG, logger="scoutplan.branch_bound"):
            res = solve_milp(m)
        bounds = []
        for record in caplog.records:
            part = [p for p in record.getMessage().split() if p.startswith("best_bound=")]
            if part:
                bounds.append(float(part[0].split("=")[1]))
        assert res.status in ("optimal", "infeasible")
        assert bounds == sorted(bounds)

    def test_log_line_format(self, caplog):
        model, _, _ = knapsack_model()
        with caplog.at_level(logging.DEBUG, logger="scoutplan.branch_bound"):
            solve_milp(model)
        lines = [r.getMessage() for r in caplog.records]
        assert lines, "expected at least one log line"
        import re
        pattern = re.compile(
            r"^nodes=\d+ best_bound=-?\d+\.\d{6} "
            r"incumbent=(-|-?\d+\.\d{6}) gap=(-|\d+\.\d{3}e[+-]\d{2})$")
        for line in lines:
            assert pattern.match(line), line


class TestRelaxationBound:
    def test_lp_relaxation_bounds_milp(self):
        model, _, _ = knapsack_model()
        prob, _ = model_to_lp(model)
        relax = LpSolver(prob).solve()
        exact = solve_milp(model)
        assert relax.objective <= exact.objective + 1e-6

    def test_relaxation_bounds_planning_model(self):
        from scoutplan import build_model
        from scoutplan.graphs import EdgeData, Graph
        from scoutplan.scenario import Scenario

        g = Graph(["a", "b"], [(0, 1, EdgeData(10.0, 2.0, 5.0, 1.0))])
        sc = Scenario(graph=g, carrier_count=1, scout_count=1, horizon=3,
                      scout_steps=2, scout_cost_scale=0.25, explore_weight=1.0,
                      decay_horizon=5, optimism=0.0, launch_scale=0.5,
                      starts=((0, 1),), goals=((1, 1),))
        model, _ = build_model(sc)
        prob, _ = model_to_lp(model)
        relax = LpSolver(prob).solve()
        exact = solve_milp(model)
        assert relax.status == "optimal" and exact.status == "optimal"
        assert relax.objective <= exact.objective + 1e-6


def forward_unreachable(scenario):
    """(location, step) pairs no carrier can reach from the starts."""
    graph = scenario.graph
    reach = {loc for loc, _ in scenario.starts}
    out = []
    for t in range(1, scenario.horizon + 1):
        out += [(loc, t) for loc in range(graph.n_locations) if loc not in reach]
        reach = {succ for loc in reach for succ in graph.successors[loc]}
    return out


def corpus_scenario(kind, seed):
    if kind == "tiny":
        return random_tiny_scenario(seed)
    if kind == "bundled":
        return load_scenario_file(Path(__file__).parent.parent / "scenarios"
                                  / "ablation8.json")[0]
    return random_scaling_scenario(seed, 5, 7, 5, 3)


def fixed_and_free_model():
    """a is forced to 1, which forces b to 0; c and d stay free."""
    m = Model(name="fixings")
    a = m.add_var(BINARY, 0, 1, "a")
    b = m.add_var(BINARY, 0, 1, "b")
    c = m.add_var(CONTINUOUS, 0, 4, "c")
    d = m.add_var(INTEGER, 0, 5, "d")
    m.objective = LinExpr({a: 2.0, b: 3.0, c: -1.0, d: -1.0})
    m.add_constraint(LinExpr({a: 1.0}), Sense.GE, 1.0, "force")
    m.add_constraint(LinExpr({a: 1.0, b: 1.0}), Sense.LE, 1.0, "pick_one")
    m.add_constraint(LinExpr({c: 1.0, d: 1.0}), Sense.LE, 6.0, "budget")
    m.add_constraint(LinExpr({c: 1.0, d: -1.0}), Sense.GE, -2.0, "balance")
    return m


def doubleton_model():
    """x - y = 0 over integers aggregates and 2u - 3v = 1 does not.  Once
    shut fixes f, c - d + f = 0 moves the continuous c's bounds onto d, and
    p + q - f = 4 moves p's onto q through a negative ratio."""
    m = Model(name="doubletons")
    x = m.add_var(INTEGER, 0, 5, "x")
    y = m.add_var(INTEGER, 0, 5, "y")
    u = m.add_var(INTEGER, 0, 5, "u")
    v = m.add_var(INTEGER, 0, 5, "v")
    c = m.add_var(CONTINUOUS, 1, 3, "c")
    d = m.add_var(CONTINUOUS, 0, 10, "d")
    f = m.add_var(CONTINUOUS, 0, 1, "f")
    p = m.add_var(INTEGER, 0, 3, "p")
    q = m.add_var(INTEGER, 0, 10, "q")
    e = m.add_var(INTEGER, 0, 10, "e")
    m.objective = LinExpr({x: -2.0, y: -1.0, u: -1.0, v: -1.0, d: -1.0,
                           q: -2.0, e: -1.0})
    m.add_constraint(LinExpr({x: 1.0, y: -1.0}), Sense.EQ, 0.0, "same")
    m.add_constraint(LinExpr({u: 2.0, v: -3.0}), Sense.EQ, 1.0, "odd")
    m.add_constraint(LinExpr({c: 1.0, d: -1.0, f: 1.0}), Sense.EQ, 0.0, "link")
    m.add_constraint(LinExpr({f: 1.0}), Sense.LE, 0.0, "shut")
    m.add_constraint(LinExpr({p: 1.0, q: 1.0, f: -1.0}), Sense.EQ, 4.0, "sum")
    m.add_constraint(LinExpr({vid: 1.0 for vid in (x, y, v, d, q, e)}),
                     Sense.LE, 12.0, "cap")
    return m


def highs_solve(problem, int_ids=()):
    """(optimum, x) HiGHS certifies for the LpProblem, integral on int_ids."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as highs_milp

    if not len(problem.objective):
        return problem.constant, np.zeros(0)
    integrality = np.zeros(len(problem.objective))
    integrality[list(int_ids)] = 1
    res = highs_milp(problem.objective,
                     constraints=LinearConstraint(problem.rows, *problem.row_bounds),
                     integrality=integrality,
                     bounds=Bounds(problem.lower, problem.upper),
                     options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return float(res.fun) + problem.constant, res.x


def violation(problem, x):
    """Largest bound or row violation of x in the LpProblem."""
    activity = problem.rows @ x
    row_lo, row_hi = problem.row_bounds
    rows = np.maximum(row_lo - activity, activity - row_hi)
    return max(np.max(problem.lower - x, initial=0.0),
               np.max(x - problem.upper, initial=0.0), np.max(rows, initial=0.0))


CORPUS = [*(("tiny", seed) for seed in range(20)),
          *(("scaling", seed) for seed in range(3)), ("bundled", 0)]


def corpus_model(kind, seed):
    if kind == "doubletons":
        return doubleton_model()
    return build_model(corpus_scenario(kind, seed))[0]


class TestPresolve:
    @pytest.mark.parametrize("kind, seed", CORPUS)
    def test_fixes_every_forward_unreachable_carrier_position(self, kind, seed):
        scenario = corpus_scenario(kind, seed)
        model, plan_vars = build_model(scenario)
        presolved = presolve(*model_to_lp(model))
        assert presolved is not None
        kept = set(presolved.columns.tolist())
        for key in forward_unreachable(scenario):
            vid = plan_vars.carrier_at[key]
            assert vid not in kept, key
            assert presolved.values[vid] == 0.0, key

    @pytest.mark.parametrize("kind, seed", [*CORPUS, ("doubletons", 0)])
    def test_reduced_relaxation_keeps_the_full_optimum(self, kind, seed,
                                                       monkeypatch):
        model = corpus_model(kind, seed)
        problem, int_ids = model_to_lp(model)
        presolved = presolve(problem, int_ids)
        assert presolved is not None
        reduced = LpSolver(presolved.problem).solve()
        assert reduced.status == "optimal"
        # presolve rounds integer bounds, which lifts the relaxation by
        # itself; the reference is the same presolve without aggregation
        monkeypatch.setattr("scoutplan.presolve._pick_doubletons",
                            lambda *args: (np.zeros(0, dtype=int),) * 5)
        unaggregated = presolve(problem, int_ids)
        assert reduced.objective == pytest.approx(
            highs_solve(unaggregated.problem)[0], abs=1e-6)
        # the expanded optimum is a point of the full relaxation, same value
        full = presolved.expand(reduced.x)
        assert violation(problem, full) <= 1e-6
        assert problem.objective @ full + problem.constant == pytest.approx(
            reduced.objective, abs=1e-6)

    @pytest.mark.parametrize("kind, seed", [*CORPUS[:-1], ("doubletons", 0)])
    def test_reduced_integer_optimum_expands_to_a_full_one(self, kind, seed):
        model = corpus_model(kind, seed)
        presolved = presolve(*model_to_lp(model))
        assert presolved is not None
        optimum, x = highs_solve(presolved.problem, presolved.int_ids)
        x[presolved.int_ids] = np.round(x[presolved.int_ids])
        check = milp.evaluate(model, presolved.expand(x))
        assert check.feasible
        assert check.objective == pytest.approx(optimum, abs=1e-6)
        assert check.objective == pytest.approx(highs_optimum(model), abs=1e-6)

    def test_doubleton_equations(self):
        model = doubleton_model()
        ids = {var.name: var.id for var in model.variables}
        presolved = presolve(*model_to_lp(model))
        assert presolved.columns.tolist() == [ids[k] for k in "yuvdqe"]
        assert presolved.int_ids.tolist() == [0, 1, 2, 4, 5]
        # 2u - 3v = 1 is kept as written, and x + y in cap becomes 2y
        assert presolved.problem.rows.toarray().tolist() == [
            [0, 2, -3, 0, 0, 0], [2, 0, 1, 1, 1, 1]]
        assert presolved.problem.rhs.tolist() == [1, 12]
        # x = y, c = d and p = 4 - q
        aggregated = presolved.aggregated.toarray()
        assert aggregated[ids["x"]].tolist() == [1, 0, 0, 0, 0, 0]
        assert aggregated[ids["c"]].tolist() == [0, 0, 0, 1, 0, 0]
        assert aggregated[ids["p"]].tolist() == [0, 0, 0, 0, -1, 0]
        assert presolved.values[[ids["x"], ids["c"], ids["p"]]].tolist() == [0, 0, 4]
        bounds = np.column_stack([presolved.problem.lower, presolved.problem.upper])
        assert bounds[3].tolist() == [1, 3]         # d from c
        assert bounds[4].tolist() == [1, 4]         # q from p
        res = solve_milp(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(highs_optimum(model), abs=1e-9)
        x = dict(zip(ids, res.x))
        assert x["x"] == x["y"] and x["c"] == x["d"] and x["p"] == 4 - x["q"]

    def test_expand_puts_fixed_values_back(self):
        model = fixed_and_free_model()
        presolved = presolve(*model_to_lp(model))
        assert presolved.columns.tolist() == [2, 3]
        assert presolved.int_ids.tolist() == [1]
        assert presolved.problem.rows.shape == (2, 2)
        x = np.array([1.5, 3.0])
        full = presolved.expand(x)
        assert full.tolist() == [1.0, 0.0, 1.5, 3.0]
        # the constant absorbs the fixed columns' objective
        reduced_obj = presolved.problem.objective @ x + presolved.problem.constant
        assert reduced_obj == pytest.approx(milp.evaluate(model, full).objective)
        res = solve_milp(model)
        assert res.status == "optimal"
        assert res.x.tolist()[:2] == [1.0, 0.0]
        assert res.objective == pytest.approx(2.0 - 6.0)
        assert milp.evaluate(model, res.x).feasible

    @pytest.mark.parametrize("delta, value", [(5e-10, 3.00000000025),
                                              (-5e-7, 2.99999975)])
    def test_continuous_bounds_that_meet_fix_their_column(self, delta, value):
        # 1 <= x - y <= 1 + delta with y = 2: x's implied bounds meet within
        # tolerance, or cross by less than FEAS_TOL, and x is fixed between them
        m = Model()
        x = m.add_var(CONTINUOUS, 0, 10, "x")
        y = m.add_var(CONTINUOUS, 2, 2, "y")
        m.add_constraint(LinExpr({x: 1.0, y: -1.0}), Sense.GE, 1.0, "above")
        m.add_constraint(LinExpr({x: 1.0, y: -1.0}), Sense.LE, 1.0 + delta, "below")
        presolved = presolve(*model_to_lp(m))
        assert presolved.columns.tolist() == []
        assert presolved.values[x] == pytest.approx(value, rel=0, abs=1e-15)

    def test_infeasible_bound_system_is_reported(self):
        m = Model()
        x = m.add_var(INTEGER, 0, 3, "x")
        y = m.add_var(INTEGER, 0, 3, "y")
        # x <= 1 - y <= 1 and x >= 2 + y >= 2: the bounds cross, no LP needed
        m.add_constraint(LinExpr({x: 1.0, y: 1.0}), Sense.LE, 1.0, "low")
        m.add_constraint(LinExpr({x: 1.0, y: -1.0}), Sense.GE, 2.0, "high")
        assert presolve(*model_to_lp(m)) is None
        res = solve_milp(m)
        assert res.status == "infeasible" and res.nodes == 0 and res.x is None

    def test_violated_empty_row_is_infeasible(self):
        m = Model()
        x = m.add_var(BINARY, 0, 1, "x")
        y = m.add_var(BINARY, 0, 1, "y")
        m.add_constraint(LinExpr({x: 1.0}), Sense.EQ, 1.0, "fix_x")
        m.add_constraint(LinExpr({x: 1.0}), Sense.LE, 0.5, "after_fix")
        m.add_constraint(LinExpr({y: 1.0}), Sense.LE, 1.0, "free_y")
        assert presolve(*model_to_lp(m)) is None

    @pytest.mark.parametrize("kind, seed", [
        *(("tiny", seed) for seed in range(10)), ("scaling", 0),
    ])
    def test_reduced_root_bound_is_at_least_the_full_one(self, kind, seed):
        model, _ = build_model(corpus_scenario(kind, seed))
        problem, int_ids = model_to_lp(model)
        presolved = presolve(problem, int_ids)
        full = LpSolver(problem).solve()
        if presolved is None:
            assert full.status == "infeasible"
            return
        reduced = LpSolver(presolved.problem).solve()
        assert full.status == reduced.status
        if full.status == "optimal":
            assert reduced.objective >= full.objective - 1e-7

    @pytest.mark.parametrize("kind, seed", [*CORPUS[:6], ("bundled", 0),
                                            ("doubletons", 0)])
    def test_non_canonical_rows_presolve_like_their_canonical_form(self, kind,
                                                                   seed):
        problem, int_ids = model_to_lp(corpus_model(kind, seed))
        assert problem.rows.has_canonical_format
        messy = non_canonical(problem, np.random.default_rng(seed))
        assert not messy.rows.has_canonical_format
        assert presolved_arrays(presolve(messy, int_ids)) == presolved_arrays(
            presolve(problem, int_ids))


def non_canonical(problem, rng):
    """The problem with each row's entries split into two exact halves, one
    explicit zero added and the row's order shuffled."""
    rows = problem.rows
    m, n = rows.shape
    row_of = np.repeat(np.arange(m), np.diff(rows.indptr))
    row_of = np.concatenate([row_of, row_of, np.arange(m)])
    col_of = np.concatenate([rows.indices, rows.indices, rng.integers(0, n, size=m)])
    coef = np.concatenate([rows.data / 2, rows.data / 2, np.zeros(m)])
    order = np.lexsort((rng.random(len(row_of)), row_of))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=m))])
    return replace(problem, rows=sp.csr_matrix((coef[order], col_of[order], indptr),
                                               shape=(m, n)))


def presolved_arrays(presolved):
    """Every array of a Presolved as lists, for exact comparison."""
    problem, aggregated = presolved.problem, presolved.aggregated
    arrays = (problem.objective, problem.rows.indptr, problem.rows.indices,
              problem.rows.data, problem.senses, problem.rhs, problem.lower,
              problem.upper, presolved.columns, presolved.values,
              aggregated.indptr, aggregated.indices, aggregated.data)
    return ([np.asarray(a).tolist() for a in arrays], problem.constant,
            presolved.int_ids.tolist())


class TestImpliedBounds:
    """One activity-and-implied-bound step on a hand-worked example."""

    # x + y <= 3, x - y >= 1, 2x + z = 4 (not live), y + w <= 10, x + z >= 8
    ROWS = sp.csr_matrix(np.array([[1, 1, 0, 0], [1, -1, 0, 0], [2, 0, 1, 0],
                                   [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float))
    ROW_LO = np.array([-np.inf, 1, 4, -np.inf, 8])
    ROW_HI = np.array([3, np.inf, 4, 10, np.inf])
    # x, y in [0, 5], z >= 0, w in [0, 2]: lower bounds, then upper bounds
    BOUNDS = np.array([0, 0, 0, 0, 5, 5, np.inf, 2.0])
    LIVE = np.array([True, True, False, True, True])

    def structure(self, row_hi):
        row_of = np.repeat(np.arange(5), np.diff(self.ROWS.indptr))
        return Structure(row_of, self.ROWS.indices.astype(np.intp), self.ROWS.data,
                         self.ROW_LO, row_hi, 4)

    def test_live_rows_imply_bounds_and_redundant_rows_leave(self):
        bounds = self.BOUNDS.copy()
        live, implied = implied_bounds(self.structure(self.ROW_HI), bounds,
                                       self.LIVE)
        assert bounds.tolist() == self.BOUNDS.tolist()
        # y + w <= 10 holds at its maximum 7 and leaves
        assert live.tolist() == [True, True, False, False, True]
        # x <= 3 and y <= 3 from the first row, x >= 1 and y <= 4 from the
        # second; x + z >= 8 lifts z to 3 but says nothing on x, whose rest
        # is unbounded; 2x + z = 4 is not live, so x <= 2 is not implied
        assert implied.tolist() == [1, 0, 3, 0, 3, 3, np.inf, 2]

    def test_live_row_outside_its_activity_range_is_infeasible(self):
        row_hi = self.ROW_HI.copy()
        row_hi[0] = -1.0            # x + y <= -1 with x, y >= 0
        assert implied_bounds(self.structure(row_hi), self.BOUNDS, self.LIVE) is None
        live = self.LIVE.copy()
        live[0] = False
        assert implied_bounds(self.structure(row_hi), self.BOUNDS, live) is not None


def highs_optimum(model, relaxed=False):
    """The optimum HiGHS certifies on the unreduced model_to_lp lowering, or
    on its LP relaxation when relaxed is set."""
    problem, int_ids = model_to_lp(model)
    return highs_solve(problem, () if relaxed else int_ids)[0]


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(3))
    def test_scaling_optimum_matches_highs(self, seed):
        model, _ = build_model(random_scaling_scenario(seed, 5, 7, 5, 3))
        res = solve_milp(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(highs_optimum(model), abs=1e-6)
        assert milp.evaluate(model, res.x).feasible

    def test_bundled_root_bound_matches_highs(self, ablation_scenario):
        # the inspected_scouted rows lift the root bound from 253.61
        model, _ = build_model(ablation_scenario[0])
        reference = highs_optimum(model, relaxed=True)
        assert reference >= 273.46
        presolved = presolve(*model_to_lp(model))
        root = LpSolver(presolved.problem).solve()
        assert root.status == "optimal"
        assert root.objective == pytest.approx(reference, abs=1e-6)


class TestSearchCost:
    @pytest.mark.parametrize("kind, seed, node_limit", [("tiny", 3, None),
                                                        ("bundled", 0, 25)])
    def test_one_presolve_one_solver_one_lp_per_node(self, kind, seed, node_limit,
                                                    monkeypatch):
        presolves, builds, solves = [], [], []
        run, build, solve = branch_bound.presolve, LpSolver.__init__, LpSolver.solve

        def counted_presolve(*args):
            presolves.append(1)
            return run(*args)

        def counted_build(self, problem):
            builds.append(problem)
            build(self, problem)

        def counted_solve(self, *args, **kwargs):
            solves.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(branch_bound, "presolve", counted_presolve)
        monkeypatch.setattr(LpSolver, "__init__", counted_build)
        monkeypatch.setattr(LpSolver, "solve", counted_solve)
        result = planner.solve_scenario(corpus_scenario(kind, seed),
                                        SolveOptions(node_limit=node_limit)).result
        assert result.status in ("optimal", "feasible")
        assert len(presolves) == 1 and len(builds) == 1
        assert len(solves) == result.nodes == result.lp_solves

    @pytest.mark.parametrize("seed", range(3))
    def test_one_lp_solve_per_node(self, seed, monkeypatch):
        calls = []
        solve = LpSolver.solve

        def counted(self, *args, **kwargs):
            calls.append(solve(self, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(LpSolver, "solve", counted)
        model, _ = build_model(random_scaling_scenario(seed, 5, 7, 5, 3))
        res = solve_milp(model)
        assert res.status == "optimal"
        assert len(calls) == res.nodes == res.lp_solves
        assert res.lp_pivots == sum(lp.iterations for lp in calls)
        assert res.factorizations == sum(lp.factorizations for lp in calls)


def either_model():
    """min x0 + x1 over binaries with x0 + x1 >= 1: two optima of value 1."""
    m = Model(name="either")
    ids = [m.add_var(BINARY, 0, 1, f"x{i}") for i in range(2)]
    m.objective = LinExpr({vid: 1.0 for vid in ids})
    m.add_constraint(LinExpr({vid: 1.0 for vid in ids}), Sense.GE, 1.0, "one")
    return m


def odd_cycle_model():
    """Three pairwise-exclusive [0, 1] columns that must sum to 2: the LP is
    infeasible, but no single row's activity bounds show it to presolve."""
    m = Model(name="odd_cycle")
    ids = [m.add_var(CONTINUOUS, 0, 1, f"x{i}") for i in range(3)]
    for a, b in itertools.combinations(ids, 2):
        m.add_constraint(LinExpr({a: 1.0, b: 1.0}), Sense.LE, 1.0, f"pair{a}{b}")
    m.add_constraint(LinExpr({vid: 1.0 for vid in ids}), Sense.GE, 2.0, "two")
    return m


class TestIncumbentGate:
    def test_ties_go_to_the_first_seed(self):
        model = either_model()
        for first, second in (([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.0])):
            res = solve_milp(model, seeds=[np.array(first), np.array(second)])
            assert res.status == "optimal"
            assert res.x.tolist() == first

    def test_a_strictly_better_later_seed_wins(self):
        model, _, _ = knapsack_model()
        worse, better = np.zeros(6), np.zeros(6)
        worse[5] = better[0] = 1.0
        res = solve_milp(model, SolveOptions(node_limit=0),
                         seeds=[worse, better, worse])
        assert res.status == "feasible" and res.nodes == 0
        assert res.objective == -9.0
        assert res.x.tolist() == better.tolist()

    def test_round_root_gets_the_optimal_root_point_once(self):
        model, values, weights = knapsack_model()
        points = []

        def round_root(x):
            points.append(x.copy())
            return np.zeros(len(x))

        res = solve_milp(model, round_root=round_root)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(knapsack_brute_force(values, weights))
        presolved = presolve(*model_to_lp(model))
        root = LpSolver(presolved.problem).solve()
        assert len(points) == 1 and len(points[0]) == len(model.variables)
        assert np.allclose(points[0], presolved.expand(root.x), rtol=0, atol=1e-12)

    def test_round_root_skips_an_infeasible_or_cut_off_root(self, monkeypatch):
        statuses = []
        solve = LpSolver.solve

        def recorded(self, *args, **kwargs):
            res = solve(self, *args, **kwargs)
            statuses.append(res.status)
            return res

        calls = []
        model = odd_cycle_model()
        assert presolve(*model_to_lp(model)) is not None
        monkeypatch.setattr(LpSolver, "solve", recorded)
        res = solve_milp(model, round_root=calls.append)
        assert res.status == "infeasible" and statuses == ["infeasible"]
        statuses.clear()
        res = solve_milp(either_model(), seeds=[np.array([1.0, 0.0])],
                         round_root=calls.append)
        assert res.status == "optimal" and statuses == ["cutoff"]
        assert calls == []

    def test_root_rounding_is_returned_when_it_is_the_only_candidate(self):
        # tiny seed 170 has two starts, so no structured schedule fits and
        # its root LP is fractional: after one node, the rounding is the
        # incumbent
        scenario = random_tiny_scenario(170)
        model, plan_vars = build_model(scenario)
        assert planner.structured_candidate(plan_vars) == []
        presolved = presolve(*model_to_lp(model))
        root = LpSolver(presolved.problem).solve()
        routes, excursions = heuristic_plan_from_relaxation(
            presolved.expand(root.x), plan_vars)
        rounded = milp.evaluate(model, plan_to_assignment(routes, excursions,
                                                          plan_vars))
        assert rounded.feasible
        result = planner.solve_scenario(scenario, SolveOptions(node_limit=1)).result
        assert result.status == "feasible" and result.nodes == 1
        assert result.objective == rounded.objective
