from dataclasses import replace

import pytest

from scoutplan import (
    Excursion,
    SolveOptions,
    build_model,
    enumerate_optimal,
    evaluate_plan_cost,
    extract_plan,
    plan_to_assignment,
    solve_milp,
    structured_candidate,
)
from scoutplan import milp, oracle
from scoutplan.executor import variant_scenario
from scoutplan.generate import random_scaling_scenario, random_tiny_scenario
from scoutplan.graphs import EdgeData, Graph
from scoutplan.scenario import Scenario, TermWeights


def two_node_scenario(**overrides):
    g = Graph(["a", "b"], [(0, 1, EdgeData(10.0, 2.0, 5.0, 1.0))])
    kwargs = dict(
        graph=g, carrier_count=1, scout_count=0, horizon=3, scout_steps=2,
        scout_cost_scale=0.25, explore_weight=0.0, decay_horizon=5,
        optimism=0.0, launch_scale=0.0,
        starts=((0, 1),), goals=((1, 1),),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestEvaluatePlanCost:
    def test_null_plan_pays_only_global_uncertainty(self):
        sc = two_node_scenario(explore_weight=1.0, goals=((0, 1),))
        routes = ((0, 0, 0),)
        steps, total = evaluate_plan_cost(sc, routes)
        # effective uncertainty is 5; one edge; three steps
        assert total == pytest.approx(3 * 5.0)
        assert all(s.time_cost == 0 for s in steps)
        assert all(s.traversal_cost == 0 for s in steps)

    def test_single_crossing_hand_value(self):
        sc = two_node_scenario()
        edge = sc.graph.edge_location(0, 1)
        routes = ((edge, 1, 1),)       # on the edge at step 1, then at b
        steps, total = evaluate_plan_cost(sc, routes)
        first = steps[0]
        assert first.traversal_cost == pytest.approx(10.0 - 1.0)   # weight - discount
        assert first.uncertainty_cost == pytest.approx(5.0)        # effective unc
        assert first.time_cost == pytest.approx(1.0)
        assert steps[1].total == 0 and steps[2].total == 0
        assert total == pytest.approx(15.0)

    def test_inspected_edge_contributes_nothing_next_step(self):
        g = Graph(["a", "b"], [(0, 1, EdgeData(10.0, 2.0, 5.0, 0.0))])
        sc = Scenario(graph=g, carrier_count=1, scout_count=1, horizon=4,
                      scout_steps=4, scout_cost_scale=0.0, explore_weight=1.0,
                      decay_horizon=5, optimism=0.0, launch_scale=0.0,
                      starts=((0, 1),), goals=((1, 1),))
        edge_ab = g.edge_location(0, 1)
        edge_ba = g.edge_location(1, 0)
        walk = (0, edge_ab, edge_ba, 0)
        routes = ((0, 0, edge_ab, 1),)
        excursions = (Excursion(1, walk),)
        steps, _ = evaluate_plan_cost(sc, routes, excursions)
        # inspected at step 1: full credit at step 2, carrier crosses at step 3
        # with credit 0.4, so uncertainty cost is (1 - 0.4) * 5 twice over
        assert steps[1].uncertainty_cost == pytest.approx(0.0)
        assert steps[2].uncertainty_cost == pytest.approx(2 * 0.6 * 5.0)
        # without decay the step-1 inspection keeps full credit at step 3
        steps, _ = evaluate_plan_cost(replace(sc, inspection_decay=False),
                                      routes, excursions)
        assert steps[2].uncertainty_cost == pytest.approx(0.0)

    def test_rejects_non_adjacent_move(self):
        sc = two_node_scenario()
        with pytest.raises(ValueError, match="adjacent"):
            evaluate_plan_cost(sc, ((0, 1, 1),))

    def test_rejects_deployment_without_carrier(self):
        sc = two_node_scenario(scout_count=1, horizon=4, scout_steps=4)
        edge_ab = sc.graph.edge_location(0, 1)
        edge_ba = sc.graph.edge_location(1, 0)
        walk = (1, edge_ba, edge_ab, 1)
        routes = ((0, 0, 0, 0),)
        with pytest.raises(ValueError, match="exceeds carriers"):
            evaluate_plan_cost(sc, routes, (Excursion(1, walk),))


class TestEnumerate:
    def test_two_node_optimum_by_hand(self):
        sc = two_node_scenario()
        res = enumerate_optimal(sc)
        assert res.status == "optimal"
        # cross immediately: C_W = 9 at t=2, C_T = 0.1... weights are 1:
        # crossing at t=2 costs time 2, stay at b at t=3
        # route (a, a->b, b): traversal 9, uncertainty 5, time 2
        assert res.objective == pytest.approx(9 + 5 + 2)

    def test_disconnected_goal_reports_infeasible(self):
        g = Graph(["a", "b", "c"], [(0, 1, EdgeData(5, 0, 0))])
        sc = two_node_scenario(graph=g, goals=((2, 1),))
        assert enumerate_optimal(sc).status == "infeasible"

    def test_guard_refuses_large_spaces(self, monkeypatch):
        sc = random_tiny_scenario(0, max_nodes=4, horizon=3)
        monkeypatch.setattr(oracle, "MAX_STATES", 1)
        with pytest.raises(ValueError, match="guard"):
            enumerate_optimal(sc)

    @pytest.mark.parametrize("seed", range(25))
    def test_agreement_with_milp(self, seed):
        sc = random_tiny_scenario(seed)
        model, pv = build_model(sc)
        milp_res = solve_milp(model, SolveOptions())
        oracle = enumerate_optimal(sc)
        if oracle.status == "infeasible":
            assert milp_res.status == "infeasible"
            return
        assert milp_res.status == "optimal"
        assert milp_res.objective == pytest.approx(oracle.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", [1001, 1004, 1007, 1013])
    def test_agreement_with_flying_scouts(self, seed):
        sc = random_tiny_scenario(seed, max_nodes=3, max_edges=3,
                                  max_carriers=1, max_scouts=1,
                                  horizon=4, scout_steps=4)
        model, pv = build_model(sc)
        milp_res = solve_milp(model, SolveOptions())
        oracle = enumerate_optimal(sc)
        if oracle.status == "infeasible":
            assert milp_res.status == "infeasible"
            return
        assert milp_res.objective == pytest.approx(oracle.objective, abs=1e-6)

    def test_scouting_scenario_uses_scouts(self):
        g = Graph(["0", "1", "2"], [
            (0, 1, EdgeData(20.0, 8.0, 10.0, 0.0)),
            (1, 2, EdgeData(20.0, 8.0, 10.0, 0.0)),
            (0, 2, EdgeData(25.0, 12.0, 12.0, 0.0)),
        ])
        sc = Scenario(graph=g, carrier_count=1, scout_count=1, horizon=4,
                      scout_steps=4, scout_cost_scale=0.1, explore_weight=1.0,
                      decay_horizon=5, optimism=0.0, launch_scale=0.1,
                      starts=((0, 1),), goals=((2, 1),))
        oracle = enumerate_optimal(sc)
        model, pv = build_model(sc)
        milp_res = solve_milp(model, SolveOptions())
        assert oracle.scout_excursions      # scouts pay off here
        assert milp_res.objective == pytest.approx(oracle.objective, abs=1e-6)


def assert_round_trip(scenario, plan_vars, x, objective):
    """extract_plan's breakdown equals evaluate_plan_cost field by field."""
    plan = extract_plan(x, plan_vars)
    steps, total = evaluate_plan_cost(scenario, plan)
    assert total == pytest.approx(objective, abs=1e-9)
    assert plan.total_cost == pytest.approx(objective, abs=1e-9)
    assert len(plan.breakdown) == len(steps)
    for got, want in zip(plan.breakdown, steps):
        assert got.step == want.step
        for field in ("time_cost", "traversal_cost", "uncertainty_cost",
                      "launch_cost"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), abs=1e-9), (got.step, field)
    return plan


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_extracted_plan_cost_matches_ir_objective(self, seed):
        sc = random_tiny_scenario(seed)
        model, pv = build_model(sc)
        res = solve_milp(model, SolveOptions())
        if res.status != "optimal":
            pytest.skip("infeasible instance")
        assert_round_trip(sc, pv, res.x, res.objective)

    # the tiny optima above never deploy a scout; these plans do, so a
    # mis-filed launch or scout term shows in their breakdown

    @staticmethod
    def assert_structured_seed_flies_scouts(sc):
        model, pv = build_model(sc)
        # the schedule the incumbent gate keeps: the first of the cheapest
        checks = [(milp.evaluate(model, x), x) for x in structured_candidate(pv)]
        check, x = min(((c, x) for c, x in checks if c.feasible),
                       key=lambda pair: pair[0].objective)
        plan = assert_round_trip(sc, pv, x, check.objective)
        assert plan.scout_excursions
        assert any(step.launch_cost > 0 for step in plan.breakdown)

    def test_bundled_structured_seed_flies_scouts(self, ablation_scenario):
        self.assert_structured_seed_flies_scouts(ablation_scenario[0])

    @pytest.mark.parametrize("seed, size", [
        (0, (5, 7, 6, 4)), (1, (4, 5, 5, 4)), (2, (4, 5, 5, 4)), (3, (4, 5, 5, 4)),
    ])
    def test_scaling_structured_seed_flies_scouts(self, seed, size):
        self.assert_structured_seed_flies_scouts(random_scaling_scenario(seed, *size))


def nodecay_tiny_scenario(seed):
    """(decay model, the same scenario with inspection_decay off)"""
    base = random_tiny_scenario(seed, horizon=4, scout_steps=4,
                                max_nodes=3, max_edges=3)
    return base, replace(base, inspection_decay=False)


class TestNoDecay:
    def test_nodecay_model_matches_oracle(self):
        # inspection credit that never expires: the solver's optimum equals
        # the enumerated one, and the extracted plan prices to the objective
        enumerated, differ = 0, []
        for seed in range(200):
            base, sc = nodecay_tiny_scenario(seed)
            try:
                oracle = enumerate_optimal(sc)
            except ValueError:
                continue        # beyond the enumeration guard
            enumerated += 1
            model, pv = build_model(sc)
            res = solve_milp(model, SolveOptions())
            assert res.status == oracle.status, seed
            if res.status != "optimal":
                continue
            assert res.objective == pytest.approx(oracle.objective, abs=1e-6), seed
            assert_round_trip(sc, pv, res.x, res.objective)
            if abs(enumerate_optimal(base).objective - oracle.objective) > 1e-9:
                differ.append(seed)
        assert enumerated >= 150
        # the setting matters on this corpus, so the check has teeth
        assert differ


class TestPlanToAssignment:
    """plan_to_assignment gives a plan its cost-minimal derived values: the
    assignment is feasible and its objective is the plan's priced cost."""

    def test_enumerated_optima_price_to_their_cost(self):
        corpus = [random_tiny_scenario(seed) for seed in range(200)]
        corpus += [nodecay_tiny_scenario(seed)[1] for seed in range(200)]
        checked = 0
        for sc in corpus:
            try:
                oracle = enumerate_optimal(sc)
            except ValueError:
                continue        # beyond the enumeration guard
            if oracle.status != "optimal":
                continue
            model, pv = build_model(sc)
            x = plan_to_assignment(oracle.carrier_routes, oracle.scout_excursions, pv)
            check = milp.evaluate(model, x)
            assert check.feasible, check.violations
            _, total = evaluate_plan_cost(sc, oracle.carrier_routes,
                                          oracle.scout_excursions)
            assert check.objective == pytest.approx(total, abs=1e-9)
            checked += 1
        assert checked >= 350

    @pytest.mark.parametrize("variant", ["full", "scouts-nodecay"])
    def test_structured_candidates_price_to_their_cost(self, ablation_scenario,
                                                       variant):
        sc = variant_scenario(ablation_scenario[0], variant)
        model, pv = build_model(sc)
        candidates = structured_candidate(pv)
        assert len(candidates) > 80
        for x in candidates:
            check = milp.evaluate(model, x)
            assert check.feasible, check.violations
            _, total = evaluate_plan_cost(sc, extract_plan(x, pv))
            assert check.objective == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("scouts", [0, 1])
    def test_start_at_the_goal_is_one_wait(self, scouts):
        sc = two_node_scenario(carrier_count=2, scout_count=scouts, scout_steps=4,
                               starts=((0, 2),), goals=((0, 1),))
        model, pv = build_model(sc)
        [x] = structured_candidate(pv)
        assert milp.evaluate(model, x).feasible
        assert extract_plan(x, pv).carrier_routes == ((0, 0, 0),) * 2
