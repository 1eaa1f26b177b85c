import math
from dataclasses import replace

import numpy as np
import pytest

from scoutplan import (
    SolveOptions,
    build_model,
    compact_variable_count,
    decay_coefficients,
    extract_plan,
    heuristic_plan_from_relaxation,
    paper_parity_variable_count,
    plan_to_assignment,
    solve_milp,
)
from scoutplan.generate import random_scaling_scenario, random_tiny_scenario
from scoutplan.graphs import EdgeData, Graph
from scoutplan.scenario import Scenario


def small_scenario(**overrides):
    g = Graph(["a", "b", "c"], [
        (0, 1, EdgeData(10.0, 2.0, 5.0, 1.0)),
        (1, 2, EdgeData(12.0, 1.0, 3.0, 1.0)),
    ])
    kwargs = dict(
        graph=g, carrier_count=2, scout_count=1, horizon=2, scout_steps=2,
        scout_cost_scale=0.25, explore_weight=1.0, decay_horizon=5,
        optimism=0.0, launch_scale=0.5,
        starts=((0, 2),), goals=((2, 1),),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestDecayCoefficients:
    def test_five_step_window(self):
        assert decay_coefficients(5) == [1.0, 0.4, 0.2, 0.1, 0.04]

    def test_harmonic_identity(self):
        # sum over the window equals (1/H)((H+1) * harmonic(H) - H)
        for horizon in (1, 2, 3, 5, 8, 13):
            harmonic = sum(1.0 / k for k in range(1, horizon + 1))
            closed = ((horizon + 1) * harmonic - horizon) / horizon
            assert sum(decay_coefficients(horizon)) == pytest.approx(closed, abs=1e-12)

    def test_single_step_memory(self):
        assert decay_coefficients(1) == [1.0]

    def test_strictly_decreasing(self):
        coeffs = decay_coefficients(7)
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decay_coefficients(0)


class TestVariableCounts:
    def test_worked_example_before_truncation(self):
        # 3 nodes, 2 undirected edges, horizon 2, 2 scout sub-steps:
        # n_T (1 + n_L + n_L n_tau + 4 n_E + n_V) = 2 (1 + 7 + 14 + 16 + 3) = 82
        sc = small_scenario()
        g = sc.graph
        n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
        untruncated = sc.horizon * (1 + n_l + n_l * sc.scout_steps + 4 * n_e + n_v)
        assert untruncated == 82

    def test_paper_parity_worked_example(self):
        # 2 (1 + 7 + 4 + 14 + 20 + 3) = 98
        assert paper_parity_variable_count(small_scenario()) == 98

    def test_compact_count_matches_builder(self):
        sc = small_scenario()
        model, _ = build_model(sc)
        assert len(model.variables) == compact_variable_count(sc)

    def test_truncation_deductions(self):
        sc = small_scenario()
        g = sc.graph
        n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
        untruncated = sc.horizon * (1 + n_l + n_l * sc.scout_steps + 4 * n_e + n_v)
        deduction = n_l * sc.scout_steps + n_v + 2 * n_e
        assert compact_variable_count(sc) == untruncated - deduction

    @pytest.mark.parametrize("seed", range(20))
    def test_counts_on_random_graphs(self, seed):
        sc = random_scaling_scenario(seed, n_nodes=4 + seed % 4,
                                     n_edges=5 + seed % 5, horizon=3 + seed % 3,
                                     scout_steps=2 + seed % 3,
                                     carriers=2, scouts=1 + seed % 2)
        g = sc.graph
        n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
        expected_paper = sc.horizon * (
            1 + n_l + n_e + n_l * sc.scout_steps + 5 * n_e + n_v)
        assert paper_parity_variable_count(sc) == expected_paper
        model, _ = build_model(sc)
        assert len(model.variables) == compact_variable_count(sc)

    def test_no_scouts_drops_scout_families(self):
        sc = small_scenario(scout_count=0)
        model, pv = build_model(sc)
        assert not pv.scout_at and not pv.scout_edge and not pv.deployed
        assert not pv.inspected and not pv.scout_unc
        assert len(model.variables) == compact_variable_count(sc)

    def test_index_maps_are_bijective(self):
        sc = small_scenario()
        model, pv = build_model(sc)
        ids = [vid for table in vars(pv).values() if isinstance(table, dict)
               for vid in table.values()]
        assert sorted(ids) == list(range(len(model.variables)))


class TestInspectionRatioConstraints:
    def test_no_scouts_forces_zero_ratio(self):
        sc = small_scenario(scout_count=0, horizon=4)
        model, pv = build_model(sc)
        res = solve_milp(model)
        assert res.status == "optimal"
        for vid in pv.inspect_ratio.values():
            assert res.x[vid] == pytest.approx(0.0, abs=1e-9)

    def test_first_step_ratio_is_zero(self):
        sc = small_scenario(horizon=4, scout_steps=4)
        model, pv = build_model(sc)
        res = solve_milp(model)
        assert res.status == "optimal"
        for (ue, t), vid in pv.inspect_ratio.items():
            if t == 1:
                assert res.x[vid] == pytest.approx(0.0, abs=1e-9)


class TestExtraction:
    def test_unit_flow_single_path(self):
        sc = small_scenario(carrier_count=1, scout_count=0, horizon=4,
                            starts=((0, 1),), goals=((2, 1),))
        model, pv = build_model(sc)
        res = solve_milp(model)
        plan = extract_plan(res.x, pv)
        assert len(plan.carrier_routes) == 1
        assert len(plan.carrier_routes[0]) == 4
        assert plan.carrier_routes[0][0] == 0
        assert plan.carrier_routes[0][-1] == 2

    def test_two_carriers_moving_together(self):
        sc = small_scenario(carrier_count=2, scout_count=0, horizon=4,
                            goals=((2, 2),))
        model, pv = build_model(sc)
        res = solve_milp(model)
        plan = extract_plan(res.x, pv)
        assert len(plan.carrier_routes) == 2
        assert plan.carrier_routes[0] == plan.carrier_routes[1]

    def test_routes_follow_adjacency(self):
        sc = small_scenario(horizon=4, scout_steps=3)
        model, pv = build_model(sc)
        res = solve_milp(model)
        plan = extract_plan(res.x, pv)
        for route in plan.carrier_routes:
            for a, b in zip(route, route[1:]):
                assert b in sc.graph.successors[a]
        for exc in plan.scout_excursions:
            for a, b in zip(exc.walk, exc.walk[1:]):
                assert b in sc.graph.successors[a]

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_reaggregation_reproduces_counts(self, seed):
        sc = random_tiny_scenario(seed)
        model, pv = build_model(sc)
        res = solve_milp(model, SolveOptions())
        if res.status != "optimal":
            pytest.skip("infeasible random instance")
        plan = extract_plan(res.x, pv)
        counts = plan_to_assignment(plan.carrier_routes, plan.scout_excursions, pv)
        for vid in pv.carrier_at.values():
            assert counts[vid] == round(res.x[vid])
        for vid in pv.scout_at.values():
            assert counts[vid] == round(res.x[vid])

    def test_counts_that_are_not_a_flow_are_refused(self):
        sc = small_scenario()
        model, pv = build_model(sc)
        with pytest.raises(AssertionError, match="at carriers step 2: solution counts"):
            extract_plan(np.zeros(len(model.variables)), pv)

    def test_breakdown_sums_to_objective(self):
        sc = small_scenario(horizon=4, scout_steps=4)
        model, pv = build_model(sc)
        res = solve_milp(model)
        plan = extract_plan(res.x, pv)
        assert plan.total_cost == pytest.approx(res.objective, abs=1e-9)
        assert sum(s.total for s in plan.breakdown) == pytest.approx(
            res.objective, abs=1e-9)


class TestMonotonicity:
    def test_extra_scout_never_hurts(self):
        for seed in (3, 11, 19):
            sc = random_tiny_scenario(seed, max_carriers=2, max_scouts=0)
            if sc.carrier_count < 1:
                continue
            base_model, _ = build_model(sc)
            base = solve_milp(base_model)
            if base.status != "optimal":
                continue
            richer = replace(sc, scout_count=min(sc.carrier_count, sc.scout_count + 1))
            richer_model, _ = build_model(richer)
            upgraded = solve_milp(richer_model)
            assert upgraded.status == "optimal"
            assert upgraded.objective <= base.objective + 1e-6


class TestRelaxationRounding:
    @pytest.mark.parametrize("deployed, launches", [
        (0.5, 0), (0.6, 1), (1.5 - 1e-14, 1), (1.5, 1), (1.5 + 1e-14, 1),
        (1.6, 2),
    ])
    def test_deployment_ties_round_down(self, deployed, launches):
        sc = small_scenario(scout_count=2, horizon=3)
        model, pv = build_model(sc)
        x = np.zeros(len(model.variables))
        x[pv.deployed[(0, 1)]] = deployed
        _, excursions = heuristic_plan_from_relaxation(x, pv)
        assert sum(exc.step == 1 for exc in excursions) == launches
