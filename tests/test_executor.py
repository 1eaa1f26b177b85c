from dataclasses import replace

import pytest

from scoutplan import (
    BeliefState,
    GroundTruth,
    SolveOptions,
    run_ablation,
    run_mission,
    update_belief,
    variant_scenario,
)
from scoutplan import executor
from scoutplan.executor import VARIANTS
from scoutplan.graphs import EdgeData, Graph
from scoutplan.planner import solve_scenario
from scoutplan.scenario import Scenario


def line_scenario(**overrides):
    g = Graph(["a", "b", "c"], [
        (0, 1, EdgeData(10.0, 2.0, 5.0, 1.0)),
        (1, 2, EdgeData(12.0, 3.0, 6.0, 1.0)),
    ])
    kwargs = dict(
        graph=g, carrier_count=1, scout_count=0, horizon=5, scout_steps=2,
        scout_cost_scale=0.25, explore_weight=0.5, decay_horizon=5,
        optimism=0.0, launch_scale=0.2,
        starts=((0, 1),), goals=((2, 1),),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestUpdateBelief:
    def scenario(self, edge=EdgeData(10.0, 2.0, 5.0), decay_horizon=5):
        g = Graph(["a", "b"], [(0, 1, edge)])
        return line_scenario(graph=g, decay_horizon=decay_horizon, goals=((1, 1),))

    def test_observation_zeroes_uncertainty(self):
        sc = self.scenario(EdgeData(10.0, 2.0, 5.0, 1.5))
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {0: 12.0}, sc)
        assert belief.edges[0] == EdgeData(12.0, 0.0, 0.0, 1.5)
        assert belief.ages[0] == 0

    def test_linear_regrowth(self):
        sc = self.scenario()
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {0: 12.0}, sc)
        belief = update_belief(belief, {}, sc)
        belief = update_belief(belief, {}, sc)
        # age 2 of 5: uncertainty regrows to 2/5 of the original
        assert belief.edges[0].unc_upper == pytest.approx(5.0 * 2 / 5)
        assert belief.ages[0] == 2

    def test_full_regrowth_at_decay_horizon(self):
        sc = self.scenario()
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {0: 12.0}, sc)
        for _ in range(5):
            belief = update_belief(belief, {}, sc)
        assert belief.edges[0].unc_upper == pytest.approx(5.0)

    def test_never_observed_edges_unchanged(self):
        sc = self.scenario()
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {}, sc)
        assert belief == BeliefState.initial(sc.graph)
        assert belief.ages[0] is None

    def test_no_regrowth_mode(self):
        sc = replace(self.scenario(), inspection_decay=False)
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {0: 12.0}, sc)
        for _ in range(6):
            belief = update_belief(belief, {}, sc)
        assert belief.edges[0].unc_upper == 0.0
        assert belief.ages[0] == 6

    def test_regrown_lower_bound_never_exceeds_weight(self):
        sc = self.scenario(EdgeData(10.0, 8.0, 5.0), decay_horizon=2)
        belief = BeliefState.initial(sc.graph)
        belief = update_belief(belief, {0: 2.0}, sc)
        for _ in range(3):
            belief = update_belief(belief, {}, sc)
        assert belief.edges[0].unc_lower <= belief.edges[0].weight


class TestRunMission:
    def test_truth_equal_to_weights_costs_expected(self):
        sc = line_scenario()
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert log.status == "completed"
        # unique cheapest route a -> b -> c pass-through: weights 10 + 12
        assert log.route_true_cost == pytest.approx(22.0)

    def test_goal_reached_early_stops_logging(self):
        sc = line_scenario(goals=((1, 1),), horizon=5)
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert log.status == "completed"
        # one edge: arrive at mission time 3 after two executed steps
        assert len(log.steps) == 2
        assert log.steps[-1].positions_after == (1,)

    def test_goal_at_start_means_no_steps(self):
        sc = line_scenario(goals=((0, 1),))
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert log.status == "completed"
        assert log.steps == ()
        assert log.route_true_cost == 0.0

    def test_unreachable_goal_is_infeasible(self):
        g = Graph(["a", "b", "c"], [(0, 1, EdgeData(5, 0, 0))])
        sc = line_scenario(graph=g, goals=((2, 1),), horizon=3)
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert log.status == "infeasible"

    def test_increments_sum_to_totals(self):
        sc = line_scenario(scout_count=1, scout_steps=4, explore_weight=1.0)
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert log.route_true_cost == pytest.approx(
            sum(s.route_true_increment for s in log.steps))
        assert log.objective_true_cost == pytest.approx(
            sum(s.route_true_increment + s.scout_true_increment
                + s.teaming_increment + s.launch_increment for s in log.steps))

    def test_deterministic_repetition(self):
        sc = line_scenario(scout_count=1, scout_steps=4)
        truth = GroundTruth.constant(sc)
        a = run_mission(sc, truth, SolveOptions())
        b = run_mission(sc, truth, SolveOptions())
        assert a.status == b.status
        assert a.route_true_cost == b.route_true_cost
        assert [s.positions_after for s in a.steps] == [s.positions_after for s in b.steps]
        assert [s.excursions for s in a.steps] == [s.excursions for s in b.steps]

    def test_each_replan_solves_on_the_belief_after_the_step_before(self, monkeypatch):
        sc = line_scenario(scout_count=1, scout_steps=4, explore_weight=1.0)
        truth = GroundTruth(((14.0,) * sc.horizon, (9.0,) * sc.horizon))
        replans = []

        def recorded(current, *args, **kwargs):
            replans.append(current)
            return solve_scenario(current, *args, **kwargs)

        monkeypatch.setattr(executor, "solve_scenario", recorded)
        log = run_mission(sc, truth)
        assert len(log.steps) >= 2 and len(replans) == len(log.steps)
        assert tuple(d for _, _, d in replans[0].graph.uedges) == tuple(
            d for _, _, d in sc.graph.uedges)
        for k, step in enumerate(log.steps[:-1]):
            believed = tuple(d for _, _, d in replans[k + 1].graph.uedges)
            assert believed == step.belief_after.edges
            assert replans[k + 1].horizon == sc.horizon - k - 1

    def test_observations_only_from_scouts(self):
        sc = line_scenario(scout_count=0)
        truth = GroundTruth.constant(sc)
        log = run_mission(sc, truth)
        assert all(not s.observations for s in log.steps)


class TestAblation:
    def test_variants(self):
        sc = line_scenario()
        weights = variant_scenario(sc, "weights")
        assert weights.scout_count == 0
        assert weights.term_weights.uncertainty == 0.0
        unc = variant_scenario(sc, "uncertainty")
        assert unc.scout_count == 0
        assert unc.term_weights.uncertainty == sc.term_weights.uncertainty
        assert variant_scenario(sc, "full") == sc
        nodecay = variant_scenario(sc, "scouts-nodecay")
        assert nodecay == replace(sc, inspection_decay=False)
        assert [v for v in VARIANTS
                if not variant_scenario(sc, v).inspection_decay] == ["scouts-nodecay"]
        with pytest.raises(ValueError):
            variant_scenario(sc, "bogus")

    def test_uncertainty_free_truth_makes_variants_agree(self):
        g = Graph(["a", "b", "c"], [
            (0, 1, EdgeData(10.0, 0.0, 0.0, 1.0)),
            (1, 2, EdgeData(12.0, 0.0, 0.0, 1.0)),
        ])
        sc = line_scenario(graph=g, scout_count=1, scout_steps=4)
        truth = GroundTruth.constant(sc)
        logs = run_ablation(sc, truth)
        costs = {v: log.route_true_cost for v, log in logs.items()}
        assert len(set(round(c, 9) for c in costs.values())) == 1
