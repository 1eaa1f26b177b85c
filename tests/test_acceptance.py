"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line at its stated tolerance.

Heavy artifacts (the 100-scenario cross-check corpus and the bundled-scenario
missions) are computed once per session and shared across criteria.
"""

import math
import time
from dataclasses import dataclass, replace

import pytest

from scoutplan import (
    GroundTruth,
    SolveOptions,
    build_model,
    compact_variable_count,
    decay_coefficients,
    effective_uncertainty,
    enumerate_optimal,
    evaluate_plan_cost,
    extract_plan,
    hurwicz_value,
    load_scenario_file,
    paper_parity_variable_count,
    plan_to_assignment,
    run_ablation,
    run_mission,
    solve_milp,
)
from scoutplan.cli import main as cli_main
from scoutplan.generate import random_scaling_scenario, random_tiny_scenario
from scoutplan.graphs import EdgeData
from scoutplan.planner import solve_scenario

MISSION_OPTIONS = SolveOptions(node_limit=25)

# pinned regression values for the bundled scenario's ablation
# (computed at the first green run of criterion 2; see the mission options)
PINNED_ROUTE_TRUE = {
    "weights": 98.0,
    "uncertainty": 98.0,
    "scouts-nodecay": 71.0,
    "full": 71.0,
}


def report(criterion: str, passed: bool, detail: str = ""):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} {detail}")
    assert passed, f"{criterion}: {detail}"


@dataclass
class TinyCase:
    seed: int
    scenario: object
    milp_status: str
    milp_objective: float | None
    solution: object
    plan_vars: object
    model: object
    oracle_status: str
    oracle_objective: float | None


@pytest.fixture(scope="session")
def tiny_corpus():
    cases = []
    for seed in range(100):
        scenario = random_tiny_scenario(seed)
        model, plan_vars = build_model(scenario)
        res = solve_milp(model, SolveOptions())
        oracle = enumerate_optimal(scenario)
        cases.append(TinyCase(
            seed, scenario, res.status, res.objective, res.x, plan_vars,
            model, oracle.status, oracle.objective,
        ))
    return cases


@pytest.fixture(scope="session")
def bundled(ablation_path):
    return load_scenario_file(ablation_path)


@pytest.fixture(scope="session")
def ablation_logs(bundled):
    scenario, truth = bundled
    return run_ablation(scenario, truth, MISSION_OPTIONS)


@pytest.fixture(scope="session")
def sweep_logs(bundled):
    scenario, truth = bundled
    logs = {}
    for beta in (0.0, 0.45):
        logs[beta] = run_mission(replace(scenario, optimism=beta), truth,
                                 MISSION_OPTIONS)
    return logs


def test_criterion_1_oracle_equivalence(tiny_corpus):
    start = time.monotonic()
    worst = 0.0
    for case in tiny_corpus:
        if case.oracle_status == "infeasible":
            assert case.milp_status == "infeasible", f"seed {case.seed}"
            continue
        assert case.milp_status == "optimal", f"seed {case.seed}"
        worst = max(worst, abs(case.milp_objective - case.oracle_objective))
    elapsed = time.monotonic() - start
    report("1 (oracle equivalence, 100 scenarios)", worst <= 1e-6,
           f"max |milp - oracle| = {worst:.2e}")


def test_criterion_2_ablation_ordering(ablation_logs):
    costs = {v: log.route_true_cost for v, log in ablation_logs.items()}
    ordered = (costs["full"] <= costs["scouts-nodecay"] + 1e-9
               and costs["scouts-nodecay"] <= costs["uncertainty"] + 1e-9
               and costs["uncertainty"] <= costs["weights"] + 1e-9)
    strict = costs["full"] < costs["weights"] - 1e-9
    pinned = all(abs(costs[v] - PINNED_ROUTE_TRUE[v]) <= 1e-6
                 for v in PINNED_ROUTE_TRUE)
    report("2 (ablation ordering)", ordered and strict and pinned,
           f"route-true costs {costs}")


def test_criterion_3_decay_coefficients():
    exact = decay_coefficients(5) == [1.0, 0.4, 0.2, 0.1, 0.04]
    harmonic5 = sum(1.0 / k for k in range(1, 6))
    identity_err = abs(sum(decay_coefficients(5))
                       - ((5 + 1) * harmonic5 - 5) / 5)
    value_err = abs(sum(decay_coefficients(5)) - 1.74)
    report("3 (decay coefficients)",
           exact and identity_err <= 1e-12 and value_err <= 1e-12,
           f"coefficients {decay_coefficients(5)}, identity error {identity_err:.1e}")


def test_criterion_4_variable_count_formulas():
    ok = True
    detail = ""
    for seed in range(20):
        sc = random_scaling_scenario(seed, n_nodes=4 + seed % 4,
                                     n_edges=4 + seed % 6,
                                     horizon=3 + seed % 3,
                                     scout_steps=2 + seed % 3,
                                     carriers=2, scouts=1 + seed % 2)
        g = sc.graph
        n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
        paper = sc.horizon * (1 + n_l + n_e + n_l * sc.scout_steps
                              + 5 * n_e + n_v)
        untruncated = sc.horizon * (1 + n_l + n_l * sc.scout_steps
                                    + 4 * n_e + n_v)
        deduction = n_l * sc.scout_steps + n_v + 2 * n_e
        model, _ = build_model(sc)
        if paper_parity_variable_count(sc) != paper:
            ok, detail = False, f"paper-parity mismatch at seed {seed}"
            break
        if compact_variable_count(sc) != untruncated - deduction:
            ok, detail = False, f"compact closed form mismatch at seed {seed}"
            break
        if len(model.variables) != compact_variable_count(sc):
            ok, detail = False, f"builder/prediction mismatch at seed {seed}"
            break
    report("4 (variable-count formulas, 20 graphs)", ok, detail or "all match")


def test_criterion_5_linearization_tightness(tiny_corpus):
    worst = 0.0
    checked = 0
    for case in tiny_corpus:
        if case.milp_status != "optimal":
            continue
        sc, pv, x = case.scenario, case.plan_vars, case.solution
        zeta, xi = sc.scout_cost_scale, sc.explore_weight
        for (loc, t), vid in pv.carrier_unc.items():
            ue = sc.graph.uedge_of_location(loc)
            u_hat = sc.edge_uncertainty(ue)
            if u_hat <= 0:
                continue
            phi = x[pv.carrier_edge[(loc, t)]]
            z = x[pv.inspect_ratio[(ue, t)]]
            worst = max(worst, abs(x[vid] - max(0.0, u_hat * (phi - z))))
            checked += 1
        for (ue, t), vid in pv.scout_unc.items():
            u_hat = sc.edge_uncertainty(ue)
            if u_hat <= 0:
                continue
            theta = x[pv.scout_edge[(ue, t)]]
            z = x[pv.inspect_ratio[(ue, t)]]
            worst = max(worst, abs(x[vid] - max(0.0, zeta * u_hat * (theta - z))))
            checked += 1
        credit = decay_coefficients(sc.decay_horizon)
        for (ue, t), vid in pv.inspect_ratio.items():
            u_hat = sc.edge_uncertainty(ue)
            if u_hat * xi <= 0:
                continue
            cap = 0.0
            for t_h in range(max(t - sc.decay_horizon, 1), t):
                if (ue, t_h) in pv.inspected:
                    cap += credit[t - t_h - 1] * x[pv.inspected[(ue, t_h)]]
            worst = max(worst, abs(x[vid] - min(1.0, cap)))
            checked += 1
    report("5 (linearization tightness)", worst <= 1e-6,
           f"max deviation {worst:.2e} over {checked} checks")


def test_criterion_6_hurwicz_endpoints():
    edge = EdgeData(10.0, 2.0, 5.0)
    ok = (hurwicz_value(8.0, 15.0, 0.0) == 15.0
          and hurwicz_value(8.0, 15.0, 1.0) == 8.0
          and effective_uncertainty(edge, 0.0) == 5.0)
    report("6 (Hurwicz endpoints)", ok, "exact equality")


def test_criterion_7_optimism_sweep(sweep_logs):
    def inspections(log):
        return sum(len(step.observations) for step in log.steps)

    risk_averse = inspections(sweep_logs[0.0])
    optimistic = inspections(sweep_logs[0.45])
    report("7 (optimism sweep)", risk_averse >= optimistic,
           f"edge inspections: beta=0 -> {risk_averse}, beta=0.45 -> {optimistic}")


def test_criterion_8_certified_solve(bundled):
    scenario, _ = bundled
    start = time.monotonic()
    outcome = solve_scenario(scenario, SolveOptions(time_limit=120.0))
    elapsed = time.monotonic() - start
    result = outcome.result
    report("8 (certified solve within 120 s)",
           result.status == "optimal" and elapsed <= 120.0,
           f"status {result.status}, gap {result.gap:.3g}, "
           f"nodes {result.nodes}, {elapsed:.0f}s")


def assert_counts_reaggregate(plan, plan_vars, solution):
    counts = plan_to_assignment(plan.carrier_routes, plan.scout_excursions,
                                plan_vars)
    for vid in plan_vars.carrier_at.values():
        assert counts[vid] == round(solution[vid])
    for vid in plan_vars.scout_at.values():
        assert counts[vid] == round(solution[vid])


def test_criterion_9_round_trip(tiny_corpus, bundled):
    worst = 0.0
    for case in tiny_corpus:
        if case.milp_status != "optimal":
            continue
        plan = extract_plan(case.solution, case.plan_vars)
        _, total = evaluate_plan_cost(case.scenario, plan)
        worst = max(worst, abs(total - case.milp_objective))
        assert_counts_reaggregate(plan, case.plan_vars, case.solution)
    # one bundled-scenario solve stands in for the mission-criteria solutions
    # (missions extract plans through this exact path at every step); its
    # plan flies scouts, so their counts are re-aggregated too
    scenario, _ = bundled
    outcome = solve_scenario(scenario, MISSION_OPTIONS)
    _, total = evaluate_plan_cost(scenario, outcome.plan)
    worst = max(worst, abs(total - outcome.result.objective))
    assert outcome.plan.scout_excursions
    assert_counts_reaggregate(outcome.plan, build_model(scenario)[1],
                              outcome.result.x)
    report("9 (plan/objective round trip)", worst <= 1e-9,
           f"max |evaluate(extract(x)) - objective| = {worst:.2e}")


def test_criterion_10_mission_determinism(tmp_path, ablation_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["simulate", str(ablation_path), "-o", str(out),
                         "--deterministic",
                         "--nodes-limit", "25"])
        assert code == 0
    same = ((out_a / "mission.json").read_bytes()
            == (out_b / "mission.json").read_bytes()
            and (out_a / "mission_costs.csv").read_bytes()
            == (out_b / "mission_costs.csv").read_bytes())
    report("10 (deterministic mission logs)", same,
           "byte-identical mission.json and mission_costs.csv")
