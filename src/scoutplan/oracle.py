"""Brute-force reference optimizer and direct cost evaluator.

Everything here works on explicit per-robot trajectories and evaluates the
cost terms directly from their definitions, bypassing the MILP entirely; the
point is to stay simple enough to trust.  Enumeration deduplicates
interchangeable robots and refuses problems whose joint trajectory space
exceeds a guard threshold.

Indicator series are recomputed from trajectories: an edge counts as
inspected when scouts actually crossed it inside the inspection-credit
window (any earlier step when the scenario's inspection_decay is off, each
inspection then giving full credit), and the inspection ratio takes its
maximal value, which is what any cost-minimizing solution achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .formulation import Excursion, StepCost, decay_coefficients
from .scenario import Scenario


MAX_STATES = 1e8       # joint trajectories enumerate_optimal agrees to visit


@dataclass(frozen=True)
class OracleResult:
    status: str                       # optimal | infeasible
    objective: float | None
    carrier_routes: tuple[tuple[int, ...], ...] = ()
    scout_excursions: tuple[Excursion, ...] = ()


def evaluate_plan_cost(scenario: Scenario, carrier_routes, scout_excursions=()):
    """Price a plan directly from the cost definitions.

    Accepts either explicit (routes, excursions) or a Plan in place of
    carrier_routes.  Returns (per-step breakdown, total).  Raises ValueError
    on structurally invalid trajectories (wrong lengths, non-adjacent moves,
    deployments away from carriers).
    """
    if hasattr(carrier_routes, "carrier_routes"):
        plan = carrier_routes
        carrier_routes, scout_excursions = plan.carrier_routes, plan.scout_excursions
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    tw = scenario.term_weights
    zeta, xi = scenario.scout_cost_scale, scenario.explore_weight
    n_ue = len(g.uedges)

    for route in carrier_routes:
        if len(route) != n_t:
            raise ValueError(f"carrier route has {len(route)} steps, expected {n_t}")
        for a, b in zip(route, route[1:]):
            if b not in g.successors[a]:
                raise ValueError(
                    f"carrier move {g.location_label(a)} -> {g.location_label(b)} "
                    "is not adjacent"
                )

    carrier = {}
    for route in carrier_routes:
        for t, loc in enumerate(route, start=1):
            carrier[(loc, t)] = carrier.get((loc, t), 0) + 1

    scout_edge_counts = {}            # (edge loc, step) -> scout sub-step traversals
    scout_used = {}                   # (uedge, step) -> bool
    deployments = {}                  # (node, step) -> count
    for exc in scout_excursions:
        if not 1 <= exc.step <= n_t - 1:
            raise ValueError(f"deployment at step {exc.step} outside [1, {n_t - 1}]")
        if len(exc.walk) != n_tau:
            raise ValueError(f"scout walk has {len(exc.walk)} sub-steps, expected {n_tau}")
        if carrier.get((exc.node, exc.step), 0) <= deployments.get((exc.node, exc.step), 0):
            raise ValueError(
                f"deployment at {g.location_label(exc.node)} step {exc.step} "
                "exceeds carriers present"
            )
        deployments[(exc.node, exc.step)] = deployments.get((exc.node, exc.step), 0) + 1
        for a, b in zip(exc.walk, exc.walk[1:]):
            if b not in g.successors[a]:
                raise ValueError(
                    f"scout move {g.location_label(a)} -> {g.location_label(b)} "
                    "is not adjacent"
                )
        for loc in exc.walk:
            if not g.is_node(loc):
                key = (loc, exc.step)
                scout_edge_counts[key] = scout_edge_counts.get(key, 0) + 1
                scout_used[(g.uedge_of_location(loc), exc.step)] = True

    inspected = {
        (ue, t): True
        for (ue, t) in scout_used
        if t <= n_t - 2
    }
    credit = decay_coefficients(scenario.decay_horizon)
    decay = scenario.inspection_decay

    def inspect_ratio(ue: int, t: int) -> float:
        total = 0.0
        for t_h in range(max(t - scenario.decay_horizon, 1) if decay else 1, t):
            if inspected.get((ue, t_h)):
                total += credit[t - t_h - 1] if decay else 1.0
        return min(1.0, total)

    breakdown = []
    for t in range(1, n_t + 1):
        moving = any(
            carrier.get((loc, t), 0) for loc in range(g.n_nodes, g.n_locations)
        ) or any(step == t for _, step in scout_edge_counts)
        time_cost = tw.time * t * (1 if moving else 0)

        traversal = 0.0
        uncertainty = 0.0
        z_cache = {ue: inspect_ratio(ue, t) for ue in range(n_ue)}
        for loc in range(g.n_nodes, g.n_locations):
            ue = g.uedge_of_location(loc)
            data = g.edge_data(ue)
            p_here = carrier.get((loc, t), 0)
            on_edge = 1 if p_here > 0 else 0
            traversal += tw.traversal * (
                data.weight * on_edge - data.team_discount * p_here
            )
            traversal += (tw.traversal * zeta * data.weight
                          * scout_edge_counts.get((loc, t), 0))
            u_hat = scenario.edge_uncertainty(ue)
            uncertainty += tw.uncertainty * max(0.0, u_hat * (on_edge - z_cache[ue]))
        for ue in range(n_ue):
            u_hat = scenario.edge_uncertainty(ue)
            uncertainty += tw.uncertainty * u_hat * xi * (1.0 - z_cache[ue])
            if t <= n_t - 1:
                theta = 1 if scout_used.get((ue, t)) else 0
                uncertainty += tw.uncertainty * max(
                    0.0, zeta * u_hat * (theta - z_cache[ue])
                )

        launch = sum(
            tw.launch * scenario.launch_cost(v) * count
            for (v, step), count in deployments.items()
            if step == t
        )
        breakdown.append(StepCost(t, time_cost, traversal, uncertainty, launch))

    return breakdown, sum(step.total for step in breakdown)


def _carrier_paths(scenario: Scenario, start: int):
    g = scenario.graph
    paths = [[start]]
    for _ in range(scenario.horizon - 1):
        paths = [p + [succ] for p in paths for succ in g.successors[p[-1]]]
    return [tuple(p) for p in paths]


def _closed_walks(scenario: Scenario, node: int):
    """Scout walks from a node back to it that cross at least one edge."""
    g = scenario.graph
    walks = [[node]]
    for _ in range(scenario.scout_steps - 1):
        walks = [w + [succ] for w in walks for succ in g.successors[w[-1]]]
    return [
        tuple(w) for w in walks
        if w[-1] == node and any(not g.is_node(loc) for loc in w)
    ]


def estimate_states(scenario: Scenario) -> float:
    """Upper bound on the joint trajectory count enumerate_optimal would visit."""
    g = scenario.graph
    branch = max(len(s) for s in g.successors)
    paths = branch ** (scenario.horizon - 1)
    joint = 1.0
    for _, count in scenario.starts:
        joint *= math.comb(paths + count - 1, count)
    walk_options = 1 + g.n_nodes * branch ** (scenario.scout_steps - 1)
    scout_choices = math.comb(
        walk_options + scenario.scout_count - 1, max(scenario.scout_count, 1)
    )
    return joint * float(scout_choices) ** (scenario.horizon - 1)


def enumerate_optimal(scenario: Scenario) -> OracleResult:
    """Exhaustive minimum over per-robot trajectories and scout excursions.

    Carrier robots are interchangeable, so joint assignments enumerate
    multisets of single-robot paths per start location.  Scout deployments
    are closed walks; with a single scout this is exactly the space the
    aggregate flow model admits.
    """
    estimate = estimate_states(scenario)
    if estimate > MAX_STATES:
        raise ValueError(
            f"enumeration refused: about {estimate:.2e} joint trajectories "
            f"exceed the guard threshold {MAX_STATES:.2e}"
        )

    g = scenario.graph
    n_t = scenario.horizon
    per_start = []
    for loc, count in sorted(scenario.starts):
        per_start.append((count, _carrier_paths(scenario, loc)))

    walk_cache = {v: _closed_walks(scenario, v) for v in range(g.n_nodes)}

    best = math.inf
    best_routes = None
    best_excursions = None

    for multi in product(*[
        combinations_with_replacement(paths, count) for count, paths in per_start
    ]):
        routes = tuple(r for group in multi for r in group)
        final = {}
        for route in routes:
            final[route[-1]] = final.get(route[-1], 0) + 1
        if any(final.get(loc, 0) < need for loc, need in scenario.goals):
            continue

        if scenario.scout_count == 0:
            _, total = evaluate_plan_cost(scenario, routes)
            if total < best - 1e-12:
                best, best_routes, best_excursions = total, routes, ()
            continue

        present = {}
        for route in routes:
            for t in range(1, n_t):
                loc = route[t - 1]
                if g.is_node(loc):
                    present.setdefault(t, {}).setdefault(loc, 0)
                    present[t][loc] += 1

        step_options = []
        for t in range(1, n_t):
            options = [()]
            launchable = [
                (v, walk)
                for v in sorted(present.get(t, {}))
                for walk in walk_cache[v]
            ]
            for k in range(1, scenario.scout_count + 1):
                for combo in combinations_with_replacement(launchable, k):
                    per_node = {}
                    for v, _ in combo:
                        per_node[v] = per_node.get(v, 0) + 1
                    if all(per_node[v] <= present[t][v] for v in per_node):
                        options.append(combo)
            step_options.append(options)

        for schedule in product(*step_options):
            excursions = tuple(
                Excursion(t, walk)
                for t, combo in enumerate(schedule, start=1)
                for _, walk in combo
            )
            _, total = evaluate_plan_cost(scenario, routes, excursions)
            if total < best - 1e-12:
                best, best_routes, best_excursions = total, routes, excursions

    if best_routes is None:
        return OracleResult("infeasible", None)
    return OracleResult("optimal", best, best_routes, best_excursions)
