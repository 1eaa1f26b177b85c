"""Receding-horizon mission runner.

Each mission step solves the planning model on the remaining (shrinking)
horizon under current beliefs, executes the first carrier move together with
its scout excursions, collects exact observations on every edge the scouts
crossed, updates beliefs and repeats.  Observed uncertainty drops to zero and
regrows linearly over the decay horizon, modeling an environment that keeps
changing after a look, unless the scenario's inspection_decay is off (the
scouts-nodecay arm).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .branch_bound import SolveOptions
from .formulation import Excursion, expand_starts
from .graphs import EdgeData, Graph
from .planner import solve_scenario
from .scenario import GroundTruth, Scenario, TermWeights

VARIANTS = ("weights", "uncertainty", "scouts-nodecay", "full")


@dataclass(frozen=True)
class EdgeBelief:
    weight: float
    unc_lower: float
    unc_upper: float
    age: int | None = None          # steps since last observation, None = never


@dataclass(frozen=True)
class BeliefState:
    """Current per-edge belief plus the original scenario bounds."""

    edges: tuple[EdgeBelief, ...]

    @staticmethod
    def initial(graph: Graph) -> "BeliefState":
        return BeliefState(tuple(
            EdgeBelief(d.weight, d.unc_lower, d.unc_upper) for _, _, d in graph.uedges
        ))


def update_belief(belief: BeliefState, observations: dict[int, float],
                  graph: Graph, decay_horizon: int, regrow: bool = True) -> BeliefState:
    """Fold one step of observations into the belief.

    Observed edges snap to the observed cost with zero uncertainty; every
    other previously-observed edge ages one step and its uncertainty regrows
    as original * min(1, age / decay_horizon).  With regrow off an
    observation is trusted forever.
    """
    out = []
    for idx, eb in enumerate(belief.edges):
        original = graph.edge_data(idx)
        if idx in observations:
            out.append(EdgeBelief(observations[idx], 0.0, 0.0, 0))
            continue
        if eb.age is None:
            out.append(eb)
            continue
        age = eb.age + 1
        if regrow:
            factor = min(1.0, age / decay_horizon)
            lower = min(original.unc_lower * factor, eb.weight)
            out.append(EdgeBelief(eb.weight, lower, original.unc_upper * factor, age))
        else:
            out.append(EdgeBelief(eb.weight, eb.unc_lower, eb.unc_upper, age))
    return BeliefState(tuple(out))


def believed_scenario(scenario: Scenario, belief: BeliefState,
                      starts: tuple[tuple[int, int], ...], horizon: int) -> Scenario:
    g = scenario.graph
    edges = []
    for idx, (a, b, data) in enumerate(g.uedges):
        eb = belief.edges[idx]
        edges.append((a, b, EdgeData(eb.weight, eb.unc_lower, eb.unc_upper,
                                     data.team_discount)))
    graph = Graph(list(g.node_labels), edges)
    return replace(scenario, graph=graph, starts=starts, horizon=horizon)


@dataclass(frozen=True)
class MissionStep:
    index: int                      # mission time of the executed transition
    solve_seconds: float
    model_variables: int
    planned_objective: float
    positions_after: tuple[int, ...]
    excursions: tuple[Excursion, ...]
    observations: tuple[tuple[int, float], ...]
    belief_after: BeliefState
    route_true_increment: float
    scout_true_increment: float
    teaming_increment: float
    launch_increment: float


@dataclass(frozen=True)
class MissionLog:
    status: str                     # completed | exhausted | infeasible | solver-limit
    steps: tuple[MissionStep, ...]
    route_true_cost: float
    objective_true_cost: float


def _goals_met(scenario: Scenario, positions) -> bool:
    counts = {}
    for loc in positions:
        counts[loc] = counts.get(loc, 0) + 1
    return all(counts.get(loc, 0) >= need for loc, need in scenario.goals)


def run_mission(scenario: Scenario, truth: GroundTruth,
                solver: SolveOptions | None = None) -> MissionLog:
    """Execute one full receding-horizon mission against a ground truth.

    The solver failing or the remaining horizon going infeasible aborts with
    the partial log and a matching status.
    """
    truth.validate(scenario)
    solver = solver or SolveOptions()
    g = scenario.graph

    belief = BeliefState.initial(g)
    positions = tuple(expand_starts(scenario))
    steps: list[MissionStep] = []
    status = "exhausted"
    tail = None         # previous plan, shifted one step: keeps re-solves coherent

    for now in range(1, scenario.horizon):
        if _goals_met(scenario, positions):
            status = "completed"
            break

        start_counts: dict[int, int] = {}
        for loc in positions:
            start_counts[loc] = start_counts.get(loc, 0) + 1
        current = believed_scenario(
            scenario, belief,
            tuple(sorted(start_counts.items())),
            scenario.horizon - now + 1,
        )
        t0 = time.monotonic()
        outcome = solve_scenario(current, solver, seed_plan=tail)
        seconds = time.monotonic() - t0
        result = outcome.result
        if result.status == "infeasible":
            status = "infeasible"
            break
        if result.x is None or outcome.plan is None:
            status = "solver-limit"
            break
        plan = outcome.plan

        new_positions = tuple(sorted(route[1] for route in plan.carrier_routes))
        flown = tuple(exc for exc in plan.scout_excursions if exc.step == 1)

        observed: dict[int, float] = {}
        scout_true = 0.0
        for exc in flown:
            for loc in exc.walk:
                if not g.is_node(loc):
                    ue = g.uedge_of_location(loc)
                    observed[ue] = truth.cost(ue, now)
                    scout_true += (scenario.scout_cost_scale
                                   * truth.cost(ue, now))

        route_true = 0.0
        teaming = 0.0
        seen_dir = set()
        for loc in new_positions:
            if g.is_node(loc):
                continue
            ue = g.uedge_of_location(loc)
            teaming -= g.edge_data(ue).team_discount
            if loc not in seen_dir:
                seen_dir.add(loc)
                route_true += truth.cost(ue, now + 1)
        launch = sum(scenario.launch_cost(exc.node) for exc in flown)

        belief = update_belief(belief, observed, g, scenario.decay_horizon,
                               regrow=scenario.inspection_decay)
        tail = (
            tuple(route[1:] for route in plan.carrier_routes),
            tuple(Excursion(e.node, e.step - 1, e.walk)
                  for e in plan.scout_excursions if e.step >= 2),
        )
        steps.append(MissionStep(
            index=now,
            solve_seconds=seconds,
            model_variables=len(outcome.model.variables),
            planned_objective=result.objective,
            positions_after=new_positions,
            excursions=flown,
            observations=tuple(sorted(observed.items())),
            belief_after=belief,
            route_true_increment=route_true,
            scout_true_increment=scout_true,
            teaming_increment=teaming,
            launch_increment=launch,
        ))
        positions = new_positions

    if status == "exhausted" and _goals_met(scenario, positions):
        status = "completed"

    route_total = sum(s.route_true_increment for s in steps)
    objective_total = route_total + sum(
        s.scout_true_increment + s.teaming_increment + s.launch_increment
        for s in steps
    )
    return MissionLog(status, tuple(steps), route_total, objective_total)


def variant_scenario(scenario: Scenario, variant: str) -> Scenario:
    """Scenario as seen by one ablation arm."""
    if variant == "weights":
        weights = TermWeights(
            scenario.term_weights.time, scenario.term_weights.traversal,
            0.0, scenario.term_weights.launch,
        )
        return replace(scenario, scout_count=0, term_weights=weights)
    if variant == "uncertainty":
        return replace(scenario, scout_count=0)
    if variant == "scouts-nodecay":
        return replace(scenario, inspection_decay=False)
    if variant == "full":
        return scenario
    raise ValueError(f"unknown variant {variant!r}")


def run_ablation(scenario: Scenario, truth: GroundTruth,
                 solver: SolveOptions | None = None) -> dict[str, MissionLog]:
    """Run the four ablation arms on identical ground truth.

    weights: expected weights only (uncertainty term weight zero, no scouts);
    uncertainty: prices uncertainty, still no scouts; scouts-nodecay: scouts
    but inspections never expire; full: the complete algorithm.
    """
    return {variant: run_mission(variant_scenario(scenario, variant), truth, solver)
            for variant in VARIANTS}
