"""Receding-horizon mission runner.

Each mission step solves the planning model on the remaining (shrinking)
horizon under the current belief, executes the first carrier move together
with its scout excursions, collects exact observations on every edge the
scouts crossed, updates the belief and repeats.  The belief is the believed
EdgeData of every edge, so a re-plan's graph is built from it directly.
Observed uncertainty drops to zero and regrows linearly over the scenario's
decay horizon, modeling an environment that keeps changing after a look,
unless the scenario's inspection_decay is off (the scouts-nodecay arm).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

from .branch_bound import SolveOptions
from .formulation import Excursion, expand_starts
from .graphs import EdgeData, Graph
from .planner import solve_scenario
from .scenario import GroundTruth, Scenario, TermWeights

VARIANTS = ("weights", "uncertainty", "scouts-nodecay", "full")


@dataclass(frozen=True)
class BeliefState:
    """The believed cost model of every undirected edge, and its age.

    edges[i] is edge i's believed weight and uncertainty bounds, with the
    scenario's team_discount; ages[i] counts the steps since edge i was last
    observed, None while it never was.
    """

    edges: tuple[EdgeData, ...]
    ages: tuple[int | None, ...]

    @staticmethod
    def initial(graph: Graph) -> "BeliefState":
        edges = tuple(d for _, _, d in graph.uedges)
        return BeliefState(edges, (None,) * len(edges))


def update_belief(belief: BeliefState, observations: dict[int, float],
                  scenario: Scenario) -> BeliefState:
    """Fold one step of observations into the belief.

    Observed edges snap to the observed cost with zero uncertainty; every
    other previously-observed edge ages one step.  Under the scenario's
    inspection_decay its uncertainty regrows as original * min(1, age /
    decay_horizon), with the scenario's graph holding the originals;
    without it an observation is trusted forever.
    """
    edges, ages = [], []
    for idx, (edge, age) in enumerate(zip(belief.edges, belief.ages)):
        original = scenario.graph.edge_data(idx)
        if idx in observations:
            edge = EdgeData(observations[idx], 0.0, 0.0, original.team_discount)
            age = 0
        elif age is not None:
            age += 1
            if scenario.inspection_decay:
                factor = min(1.0, age / scenario.decay_horizon)
                lower = min(original.unc_lower * factor, edge.weight)
                edge = replace(edge, unc_lower=lower, unc_upper=original.unc_upper * factor)
        edges.append(edge)
        ages.append(age)
    return BeliefState(tuple(edges), tuple(ages))


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

    @property
    def route_true_cost(self) -> float:
        return sum(s.route_true_increment for s in self.steps)

    @property
    def objective_true_cost(self) -> float:
        return self.route_true_cost + sum(
            s.scout_true_increment + s.teaming_increment + s.launch_increment
            for s in self.steps
        )


def _goals_met(scenario: Scenario, counts: Counter) -> bool:
    return all(counts[loc] >= need for loc, need in scenario.goals)


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
    counts = Counter(expand_starts(scenario))       # carriers per location
    steps: list[MissionStep] = []
    status = "exhausted"
    tail = None         # previous plan, shifted one step: keeps re-solves coherent

    for now in range(1, scenario.horizon):
        if _goals_met(scenario, counts):
            status = "completed"
            break

        graph = Graph(list(g.node_labels),
                      [(a, b, data) for (a, b, _), data in zip(g.uedges, belief.edges)])
        current = replace(scenario, graph=graph,
                          starts=tuple(sorted(counts.items())),
                          horizon=scenario.horizon - now + 1)
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

        belief = update_belief(belief, observed, scenario)
        tail = (
            tuple(route[1:] for route in plan.carrier_routes),
            tuple(Excursion(e.step - 1, e.walk)
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
        counts = Counter(new_positions)

    if status == "exhausted" and _goals_met(scenario, counts):
        status = "completed"

    return MissionLog(status, tuple(steps))


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
