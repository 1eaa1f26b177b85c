"""High-level single-solve pipeline: model, incumbent seeds, exact search,
plan.

solve_scenario builds the model and collects incumbent seeds: the caller's
seed plan, then a schedule enumeration of blob routes with scouted stops.
It hands them to branch_bound.solve_milp together with a greedy rounding,
which the search applies to its root LP's point once that LP is optimal.
The search judges every candidate against the model, so the seeds speed up
the exact search without touching its answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

from . import milp
from .branch_bound import (  # noqa: F401  (model_to_lp: the benchmark wraps it here)
    MilpResult,
    SolveOptions,
    model_to_lp,
    solve_milp,
)
from .formulation import (
    Excursion,
    Plan,
    PlanVars,
    build_model,
    extract_plan,
    heuristic_plan_from_relaxation,
    plan_to_assignment,
)
from .scenario import Scenario


@dataclass
class PlanningOutcome:
    result: MilpResult
    model: milp.Model
    plan_vars: PlanVars
    plan: Plan | None


def _simple_node_paths(graph, origin, target, cap=60):
    """Simple node paths origin -> target, shortest first."""
    paths = []
    stack = [(origin, (origin,))]
    while stack:
        node, path = stack.pop()
        if node == target:
            paths.append(path)
            continue
        if len(path) > graph.n_nodes:
            continue
        for succ_loc in graph.successors[node]:
            if graph.is_node(succ_loc):
                continue
            nxt = graph.dir_edge_at(succ_loc).head
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return sorted(paths, key=len)[:cap]


def _ahead_walk(graph, ahead_nodes, scout_steps):
    """Out-and-back walk from ahead_nodes[0] over the next route edges."""
    depth = min((scout_steps - 2) // 2, len(ahead_nodes) - 1)
    if depth < 1:
        return None
    walk = [ahead_nodes[0]]
    for a, b in zip(ahead_nodes, ahead_nodes[1:depth + 1]):
        walk.append(graph.edge_location(a, b))
    for b, a in zip(ahead_nodes[depth:0:-1], ahead_nodes[depth - 1::-1]):
        walk.append(graph.edge_location(b, a))
    walk.append(ahead_nodes[0])
    walk.extend([ahead_nodes[0]] * (scout_steps - len(walk)))
    return tuple(walk[:scout_steps])


def _schedule_route(graph, path, stays):
    route = []
    for i, node in enumerate(path):
        route.extend([node] * stays[i])
        if i + 1 < len(path):
            route.append(graph.edge_location(node, path[i + 1]))
    return tuple(route)


def structured_candidate(scenario: Scenario, plan_vars: PlanVars,
                         inspection_decay: bool = True) -> list:
    """Assignments of blob schedules, in enumeration order: every simple
    route and every wait placement, each without scouts and with scouts
    probing the route ahead at each stop.  Deterministic and unevaluated;
    empty when no schedule fits."""
    g = scenario.graph
    n_t = scenario.horizon
    if len(scenario.starts) != 1 or not g.is_node(scenario.starts[0][0]):
        return []
    if len(scenario.goals) != 1 or not g.is_node(scenario.goals[0][0]):
        return []
    origin, target = scenario.starts[0][0], scenario.goals[0][0]

    candidates = []
    for path in _simple_node_paths(g, origin, target):
        hops = len(path) - 1
        spare = n_t - hops - 2          # stay-steps beyond the mandatory ends
        if spare < 0:
            continue
        slots = len(path)
        for combo in itertools.combinations_with_replacement(range(slots), spare):
            stays = [0] * slots
            stays[0] = stays[-1] = 1
            for slot in combo:
                stays[slot] += 1
            if hops == 0:
                stays = [n_t]
            route = _schedule_route(g, path, stays)
            if len(route) != n_t or route[-1] != target:
                continue
            routes = tuple([route] * scenario.carrier_count)
            variants = [()]
            if scenario.scout_count:
                ahead = []
                for t in range(1, n_t):
                    here = route[t - 1]
                    if not g.is_node(here) or here not in path:
                        continue
                    walk = _ahead_walk(g, path[path.index(here):],
                                       scenario.scout_steps)
                    if walk and any(not g.is_node(loc) for loc in walk):
                        ahead.append(Excursion(here, t, walk))
                if ahead:
                    variants.append(tuple(ahead))
            for excursions in variants:
                candidates.append(plan_to_assignment(routes, excursions, plan_vars,
                                                     scenario, inspection_decay))
    return candidates


def solve_scenario(scenario: Scenario, options: SolveOptions | None = None,
                   inspection_decay: bool = True,
                   seed_plan=None) -> PlanningOutcome:
    """Build and exactly solve one scenario, returning the extracted plan.

    seed_plan, when given as (carrier_routes, scout_excursions), is the first
    incumbent seed; a receding-horizon caller passes the previous plan's tail
    here so successive solves never regress below it.  options.time_limit
    covers the whole call: the time spent on the model and the seeds is
    taken from what the search gets.
    """
    options = options or SolveOptions()
    t_start = time.monotonic()
    model, plan_vars = build_model(scenario, inspection_decay=inspection_decay)

    seeds = []
    if seed_plan is not None:
        routes, excursions = seed_plan
        try:
            seeds.append(plan_to_assignment(routes, excursions, plan_vars, scenario,
                                            inspection_decay=inspection_decay))
        except KeyError:
            pass        # tail does not fit the current model; skip the seed
    seeds += structured_candidate(scenario, plan_vars,
                                  inspection_decay=inspection_decay)

    def round_root(x):
        routes, excursions = heuristic_plan_from_relaxation(x, plan_vars, scenario)
        return plan_to_assignment(routes, excursions, plan_vars, scenario,
                                  inspection_decay=inspection_decay)

    if options.time_limit is not None:
        spent = time.monotonic() - t_start
        options = replace(options, time_limit=max(options.time_limit - spent, 0.0))
    result = solve_milp(model, options, seeds=seeds, round_root=round_root)
    plan = None
    if result.x is not None:
        plan = extract_plan(result.x, plan_vars, scenario)
    return PlanningOutcome(result, model, plan_vars, plan)
