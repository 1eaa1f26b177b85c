"""High-level single-solve pipeline: model, presolve, warm starts, exact
search, plan.

The relaxation is solved on the presolved problem, the same reduction branch
and bound searches, so two seeds accelerate the exact search without
touching its answer: the relaxation's basis warm-starts the root, and the
best incumbent candidate (greedy rounding of the relaxation, the caller's
seed plan, and a schedule enumeration of blob routes with scouted stops) is
handed to branch and bound after being verified against the model.
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
    presolve_model,
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


def _probe_walks(scenario, node, top=2):
    """Out-and-back walks from a node over the most uncertain nearby paths."""
    g = scenario.graph
    depth_cap = (scenario.scout_steps - 2) // 2
    found = []
    stack = [((node,), 0.0)]
    while stack:
        path, score = stack.pop()
        if len(path) > 1:
            found.append((score, path))
        if len(path) - 1 >= depth_cap:
            continue
        for succ in g.successors[path[-1]]:
            if g.is_node(succ):
                continue
            nxt = g.dir_edge_at(succ).head
            if nxt in path:
                continue
            gain = scenario.edge_uncertainty(g.uedge_of_location(succ))
            stack.append((path + (nxt,), score + gain))
    found.sort(key=lambda item: (-item[0], item[1]))
    walks = []
    for _, path in found[:top]:
        walk = _ahead_walk(g, path, scenario.scout_steps)
        if walk:
            walks.append(walk)
    return walks


def _schedule_route(graph, path, stays):
    route = []
    for i, node in enumerate(path):
        route.extend([node] * stays[i])
        if i + 1 < len(path):
            route.append(graph.edge_location(node, path[i + 1]))
    return tuple(route)


def structured_candidate(scenario: Scenario, plan_vars: PlanVars,
                         model: milp.Model, inspection_decay: bool = True):
    """Best assignment over blob schedules: every simple route, every wait
    placement, scouts probing the route ahead at each stop (and a scoutless
    variant).  Deterministic; returns None when no schedule fits."""
    g = scenario.graph
    n_t = scenario.horizon
    if len(scenario.starts) != 1 or not g.is_node(scenario.starts[0][0]):
        return None
    if len(scenario.goals) != 1 or not g.is_node(scenario.goals[0][0]):
        return None
    origin, target = scenario.starts[0][0], scenario.goals[0][0]

    best, best_obj = None, None
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
                probing = []
                for t in range(1, n_t):
                    here = route[t - 1]
                    if not g.is_node(here) or here not in path:
                        continue
                    walk = _ahead_walk(g, path[path.index(here):],
                                       scenario.scout_steps)
                    if walk and any(not g.is_node(loc) for loc in walk):
                        ahead.append(Excursion(here, t, walk))
                    extras = [w for w in _probe_walks(scenario, here)
                              if w != walk][: scenario.scout_count - 1]
                    probing.extend(Excursion(here, t, w) for w in extras)
                if ahead:
                    variants.append(tuple(ahead))
                if probing:
                    variants.append(tuple(ahead + probing))
            for excursions in variants:
                x = plan_to_assignment(routes, excursions, plan_vars,
                                       scenario, inspection_decay)
                check = milp.evaluate(model, x)
                if check.feasible and (best_obj is None
                                       or check.objective < best_obj - 1e-12):
                    best, best_obj = x, check.objective
    return best


def solve_scenario(scenario: Scenario, options: SolveOptions | None = None,
                   inspection_decay: bool = True,
                   seed_plan=None) -> PlanningOutcome:
    """Build and exactly solve one scenario, returning the extracted plan.

    seed_plan, when given as (carrier_routes, scout_excursions), joins the
    incumbent candidates; a receding-horizon caller passes the previous
    plan's tail here so successive solves never regress below it.
    options.time_limit covers the whole call: the time spent on the model,
    the relaxation and the seeds is taken from what the search gets.
    """
    options = options or SolveOptions()
    t_start = time.monotonic()
    model, plan_vars = build_model(scenario, inspection_decay=inspection_decay)
    presolved = presolve_model(model, options.int_tol)
    relaxation = None
    if not presolved.infeasible:
        deadline = (None if options.time_limit is None
                    else t_start + options.time_limit)
        relaxation = presolved.solver.solve(deadline=deadline)

    incumbent = None
    incumbent_obj = None

    def offer(assignment):
        nonlocal incumbent, incumbent_obj
        if assignment is None:
            return
        check = milp.evaluate(model, assignment)
        if check.feasible and (incumbent_obj is None
                               or check.objective < incumbent_obj - 1e-12):
            incumbent, incumbent_obj = assignment, check.objective

    root_basis = None
    if relaxation is not None and relaxation.status == "optimal":
        root_basis = relaxation.basis
        routes, excursions = heuristic_plan_from_relaxation(
            presolved.expand(relaxation.x), plan_vars, scenario)
        offer(plan_to_assignment(routes, excursions, plan_vars, scenario,
                                 inspection_decay=inspection_decay))

    if seed_plan is not None:
        routes, excursions = seed_plan
        try:
            offer(plan_to_assignment(routes, excursions, plan_vars, scenario,
                                     inspection_decay=inspection_decay))
        except KeyError:
            pass        # tail does not fit the current model; skip the seed

    offer(structured_candidate(scenario, plan_vars, model,
                               inspection_decay=inspection_decay))

    if options.time_limit is not None:
        spent = time.monotonic() - t_start
        options = replace(options, time_limit=max(options.time_limit - spent, 0.0))
    result = solve_milp(model, options, initial_incumbent=incumbent,
                        root_basis=root_basis)
    plan = None
    if result.x is not None:
        plan = extract_plan(result.x, plan_vars, scenario)
    return PlanningOutcome(result, model, plan_vars, plan)
