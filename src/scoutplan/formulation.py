"""Build the team-planning MILP from a scenario and read plans back out.

The model is a time-expanded aggregate flow: integer variables count robots
per location per step instead of tracking individuals, which removes the
team size from the decision space.  Carrier counts use every directed edge;
scout bookkeeping (edge-used flags, inspections, inspection ratios and their
uncertainty relief) lives on undirected edges, since inspecting one direction
reveals both.

Every objective term is tagged with its cost category and step, and a plan's
cost breakdown is those terms grouped, so it sums to the objective.

Besides the defining rows the model carries one family of valid
inequalities, inspected_scouted: an edge inspected at a step must have its
scout_edge flag set.  Integer points satisfy it already; it cuts off
fractional ones and lifts the LP bound (ablation8's root from 253.61 to
273.46).

build_model and extract_plan are pure functions of their inputs and safe to
call concurrently on shared scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import ValidationError
from .milp import BINARY, CONTINUOUS, INTEGER, LinExpr, Model, Sense
from .scenario import Scenario

MAX_VARIABLES = 5_000_000


def decay_coefficients(decay_horizon: int) -> list[float]:
    """Inspection credit per age step: (H - a + 1) / (H * a) for age a in [1, H].

    The credits telescope so that a window of back-to-back inspections sums
    to (1/H)((H + 1) * harmonic(H) - H), spreading the value of revisits
    across the whole window instead of only the freshest one.
    """
    if decay_horizon < 1:
        raise ValueError("decay horizon must be a positive integer")
    h = decay_horizon
    return [(h - a + 1) / (h * a) for a in range(1, h + 1)]


@dataclass(frozen=True)
class PlanVars:
    """Bidirectional index between (entity, location, time) tuples and variable ids.

    Time steps are 1-based.  Families and their time ranges:
      moved[t]                 t in [1, n_T]
      carrier_at[(loc, t)]     t in [1, n_T], every location
      carrier_edge[(loc, t)]   t in [1, n_T], directed edge locations
      carrier_unc[(loc, t)]    t in [1, n_T], directed edge locations
      inspect_ratio[(ue, t)]   t in [1, n_T], undirected edges
      scout_at[(loc, s, t)]    t in [1, n_T-1], s in [1, scout_steps]
      scout_edge[(ue, t)]      t in [1, n_T-1]
      deployed[(v, t)]         t in [1, n_T-1]
      scout_unc[(ue, t)]       t in [1, n_T-1]
      inspected[(ue, t)]       t in [1, n_T-2]

    cost_terms holds every objective term as (StepCost field, t, vid, coef);
    vid is None for a constant term.
    """

    moved: dict
    carrier_at: dict
    carrier_edge: dict
    carrier_unc: dict
    inspect_ratio: dict
    scout_at: dict
    scout_edge: dict
    deployed: dict
    scout_unc: dict
    inspected: dict
    reverse: dict
    cost_terms: list


def compact_variable_count(scenario: Scenario) -> int:
    """Number of variables the builder actually emits (truncated families)."""
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
    n_u = len(g.uedges)
    count = n_t * (1 + n_l + n_e + n_u + n_e)          # moved, p, phi, z, unc slack
    if scenario.scout_count > 0:
        count += (n_t - 1) * (n_l * n_tau + n_u + n_v + n_u)
        count += max(n_t - 2, 0) * n_u
    return count


def paper_parity_variable_count(scenario: Scenario) -> int:
    """Diagnostic count with all five edge-indexed scout/uncertainty families
    doubled over both directions and no horizon truncation:
    n_T (1 + n_L + n_E + n_L n_tau + 5 n_E + n_V)."""
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    n_l, n_e, n_v = g.n_locations, g.n_dir_edges, g.n_nodes
    return n_t * (1 + n_l + n_e + n_l * n_tau + 5 * n_e + n_v)


def build_model(scenario: Scenario, inspection_decay: bool = True) -> tuple[Model, PlanVars]:
    """Translate a scenario into its MILP.

    With inspection_decay off (ablation support) an inspected edge keeps full
    inspection credit for the rest of the horizon instead of decaying.
    """
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    n_a, n_k = scenario.carrier_count, scenario.scout_count
    zeta, xi = scenario.scout_cost_scale, scenario.explore_weight
    tw = scenario.term_weights
    scouts = n_k > 0

    if compact_variable_count(scenario) > MAX_VARIABLES:
        raise ValidationError(
            f"model would need {compact_variable_count(scenario)} variables "
            f"(limit {MAX_VARIABLES})"
        )

    edge_locs = list(range(g.n_nodes, g.n_locations))
    all_locs = list(range(g.n_locations))
    nodes = list(range(g.n_nodes))
    uedges = list(range(len(g.uedges)))
    unc = {ue: scenario.edge_uncertainty(ue) for ue in uedges}
    weight = {ue: g.edge_data(ue).weight for ue in uedges}
    discount = {ue: g.edge_data(ue).team_discount for ue in uedges}
    launch = {v: scenario.launch_cost(v) for v in nodes}
    dirs_of = {ue: [] for ue in uedges}
    for loc in edge_locs:
        dirs_of[g.uedge_of_location(loc)].append(loc)

    model = Model(name="teamplan")
    pv = PlanVars({}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, [])

    def new_var(family: str, key, kind, lower, upper, name) -> int:
        vid = model.add_var(kind, lower, upper, name)
        getattr(pv, family)[key] = vid
        pv.reverse[vid] = (family, key)
        return vid

    for t in range(1, n_t + 1):
        new_var("moved", t, BINARY, 0, 1, f"psi[{t}]")
        for loc in all_locs:
            new_var("carrier_at", (loc, t), INTEGER, 0, n_a,
                    f"p[{g.location_label(loc)},{t}]")
        for loc in edge_locs:
            new_var("carrier_edge", (loc, t), BINARY, 0, 1,
                    f"phi[{g.location_label(loc)},{t}]")
        for loc in edge_locs:
            new_var("carrier_unc", (loc, t), CONTINUOUS, 0, math.inf,
                    f"cu_a[{g.location_label(loc)},{t}]")
        for ue in uedges:
            a, b, _ = g.uedges[ue]
            new_var("inspect_ratio", (ue, t), CONTINUOUS, 0, 1,
                    f"z[{g.node_labels[a]}-{g.node_labels[b]},{t}]")
        if scouts and t <= n_t - 1:
            for v in nodes:
                new_var("deployed", (v, t), INTEGER, 0, n_k,
                        f"f[{g.node_labels[v]},{t}]")
            for ue in uedges:
                a, b, _ = g.uedges[ue]
                new_var("scout_edge", (ue, t), BINARY, 0, 1,
                        f"theta[{g.node_labels[a]}-{g.node_labels[b]},{t}]")
            for ue in uedges:
                a, b, _ = g.uedges[ue]
                new_var("scout_unc", (ue, t), CONTINUOUS, 0, math.inf,
                        f"cu_k[{g.node_labels[a]}-{g.node_labels[b]},{t}]")
            for s in range(1, n_tau + 1):
                for loc in all_locs:
                    new_var("scout_at", (loc, s, t), INTEGER, 0, n_k,
                            f"q[{g.location_label(loc)},{s},{t}]")
        if scouts and t <= n_t - 2:
            for ue in uedges:
                a, b, _ = g.uedges[ue]
                new_var("inspected", (ue, t), BINARY, 0, 1,
                        f"delta[{g.node_labels[a]}-{g.node_labels[b]},{t}]")

    # objective ---------------------------------------------------------------
    obj = LinExpr()

    def cost(category: str, t: int, coef: float, vid: int | None = None):
        """Add one tagged objective term; a constant when vid is None."""
        if vid is None:
            obj.constant += coef
        else:
            obj.add_term(vid, coef)
        pv.cost_terms.append((category, t, vid, coef))

    for t in range(1, n_t + 1):
        cost("time_cost", t, tw.time * t, pv.moved[t])
        for loc in edge_locs:
            ue = g.uedge_of_location(loc)
            cost("traversal_cost", t, tw.traversal * weight[ue],
                 pv.carrier_edge[(loc, t)])
            cost("traversal_cost", t, -tw.traversal * discount[ue],
                 pv.carrier_at[(loc, t)])
            cost("uncertainty_cost", t, tw.uncertainty, pv.carrier_unc[(loc, t)])
        for ue in uedges:
            cost("uncertainty_cost", t, -tw.uncertainty * unc[ue] * xi,
                 pv.inspect_ratio[(ue, t)])
            cost("uncertainty_cost", t, tw.uncertainty * unc[ue] * xi)
        if scouts and t <= n_t - 1:
            for v in nodes:
                cost("launch_cost", t, tw.launch * launch[v], pv.deployed[(v, t)])
            for ue in uedges:
                cost("uncertainty_cost", t, tw.uncertainty, pv.scout_unc[(ue, t)])
            for s in range(1, n_tau + 1):
                for loc in edge_locs:
                    ue = g.uedge_of_location(loc)
                    cost("traversal_cost", t, tw.traversal * zeta * weight[ue],
                         pv.scout_at[(loc, s, t)])
    model.objective = obj

    # constraints -------------------------------------------------------------
    move_coef = 1.0 / (n_a + n_k * n_tau)
    for t in range(1, n_t + 1):
        for loc in edge_locs:
            ue = g.uedge_of_location(loc)
            expr = LinExpr({pv.carrier_unc[(loc, t)]: 1.0})
            expr.add_term(pv.carrier_edge[(loc, t)], -unc[ue])
            expr.add_term(pv.inspect_ratio[(ue, t)], unc[ue])
            model.add_constraint(expr, Sense.GE, 0.0,
                                 f"unc_carrier[{g.location_label(loc)},{t}]")
        if scouts and t <= n_t - 1:
            for ue in uedges:
                expr = LinExpr({pv.scout_unc[(ue, t)]: 1.0})
                expr.add_term(pv.scout_edge[(ue, t)], -zeta * unc[ue])
                expr.add_term(pv.inspect_ratio[(ue, t)], zeta * unc[ue])
                model.add_constraint(expr, Sense.GE, 0.0, f"unc_scout[{ue},{t}]")

        expr = LinExpr({pv.moved[t]: 1.0})
        for loc in edge_locs:
            expr.add_term(pv.carrier_at[(loc, t)], -move_coef)
            if scouts and t <= n_t - 1:
                for s in range(1, n_tau + 1):
                    expr.add_term(pv.scout_at[(loc, s, t)], -move_coef)
        model.add_constraint(expr, Sense.GE, 0.0, f"moved[{t}]")

        for loc in edge_locs:
            expr = LinExpr({pv.carrier_edge[(loc, t)]: 1.0})
            expr.add_term(pv.carrier_at[(loc, t)], -1.0 / n_a)
            model.add_constraint(expr, Sense.GE, 0.0,
                                 f"edge_used[{g.location_label(loc)},{t}]")
        if scouts and t <= n_t - 1:
            scout_flow_coef = 1.0 / (n_k * n_tau)
            for ue in uedges:
                expr = LinExpr({pv.scout_edge[(ue, t)]: 1.0})
                for loc in dirs_of[ue]:
                    for s in range(1, n_tau + 1):
                        expr.add_term(pv.scout_at[(loc, s, t)], -scout_flow_coef)
                model.add_constraint(expr, Sense.GE, 0.0, f"scout_edge_used[{ue},{t}]")

    for loc, count in scenario.starts:
        model.add_constraint(LinExpr({pv.carrier_at[(loc, 1)]: 1.0}),
                             Sense.EQ, float(count),
                             f"start[{g.location_label(loc)}]")
    for loc, count in scenario.goals:
        model.add_constraint(LinExpr({pv.carrier_at[(loc, n_t)]: 1.0}),
                             Sense.GE, float(count),
                             f"goal[{g.location_label(loc)}]")

    if scouts:
        for t in range(1, n_t):
            for v in nodes:
                expr = LinExpr({pv.carrier_at[(v, t)]: 1.0,
                                pv.deployed[(v, t)]: -1.0})
                model.add_constraint(expr, Sense.GE, 0.0,
                                     f"deploy_cap[{g.node_labels[v]},{t}]")
                expr = LinExpr({pv.scout_at[(v, 1, t)]: 1.0,
                                pv.deployed[(v, t)]: -1.0})
                model.add_constraint(expr, Sense.EQ, 0.0,
                                     f"deploy_out[{g.node_labels[v]},{t}]")
                if n_tau > 1:
                    expr = LinExpr({pv.scout_at[(v, n_tau, t)]: 1.0,
                                    pv.deployed[(v, t)]: -1.0})
                    model.add_constraint(expr, Sense.EQ, 0.0,
                                         f"deploy_back[{g.node_labels[v]},{t}]")

    for t in range(1, n_t + 1):
        expr = LinExpr({pv.carrier_at[(loc, t)]: 1.0 for loc in all_locs})
        model.add_constraint(expr, Sense.EQ, float(n_a), f"carrier_total[{t}]")
    if scouts:
        for t in range(1, n_t):
            for s in range(1, n_tau + 1):
                expr = LinExpr({pv.scout_at[(loc, s, t)]: 1.0 for loc in all_locs})
                for v in nodes:
                    expr.add_term(pv.deployed[(v, t)], -1.0)
                model.add_constraint(expr, Sense.EQ, 0.0, f"scout_total[{s},{t}]")

    into = {v: [v] for v in nodes}       # locations feeding node v, self included
    outof = {v: [v] for v in nodes}      # locations leaving node v, self included
    for loc in edge_locs:
        d = g.dir_edge_at(loc)
        into[d.head].append(loc)
        outof[d.tail].append(loc)

    for t in range(2, n_t + 1):
        for v in nodes:
            expr = LinExpr()
            for loc in into[v]:
                expr.add_term(pv.carrier_at[(loc, t - 1)], 1.0)
            for loc in outof[v]:
                expr.add_term(pv.carrier_at[(loc, t)], -1.0)
            model.add_constraint(expr, Sense.EQ, 0.0,
                                 f"carrier_flow[{g.node_labels[v]},{t}]")
    if scouts:
        for t in range(1, n_t):
            for s in range(2, n_tau + 1):
                for v in nodes:
                    expr = LinExpr()
                    for loc in into[v]:
                        expr.add_term(pv.scout_at[(loc, s - 1, t)], 1.0)
                    for loc in outof[v]:
                        expr.add_term(pv.scout_at[(loc, s, t)], -1.0)
                    model.add_constraint(expr, Sense.EQ, 0.0,
                                         f"scout_flow[{g.node_labels[v]},{s},{t}]")

        for t in range(1, n_t - 1):
            for ue in uedges:
                expr = LinExpr({pv.inspected[(ue, t)]: -1.0})
                for loc in dirs_of[ue]:
                    for s in range(1, n_tau + 1):
                        expr.add_term(pv.scout_at[(loc, s, t)], 1.0)
                model.add_constraint(expr, Sense.GE, 0.0, f"inspectable[{ue},{t}]")
                # valid: an inspection needs a scout on the edge, and any
                # scout there forces the binary scout_edge flag up to 1
                expr = LinExpr({pv.scout_edge[(ue, t)]: 1.0,
                                pv.inspected[(ue, t)]: -1.0})
                model.add_constraint(expr, Sense.GE, 0.0,
                                     f"inspected_scouted[{ue},{t}]")

    credit = decay_coefficients(scenario.decay_horizon)
    for t in range(1, n_t + 1):
        for ue in uedges:
            expr = LinExpr({pv.inspect_ratio[(ue, t)]: 1.0})
            if scouts:
                if inspection_decay:
                    past = range(max(t - scenario.decay_horizon, 1), t)
                else:
                    past = range(1, t)
                for t_h in past:
                    if (ue, t_h) not in pv.inspected:
                        continue
                    coeff = credit[t - t_h - 1] if inspection_decay else 1.0
                    expr.add_term(pv.inspected[(ue, t_h)], -coeff)
            model.add_constraint(expr, Sense.LE, 0.0, f"inspect_credit[{ue},{t}]")

    return model, pv


# -- plan extraction ----------------------------------------------------------

@dataclass(frozen=True)
class Excursion:
    """One scout deployment: launch node, carrier step, walk over sub-steps."""

    node: int
    step: int
    walk: tuple[int, ...]


@dataclass(frozen=True)
class StepCost:
    step: int
    time_cost: float
    traversal_cost: float
    uncertainty_cost: float
    launch_cost: float

    @property
    def total(self) -> float:
        return (self.time_cost + self.traversal_cost
                + self.uncertainty_cost + self.launch_cost)


COST_CATEGORIES = ("time_cost", "traversal_cost", "uncertainty_cost", "launch_cost")


@dataclass(frozen=True)
class Plan:
    """Per-robot view of a solution."""

    carrier_routes: tuple[tuple[int, ...], ...]
    scout_excursions: tuple[Excursion, ...]
    inspections: frozenset
    breakdown: tuple[StepCost, ...]
    total_cost: float


def expand_starts(scenario: Scenario) -> list[int]:
    """Deterministic robot-to-start assignment: lowest robot index takes the
    canonically smallest start location."""
    out = []
    for loc, count in sorted(scenario.starts):
        out.extend([loc] * count)
    return out


def _decompose(counts_at, start_positions, steps, successors, context):
    """Split aggregate location counts into unit walks, smallest successor first."""
    routes = [[loc] for loc in start_positions]
    for t in steps:
        remaining = dict(counts_at(t))
        for route in routes:
            for succ in successors[route[-1]]:
                if remaining.get(succ, 0) > 0:
                    remaining[succ] -= 1
                    route.append(succ)
                    break
            else:
                raise AssertionError(
                    f"flow decomposition failed at {context} step {t}: "
                    "solution counts are not a valid flow"
                )
    return [tuple(route) for route in routes]


def extract_plan(solution, plan_vars: PlanVars, scenario: Scenario) -> Plan:
    """Flow-decompose a feasible solution into unit carrier routes and scout
    excursions, with deterministic tie-breaking."""
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    pv = plan_vars

    def count(family, key) -> int:
        mapping = getattr(pv, family)
        if key not in mapping:
            return 0
        return int(round(solution[mapping[key]]))

    routes = _decompose(
        lambda t: {loc: count("carrier_at", (loc, t)) for loc in range(g.n_locations)},
        expand_starts(scenario),
        range(2, n_t + 1),
        g.successors,
        "carriers",
    )

    excursions = []
    for t in range(1, n_t):
        deployments = []
        for v in range(g.n_nodes):
            deployments.extend([v] * count("deployed", (v, t)))
        if not deployments:
            continue
        walks = _decompose(
            lambda s: {loc: count("scout_at", (loc, s, t)) for loc in range(g.n_locations)},
            deployments,
            range(2, n_tau + 1),
            g.successors,
            f"scouts of carrier step {t}",
        )
        excursions.extend(Excursion(v, t, walk) for v, walk in zip(deployments, walks))

    inspections = frozenset(
        (ue, t) for (ue, t), vid in pv.inspected.items()
        if round(solution[vid]) == 1
    )

    sums = {t: dict.fromkeys(COST_CATEGORIES, 0.0) for t in range(1, n_t + 1)}
    for category, t, vid, coef in pv.cost_terms:
        sums[t][category] += coef if vid is None else coef * float(solution[vid])
    breakdown = [StepCost(t, **sums[t]) for t in range(1, n_t + 1)]
    total = sum(step.total for step in breakdown)
    return Plan(tuple(routes), tuple(excursions), inspections,
                tuple(breakdown), total)


def plan_to_assignment(carrier_routes, scout_excursions, plan_vars: PlanVars,
                       scenario: Scenario, inspection_decay: bool = True):
    """Full variable assignment realizing a plan, with every derived series
    (movement/edge flags, inspections, inspection ratios, uncertainty slacks)
    at its cost-minimal value.  Feasible by construction for structurally
    valid trajectories; useful as a warm incumbent and in tests."""
    import numpy as np

    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    pv = plan_vars
    n_vars = len(pv.reverse)
    x = np.zeros(n_vars)

    for route in carrier_routes:
        for t, loc in enumerate(route, start=1):
            x[pv.carrier_at[(loc, t)]] += 1
    deployments: dict[tuple[int, int], int] = {}
    for exc in scout_excursions:
        deployments[(exc.node, exc.step)] = deployments.get((exc.node, exc.step), 0) + 1
        for s, loc in enumerate(exc.walk, start=1):
            x[pv.scout_at[(loc, s, exc.step)]] += 1
    for (v, t), count in deployments.items():
        x[pv.deployed[(v, t)]] = count

    for (loc, t), vid in pv.carrier_edge.items():
        x[vid] = 1.0 if x[pv.carrier_at[(loc, t)]] > 0 else 0.0
    scout_edge_used = {}
    for (loc, s, t), vid in pv.scout_at.items():
        if not g.is_node(loc) and x[vid] > 0:
            scout_edge_used[(g.uedge_of_location(loc), t)] = True
    for (ue, t), vid in pv.scout_edge.items():
        x[vid] = 1.0 if scout_edge_used.get((ue, t)) else 0.0
    for t, vid in pv.moved.items():
        edges_busy = any(
            x[pv.carrier_at[(loc, t)]] > 0
            for loc in range(g.n_nodes, g.n_locations)
        ) or any(
            used for (ue, tt), used in scout_edge_used.items() if tt == t
        )
        x[vid] = 1.0 if edges_busy else 0.0
    for (ue, t), vid in pv.inspected.items():
        x[vid] = 1.0 if scout_edge_used.get((ue, t)) else 0.0

    credit = decay_coefficients(scenario.decay_horizon)
    for (ue, t), vid in pv.inspect_ratio.items():
        total = 0.0
        if inspection_decay:
            past = range(max(t - scenario.decay_horizon, 1), t)
        else:
            past = range(1, t)
        for t_h in past:
            if (ue, t_h) in pv.inspected and x[pv.inspected[(ue, t_h)]] > 0:
                total += credit[t - t_h - 1] if inspection_decay else 1.0
        x[vid] = min(1.0, total)

    zeta = scenario.scout_cost_scale
    for (loc, t), vid in pv.carrier_unc.items():
        ue = g.uedge_of_location(loc)
        u_hat = scenario.edge_uncertainty(ue)
        z = x[pv.inspect_ratio[(ue, t)]]
        x[vid] = max(0.0, u_hat * (x[pv.carrier_edge[(loc, t)]] - z))
    for (ue, t), vid in pv.scout_unc.items():
        u_hat = scenario.edge_uncertainty(ue)
        z = x[pv.inspect_ratio[(ue, t)]]
        x[vid] = max(0.0, zeta * u_hat * (x[pv.scout_edge[(ue, t)]] - z))
    return x


_TIE_TOL = 1e-9             # relaxation values this close to a tie count as tied


def heuristic_plan_from_relaxation(x, plan_vars: PlanVars, scenario: Scenario):
    """Round a fractional relaxation into a structurally valid plan by greedy
    largest-mass flow following (id order breaking ties).  Returns
    (carrier_routes, scout_excursions)."""
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps
    pv = plan_vars

    routes = [[loc] for loc in expand_starts(scenario)]
    for t in range(2, n_t + 1):
        remaining = {
            loc: x[pv.carrier_at[(loc, t)]] for loc in range(g.n_locations)
        }
        for route in routes:
            succ = max(g.successors[route[-1]],
                       key=lambda s: (remaining.get(s, 0.0), -s))
            remaining[succ] = remaining.get(succ, 0.0) - 1.0
            route.append(succ)

    excursions = []
    if scenario.scout_count:
        hops_back = _steps_to_node(g)
        for t in range(1, n_t):
            present: dict[int, int] = {}
            for route in routes:
                loc = route[t - 1]
                if g.is_node(loc):
                    present[loc] = present.get(loc, 0) + 1
            budget = scenario.scout_count
            for v in sorted(present, key=lambda v: -x[pv.deployed[(v, t)]]):
                # half a scout or less stays aboard, so that a relaxation
                # sitting on a tie (1.5 give or take rounding noise) always
                # gives the same plan
                want = math.floor(x[pv.deployed[(v, t)]] + 0.5 - _TIE_TOL)
                count = min(want, present[v], budget)
                if count <= 0:
                    continue
                budget -= count
                remaining = {
                    (loc, s): x[pv.scout_at[(loc, s, t)]]
                    for loc in range(g.n_locations)
                    for s in range(1, n_tau + 1)
                }
                for _ in range(count):
                    walk = [v]
                    for s in range(2, n_tau + 1):
                        # only step where the launch node stays reachable
                        options = [c for c in g.successors[walk[-1]]
                                   if hops_back[v][c] <= n_tau - s]
                        succ = max(options,
                                   key=lambda c: (remaining.get((c, s), 0.0), -c))
                        remaining[(succ, s)] = remaining.get((succ, s), 0.0) - 1.0
                        walk.append(succ)
                    excursions.append(Excursion(v, t, tuple(walk)))
    return [tuple(r) for r in routes], tuple(excursions)


def _steps_to_node(g):
    """hops[v][loc]: moves needed to stand on node v starting from loc."""
    from collections import deque

    predecessors = [[] for _ in range(g.n_locations)]
    for loc in range(g.n_locations):
        for succ in g.successors[loc]:
            predecessors[succ].append(loc)
    hops = {}
    for v in range(g.n_nodes):
        dist = [math.inf] * g.n_locations
        dist[v] = 0
        queue = deque([v])
        while queue:
            cur = queue.popleft()
            for pred in predecessors[cur]:
                if dist[pred] == math.inf:
                    dist[pred] = dist[cur] + 1
                    queue.append(pred)
        hops[v] = dist
    return hops


def aggregate_counts(plan: Plan, scenario: Scenario):
    """Re-aggregate a plan into carrier/scout location counts (test support)."""
    carrier = {}
    for route in plan.carrier_routes:
        for t, loc in enumerate(route, start=1):
            carrier[(loc, t)] = carrier.get((loc, t), 0) + 1
    scout = {}
    for exc in plan.scout_excursions:
        for s, loc in enumerate(exc.walk, start=1):
            key = (loc, s, exc.step)
            scout[key] = scout.get(key, 0) + 1
    return carrier, scout
