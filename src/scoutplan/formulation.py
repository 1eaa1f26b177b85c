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

A PlanVars records the scenario it was built from, so reading a solution
back needs only the PlanVars.  Inspection credit follows the scenario's
inspection_decay setting through credit_window.  Each derived variable
(edge-used flags, inspections, inspection ratios, uncertainty slacks) is
defined once: the statement that writes its defining row also records, in
DerivedRules, the rule plan_to_assignment gives it its value by.

build_model and extract_plan are pure functions of their inputs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

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


def credit_window(scenario: Scenario, t: int) -> list[tuple[int, float]]:
    """(t_h, credit) of the earlier steps whose inspections count at step t:
    the decay window, or with inspection_decay off every step at full credit."""
    if not scenario.inspection_decay:
        return [(t_h, 1.0) for t_h in range(1, t)]
    credit = decay_coefficients(scenario.decay_horizon)
    return [(t_h, credit[t - t_h - 1])
            for t_h in range(max(t - scenario.decay_horizon, 1), t)]


class DerivedRules:
    """The cost-minimal value of each derived variable once the carrier and
    scout counts are fixed.  build_model records each rule in the statement
    that writes the variable's defining row:

      flag   1 when any other variable of its row is positive (edge_used,
             moved, scout_edge_used, inspectable); those are all counts
      ratio  min(1, the summed credit of its inspected steps), summed in
             ascending step order (inspect_credit)
      slack  max(0, scale * (flag - ratio)) (unc_carrier, unc_scout)

    build_model turns the tables into arrays once the model is complete.
    """

    def __init__(self):
        self.flag, self.flag_row, self.flag_source = [], [], []
        self.ratio, self.credit_row, self.credited, self.credit = [], [], [], []
        self.slack, self.slack_flag, self.slack_ratio, self.scale = [], [], [], []

    def add_flag(self, flag: int, row: LinExpr):
        sources = [vid for vid in row.coeffs if vid != flag]
        self.flag_row += [len(self.flag)] * len(sources)
        self.flag_source += sources
        self.flag.append(flag)

    def add_ratio(self, ratio: int, credits: list[tuple[int, float]]):
        """credits: (inspected, credit) in ascending step order."""
        self.credit_row += [len(self.ratio)] * len(credits)
        self.credited += [vid for vid, _ in credits]
        self.credit += [credit for _, credit in credits]
        self.ratio.append(ratio)

    def add_slack(self, slack: int, flag: int, ratio: int, scale: float):
        self.slack.append(slack)
        self.slack_flag.append(flag)
        self.slack_ratio.append(ratio)
        self.scale.append(scale)

    def freeze(self):
        for name, table in vars(self).items():
            kind = float if name in ("credit", "scale") else np.intp
            setattr(self, name, np.array(table, dtype=kind))


@dataclass(frozen=True)
class PlanVars:
    """Index from (entity, location, time) tuples to variable ids.

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
    vid is None for a constant term.  scenario is the model's source, and
    rules defines the derived families.
    """

    scenario: Scenario = field(repr=False, compare=False)
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
    cost_terms: list
    rules: DerivedRules = field(repr=False, compare=False)


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


def build_model(scenario: Scenario) -> tuple[Model, PlanVars]:
    """Translate a scenario into its MILP."""
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
    pv = PlanVars(scenario, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, [], DerivedRules())

    def new_var(family: str, key, kind, lower, upper, name) -> int:
        vid = model.add_var(kind, lower, upper, name)
        getattr(pv, family)[key] = vid
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
            new_var("inspect_ratio", (ue, t), CONTINUOUS, 0, 1,
                    f"z[{g.edge_label(ue)},{t}]")
        if scouts and t <= n_t - 1:
            for v in nodes:
                new_var("deployed", (v, t), INTEGER, 0, n_k,
                        f"f[{g.node_labels[v]},{t}]")
            for ue in uedges:
                new_var("scout_edge", (ue, t), BINARY, 0, 1,
                        f"theta[{g.edge_label(ue)},{t}]")
            for ue in uedges:
                new_var("scout_unc", (ue, t), CONTINUOUS, 0, math.inf,
                        f"cu_k[{g.edge_label(ue)},{t}]")
            for s in range(1, n_tau + 1):
                for loc in all_locs:
                    new_var("scout_at", (loc, s, t), INTEGER, 0, n_k,
                            f"q[{g.location_label(loc)},{s},{t}]")
        if scouts and t <= n_t - 2:
            for ue in uedges:
                new_var("inspected", (ue, t), BINARY, 0, 1,
                        f"delta[{g.edge_label(ue)},{t}]")

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
    rules = pv.rules

    def uncertainty_row(slack, flag, ratio, scale, name):
        """slack >= scale * (flag - ratio)"""
        expr = LinExpr({slack: 1.0})
        expr.add_term(flag, -scale)
        expr.add_term(ratio, scale)
        model.add_constraint(expr, Sense.GE, 0.0, name)
        rules.add_slack(slack, flag, ratio, scale)

    move_coef = 1.0 / (n_a + n_k * n_tau)
    for t in range(1, n_t + 1):
        for loc in edge_locs:
            ue = g.uedge_of_location(loc)
            uncertainty_row(pv.carrier_unc[(loc, t)], pv.carrier_edge[(loc, t)],
                            pv.inspect_ratio[(ue, t)], unc[ue],
                            f"unc_carrier[{g.location_label(loc)},{t}]")
        if scouts and t <= n_t - 1:
            for ue in uedges:
                uncertainty_row(pv.scout_unc[(ue, t)], pv.scout_edge[(ue, t)],
                                pv.inspect_ratio[(ue, t)], zeta * unc[ue],
                                f"unc_scout[{ue},{t}]")

        expr = LinExpr({pv.moved[t]: 1.0})
        for loc in edge_locs:
            expr.add_term(pv.carrier_at[(loc, t)], -move_coef)
            if scouts and t <= n_t - 1:
                for s in range(1, n_tau + 1):
                    expr.add_term(pv.scout_at[(loc, s, t)], -move_coef)
        model.add_constraint(expr, Sense.GE, 0.0, f"moved[{t}]")
        rules.add_flag(pv.moved[t], expr)

        for loc in edge_locs:
            expr = LinExpr({pv.carrier_edge[(loc, t)]: 1.0})
            expr.add_term(pv.carrier_at[(loc, t)], -1.0 / n_a)
            model.add_constraint(expr, Sense.GE, 0.0,
                                 f"edge_used[{g.location_label(loc)},{t}]")
            rules.add_flag(pv.carrier_edge[(loc, t)], expr)
        if scouts and t <= n_t - 1:
            scout_flow_coef = 1.0 / (n_k * n_tau)
            for ue in uedges:
                expr = LinExpr({pv.scout_edge[(ue, t)]: 1.0})
                for loc in dirs_of[ue]:
                    for s in range(1, n_tau + 1):
                        expr.add_term(pv.scout_at[(loc, s, t)], -scout_flow_coef)
                model.add_constraint(expr, Sense.GE, 0.0, f"scout_edge_used[{ue},{t}]")
                rules.add_flag(pv.scout_edge[(ue, t)], expr)

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
                rules.add_flag(pv.inspected[(ue, t)], expr)
                # valid: an inspection needs a scout on the edge, and any
                # scout there forces the binary scout_edge flag up to 1
                expr = LinExpr({pv.scout_edge[(ue, t)]: 1.0,
                                pv.inspected[(ue, t)]: -1.0})
                model.add_constraint(expr, Sense.GE, 0.0,
                                     f"inspected_scouted[{ue},{t}]")

    for t in range(1, n_t + 1):
        window = credit_window(scenario, t)
        for ue in uedges:
            expr = LinExpr({pv.inspect_ratio[(ue, t)]: 1.0})
            credits = []
            for t_h, credit in window:
                if (ue, t_h) in pv.inspected:
                    expr.add_term(pv.inspected[(ue, t_h)], -credit)
                    credits.append((pv.inspected[(ue, t_h)], credit))
            model.add_constraint(expr, Sense.LE, 0.0, f"inspect_credit[{ue},{t}]")
            rules.add_ratio(pv.inspect_ratio[(ue, t)], credits)

    rules.freeze()
    return model, pv


# -- plan extraction ----------------------------------------------------------

@dataclass(frozen=True)
class Excursion:
    """One scout deployment: step, the carrier step it launches at, and walk,
    its locations over the sub-steps; node, its launch node, begins the walk."""

    step: int
    walk: tuple[int, ...]

    @property
    def node(self) -> int:
        return self.walk[0]


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

    @property
    def total_cost(self) -> float:
        return sum(step.total for step in self.breakdown)


def expand_starts(scenario: Scenario) -> list[int]:
    """Deterministic robot-to-start assignment: lowest robot index takes the
    canonically smallest start location."""
    out = []
    for loc, count in sorted(scenario.starts):
        out.extend([loc] * count)
    return out


def _follow(starts, steps, values_at, choose):
    """Walks from starts, one location per step: at each step every walk in
    turn moves to the location choose(walk, remaining, step) picks, and that
    location's entry in remaining, values_at(step) as taken so far, drops by
    one."""
    walks = [[loc] for loc in starts]
    for step in steps:
        remaining = values_at(step)
        for walk in walks:
            loc = choose(walk, remaining, step)
            remaining[loc] -= 1
            walk.append(loc)
    return [tuple(walk) for walk in walks]


def extract_plan(solution, plan_vars: PlanVars) -> Plan:
    """Flow-decompose a feasible solution into unit carrier routes and scout
    excursions, with deterministic tie-breaking."""
    pv = plan_vars
    scenario = pv.scenario
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps

    def count(family, key) -> int:
        mapping = getattr(pv, family)
        if key not in mapping:
            return 0
        return int(round(solution[mapping[key]]))

    def first_with_unit(context):
        """The smallest successor with a unit left."""
        def choose(walk, remaining, step):
            for succ in g.successors[walk[-1]]:
                if remaining[succ] > 0:
                    return succ
            raise AssertionError(
                f"flow decomposition failed at {context} step {step}: "
                "solution counts are not a valid flow")
        return choose

    routes = _follow(
        expand_starts(scenario), range(2, n_t + 1),
        lambda t: {loc: count("carrier_at", (loc, t)) for loc in range(g.n_locations)},
        first_with_unit("carriers"))

    excursions = []
    for t in range(1, n_t):
        deployments = []
        for v in range(g.n_nodes):
            deployments.extend([v] * count("deployed", (v, t)))
        if not deployments:
            continue
        walks = _follow(
            deployments, range(2, n_tau + 1),
            lambda s: {loc: count("scout_at", (loc, s, t)) for loc in range(g.n_locations)},
            first_with_unit(f"scouts of carrier step {t}"))
        excursions.extend(Excursion(t, walk) for walk in walks)

    inspections = frozenset(
        (ue, t) for (ue, t), vid in pv.inspected.items()
        if round(solution[vid]) == 1
    )

    sums = {t: dict.fromkeys(COST_CATEGORIES, 0.0) for t in range(1, n_t + 1)}
    for category, t, vid, coef in pv.cost_terms:
        sums[t][category] += coef if vid is None else coef * float(solution[vid])
    breakdown = tuple(StepCost(t, **sums[t]) for t in range(1, n_t + 1))
    return Plan(tuple(routes), tuple(excursions), inspections, breakdown)


def plan_to_assignment(carrier_routes, scout_excursions, plan_vars: PlanVars):
    """Full variable assignment realizing a plan, with every derived series
    (movement/edge flags, inspections, inspection ratios, uncertainty slacks)
    at its cost-minimal value by the rules build_model recorded.  Feasible
    by construction for structurally valid trajectories; useful as a warm
    incumbent and in tests."""
    pv = plan_vars
    x = np.zeros(compact_variable_count(pv.scenario))

    for route in carrier_routes:
        for t, loc in enumerate(route, start=1):
            x[pv.carrier_at[(loc, t)]] += 1
    for exc in scout_excursions:
        x[pv.deployed[(exc.node, exc.step)]] += 1
        for s, loc in enumerate(exc.walk, start=1):
            x[pv.scout_at[(loc, s, exc.step)]] += 1

    # flags read only counts, ratios read flags, slacks read both; bincount
    # sums each ratio's credits in the recorded order
    r = pv.rules
    x[r.flag] = np.bincount(r.flag_row, x[r.flag_source] > 0, len(r.flag)) > 0
    x[r.ratio] = np.minimum(1.0, np.bincount(
        r.credit_row, r.credit * (x[r.credited] > 0), len(r.ratio)))
    x[r.slack] = np.maximum(0.0, r.scale * (x[r.slack_flag] - x[r.slack_ratio]))
    return x


_TIE_TOL = 1e-9             # relaxation values this close to a tie count as tied


def heuristic_plan_from_relaxation(x, plan_vars: PlanVars):
    """Round a fractional relaxation into a structurally valid plan by greedy
    largest-mass flow following (id order breaking ties).  Returns
    (carrier_routes, scout_excursions)."""
    pv = plan_vars
    scenario = pv.scenario
    g = scenario.graph
    n_t, n_tau = scenario.horizon, scenario.scout_steps

    def most_mass(options, remaining):
        return max(options, key=lambda c: (remaining[c], -c))

    routes = _follow(
        expand_starts(scenario), range(2, n_t + 1),
        lambda t: {loc: x[pv.carrier_at[(loc, t)]] for loc in range(g.n_locations)},
        lambda walk, remaining, t: most_mass(g.successors[walk[-1]], remaining))

    excursions = []
    if scenario.scout_count:
        hops_back = _steps_to_node(g)

        def scout_step(walk, remaining, s):
            # only step where the launch node stays reachable
            return most_mass([c for c in g.successors[walk[-1]]
                              if hops_back[walk[0]][c] <= n_tau - s], remaining)

        for t in range(1, n_t):
            present = Counter(route[t - 1] for route in routes
                              if g.is_node(route[t - 1]))
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
                walks = _follow(
                    [v] * count, range(2, n_tau + 1),
                    lambda s: {loc: x[pv.scout_at[(loc, s, t)]]
                               for loc in range(g.n_locations)},
                    scout_step)
                excursions.extend(Excursion(t, walk) for walk in walks)
    return routes, tuple(excursions)


def _steps_to_node(g):
    """hops[v][loc]: moves needed to stand on node v starting from loc."""
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
