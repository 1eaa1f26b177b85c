"""Serialization of plans and mission logs: JSON, CSV and DOT renderings.

Every JSON writer has a matching loader so emitted files round-trip.  Each
record has one field list, its dataclass's: writer and loader name only
the fields they convert to labels and back.  The loaders read through
scenario's _require and _key and reject what the writers would not write:
top-level keys other than exactly _PLAN_KEYS or _MISSION_KEYS, excursion
keys other than exactly node, step and walk, an excursion whose node is
not its walk's first location, a step that is not an object, an unknown
or missing step key, and a belief that does not name every edge once.
Totals are sums of the steps and are not read back.  All writers sort keys
and avoid wall-clock content unless asked to keep it, so deterministic
runs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple

from .executor import BeliefState, MissionLog, MissionStep
from .formulation import COST_CATEGORIES, Excursion, Plan, StepCost
from .graphs import EdgeData, Graph
from .scenario import ParseError, Scenario, _key, _require

_PLAN_KEYS = ("routes", "excursions", "inspections", "steps", "total_cost")
_MISSION_KEYS = ("status", "route_true_cost", "objective_true_cost", "steps")
_EXCURSION_KEYS = ("node", "step", "walk")


def _exactly(doc, keys: tuple[str, ...], context: str) -> list:
    """doc's values for keys, which must be exactly doc's keys."""
    _require(doc, set(keys), context)
    return [_key(doc, key, context) for key in keys]


def _record(cls, fields: dict, context: str):
    try:
        return cls(**fields)
    except TypeError as exc:    # a key the writer would not write, or a missing one
        raise ParseError(f"{context}: {exc}") from None


def _excursion_to_dict(g: Graph, exc: Excursion) -> dict:
    return {"node": g.location_label(exc.node), "step": exc.step,
            "walk": [g.location_label(loc) for loc in exc.walk]}


def _excursion_from_dict(g: Graph, doc, context: str) -> Excursion:
    node, step, walk = _exactly(doc, _EXCURSION_KEYS, context)
    walk = tuple(g.location_index(label) for label in walk)
    if walk[:1] != (g.location_index(node),):
        raise ParseError(f"{context}: node {node!r} is not where its walk begins")
    return Excursion(int(step), walk)


# -- plans ---------------------------------------------------------------------

def plan_to_dict(plan: Plan, scenario: Scenario) -> dict:
    g = scenario.graph
    return {
        "routes": [[g.location_label(loc) for loc in route]
                   for route in plan.carrier_routes],
        "excursions": [_excursion_to_dict(g, exc) for exc in plan.scout_excursions],
        "inspections": sorted([g.edge_label(ue), t] for ue, t in plan.inspections),
        "steps": [asdict(s) for s in plan.breakdown],
        "total_cost": plan.total_cost,
    }


def plan_from_dict(doc: dict, scenario: Scenario) -> Plan:
    g = scenario.graph
    routes, excursions, inspections, steps, _ = _exactly(doc, _PLAN_KEYS, "document")
    return Plan(
        tuple(tuple(g.location_index(label) for label in route) for route in routes),
        tuple(_excursion_from_dict(g, e, f"excursions[{i}]")
              for i, e in enumerate(excursions)),
        frozenset((g.edge_index(label), int(t)) for label, t in inspections),
        tuple(_record(StepCost, s, f"steps[{i}]") for i, s in enumerate(steps)),
    )


def plan_to_json(plan: Plan, scenario: Scenario) -> str:
    return json.dumps(plan_to_dict(plan, scenario), indent=2, sort_keys=True) + "\n"


def plan_cost_csv(plan: Plan) -> str:
    return comparison_csv(
        ["step", *COST_CATEGORIES, "total"],
        [[*astuple(s), s.total] for s in plan.breakdown])


def scout_visit_counts(scenario: Scenario, excursions) -> dict[int, int]:
    """Sub-step traversal count per undirected edge (edge-shading source)."""
    g = scenario.graph
    counts = {ue: 0 for ue in range(len(g.uedges))}
    for exc in excursions:
        for loc in exc.walk:
            if not g.is_node(loc):
                counts[g.uedge_of_location(loc)] += 1
    return counts


def routes_dot(scenario: Scenario, plan: Plan | None = None,
               visit_counts: dict[int, int] | None = None) -> str:
    """Graphviz rendering: carrier routes in bold, scout-visited edges shaded
    darker the more sub-steps scouts spent on them."""
    g = scenario.graph
    if visit_counts is None:
        visit_counts = scout_visit_counts(
            scenario, plan.scout_excursions if plan else ()
        )
    carrier_edges = set()
    if plan:
        for route in plan.carrier_routes:
            for loc in route:
                if not g.is_node(loc):
                    carrier_edges.add(g.uedge_of_location(loc))
    peak = max(visit_counts.values(), default=0)

    # as DOT quoted strings, in which a backslash or a double quote would
    # otherwise escape or end the string
    names = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
             for label in g.node_labels]
    lines = ["graph team {", "  layout=neato;", "  node [shape=circle];"]
    lines += [f"  {name};" for name in names]
    for ue, (a, b, data) in enumerate(g.uedges):
        visits = visit_counts.get(ue, 0)
        shade = 90 - int(round(70 * visits / peak)) if peak else 90
        attrs = [f'label="{data.weight:g}"', f"color=gray{shade}"]
        if ue in carrier_edges:
            attrs.append("penwidth=3")
        lines.append(f'  {names[a]} -- {names[b]} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- missions ------------------------------------------------------------------

def mission_to_dict(log: MissionLog, scenario: Scenario,
                    keep_timings: bool = True) -> dict:
    g = scenario.graph
    return {
        "status": log.status,
        "route_true_cost": log.route_true_cost,
        "objective_true_cost": log.objective_true_cost,
        "steps": [
            {
                **vars(s),
                "solve_seconds": s.solve_seconds if keep_timings else 0.0,
                "positions_after": [g.location_label(loc) for loc in s.positions_after],
                "excursions": [_excursion_to_dict(g, e) for e in s.excursions],
                "observations": [[g.edge_label(ue), cost] for ue, cost in s.observations],
                "belief_after": [
                    {"edge": g.edge_label(ue), "weight": data.weight,
                     "unc_lower": data.unc_lower, "unc_upper": data.unc_upper,
                     "age": age}
                    for ue, (data, age) in enumerate(
                        zip(s.belief_after.edges, s.belief_after.ages))
                ],
            }
            for s in log.steps
        ],
    }


def _belief_from_list(g: Graph, entries: list) -> BeliefState:
    """belief_after read by each entry's edge label; the entries must name
    every edge of the graph exactly once."""
    by_label = {e["edge"]: e for e in entries}
    ordered = [by_label.get(g.edge_label(ue)) for ue in range(len(g.uedges))]
    if len(entries) != len(ordered) or None in ordered:
        raise ParseError(f"belief_after names {[e['edge'] for e in entries]}, "
                         "not every edge of the graph once")
    return BeliefState(
        tuple(EdgeData(e["weight"], e["unc_lower"], e["unc_upper"],
                       g.edge_data(ue).team_discount) for ue, e in enumerate(ordered)),
        tuple(e["age"] for e in ordered),
    )


def mission_from_dict(doc: dict, scenario: Scenario) -> MissionLog:
    g = scenario.graph
    status, _, _, docs = _exactly(doc, _MISSION_KEYS, "document")
    steps = []
    for i, s in enumerate(docs):
        context = f"steps[{i}]"
        if not isinstance(s, dict):
            raise ParseError(f"{context} must be an object")
        fields = {
            **s,
            "positions_after": tuple(g.location_index(label)
                                     for label in _key(s, "positions_after", context)),
            "excursions": tuple(_excursion_from_dict(g, e, f"{context}.excursions[{j}]")
                                for j, e in enumerate(_key(s, "excursions", context))),
            "observations": tuple((g.edge_index(label), cost)
                                  for label, cost in _key(s, "observations", context)),
            "belief_after": _belief_from_list(g, _key(s, "belief_after", context)),
        }
        steps.append(_record(MissionStep, fields, context))
    return MissionLog(status, tuple(steps))


def mission_to_json(log: MissionLog, scenario: Scenario,
                    keep_timings: bool = True) -> str:
    return json.dumps(
        mission_to_dict(log, scenario, keep_timings=keep_timings),
        indent=2, sort_keys=True,
    ) + "\n"


def mission_cost_csv(log: MissionLog, keep_timings: bool = True) -> str:
    return comparison_csv(
        ["step", "model_variables", "solve_seconds", "planned_objective",
         "route_true", "scout_true", "teaming", "launch"],
        [[s.index, s.model_variables,
          f"{s.solve_seconds if keep_timings else 0.0:.6f}", s.planned_objective,
          s.route_true_increment, s.scout_true_increment, s.teaming_increment,
          s.launch_increment]
         for s in log.steps])


def comparison_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.9g}" if isinstance(v, float) else str(v) for v in row
        ))
    return "\n".join(lines) + "\n"
