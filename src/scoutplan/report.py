"""Serialization of plans and mission logs: JSON, CSV and DOT renderings.

Every JSON writer has a matching loader so emitted files round-trip.  Each
record has one field list, its dataclass's: writer and loader name only
the fields they convert to labels and back.  The loaders read through
scenario's _require, _key, _list, _string, _integer and _number and reject
what the writers would not write, each with a ParseError that names the
field: top-level keys other than exactly _PLAN_KEYS or _MISSION_KEYS,
excursion keys other than exactly node, step and walk, belief entry keys
other than exactly _BELIEF_KEYS, an excursion whose node is not its walk's
first location, a step or entry that is not an object, an unknown or
missing step key, a belief that does not name every edge once, and a value
of the wrong type.  Every list field must be a list, every label (a
location, an edge, a status) a string, and every inspection and
observation a two-item [edge label, number] list.  Every number is read by
type: an int field, an excursion or inspection step and a belief age (or
null) must be integral; any other number may be an int or a float and is
kept as written, so a float field the writer filled with an int, such as a
launch increment of 0, writes back as 0.  Totals are sums of the steps and
are not read back.  All writers sort keys and avoid wall-clock content
unless asked to keep it, so deterministic runs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, fields

from .executor import BeliefState, MissionLog, MissionStep
from .formulation import COST_CATEGORIES, Excursion, Plan, StepCost
from .graphs import EdgeData, Graph
from .scenario import (ParseError, Scenario, _integer, _key, _list, _number, _require,
                       _string)

_PLAN_KEYS = ("routes", "excursions", "inspections", "steps", "total_cost")
_MISSION_KEYS = ("status", "route_true_cost", "objective_true_cost", "steps")
_EXCURSION_KEYS = ("node", "step", "walk")
_BELIEF_KEYS = ("edge", "weight", "unc_lower", "unc_upper", "age")


def _exactly(doc, keys: tuple[str, ...], context: str) -> None:
    """Check that keys are exactly doc's keys."""
    _require(doc, set(keys), context)
    for key in keys:
        _key(doc, key, context)


def _float(mapping, key, context: str):
    """A required number, kept as written: _number's check without its
    conversion, so an int reads back as an int."""
    _number(mapping, key, context)
    return mapping[key]


def _record(cls, doc, context: str, **convert):
    """A cls from doc, whose keys must be exactly cls's fields: a field named
    in convert is read by convert[name], any other by its declared type, int
    or float; every reader is called as reader(doc, name, context)."""
    read = {f.name: _integer if f.type == "int" else _float for f in fields(cls)}
    _require(doc, set(read), context)
    read.update(convert)
    return cls(**{name: reader(doc, name, context) for name, reader in read.items()})


def _locations(g: Graph, mapping, key, context: str) -> tuple[int, ...]:
    """mapping[key], a list of location labels, as location ids."""
    labels = _list(mapping, key, context)
    return tuple(g.location_index(_string(labels, i, f"{context}.{key}"))
                 for i in range(len(labels)))


def _edge_pair(g: Graph, entry, read, context: str) -> tuple:
    """An [edge label, number] entry as (edge id, the number read by read)."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ParseError(f"{context} must be an [edge, number] pair, got {entry!r}")
    return g.edge_index(_string(entry, 0, context)), read(entry, 1, context)


def _excursion_to_dict(g: Graph, exc: Excursion) -> dict:
    return {"node": g.location_label(exc.node), "step": exc.step,
            "walk": [g.location_label(loc) for loc in exc.walk]}


def _excursion_from_dict(g: Graph, doc, context: str) -> Excursion:
    _exactly(doc, _EXCURSION_KEYS, context)
    node = _string(doc, "node", context)
    walk = _locations(g, doc, "walk", context)
    if walk[:1] != (g.location_index(node),):
        raise ParseError(f"{context}: node {node!r} is not where its walk begins")
    return Excursion(_integer(doc, "step", context), walk)


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
    _exactly(doc, _PLAN_KEYS, "document")
    routes = _list(doc, "routes", "document")
    return Plan(
        tuple(_locations(g, routes, i, "document.routes") for i in range(len(routes))),
        tuple(_excursion_from_dict(g, e, f"excursions[{i}]")
              for i, e in enumerate(_list(doc, "excursions", "document"))),
        frozenset(_edge_pair(g, e, _integer, f"inspections[{i}]")
                  for i, e in enumerate(_list(doc, "inspections", "document"))),
        tuple(_record(StepCost, s, f"steps[{i}]")
              for i, s in enumerate(_list(doc, "steps", "document"))),
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


def routes_dot(scenario: Scenario, excursions=(), routes=()) -> str:
    """Graphviz rendering: the edges of routes in bold, each edge shaded
    darker the more sub-steps the excursions' scouts spent on it."""
    g = scenario.graph
    visit_counts = scout_visit_counts(scenario, excursions)
    bold = {g.uedge_of_location(loc) for route in routes for loc in route
            if not g.is_node(loc)}
    peak = max(visit_counts.values(), default=0)

    # as DOT quoted strings, in which a backslash or a double quote would
    # otherwise escape or end the string
    names = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
             for label in g.node_labels]
    lines = ["graph team {", "  layout=neato;", "  node [shape=circle];"]
    lines += [f"  {name};" for name in names]
    for ue, (a, b, data) in enumerate(g.uedges):
        shade = 90 - int(round(70 * visit_counts[ue] / peak)) if peak else 90
        attrs = [f'label="{data.weight:g}"', f"color=gray{shade}"]
        if ue in bold:
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


def _belief_from_list(g: Graph, entries: list, context: str) -> BeliefState:
    """belief_after read by each entry's edge label; the entries must name
    every edge of the graph exactly once."""
    labels = []
    for j, e in enumerate(entries):
        _exactly(e, _BELIEF_KEYS, f"{context}.belief_after[{j}]")
        labels.append(_string(e, "edge", f"{context}.belief_after[{j}]"))
    by_label = dict(zip(labels, entries))
    ordered = [by_label.get(g.edge_label(ue)) for ue in range(len(g.uedges))]
    if len(entries) != len(ordered) or None in ordered:
        raise ParseError(f"{context}.belief_after names {labels}, "
                         "not every edge of the graph once")
    edges, ages = [], []
    for ue, e in enumerate(ordered):
        where = f"{context}.belief_after[{g.edge_label(ue)}]"
        edges.append(EdgeData(*(_float(e, key, where)
                                for key in ("weight", "unc_lower", "unc_upper")),
                              g.edge_data(ue).team_discount))
        ages.append(None if e["age"] is None else _integer(e, "age", where))
    return BeliefState(tuple(edges), tuple(ages))


def mission_from_dict(doc: dict, scenario: Scenario) -> MissionLog:
    g = scenario.graph
    _exactly(doc, _MISSION_KEYS, "document")
    steps = []
    for i, s in enumerate(_list(doc, "steps", "document")):
        context = f"steps[{i}]"
        steps.append(_record(
            MissionStep, s, context,
            positions_after=lambda step, key, where: _locations(g, step, key, where),
            excursions=lambda step, key, where: tuple(
                _excursion_from_dict(g, e, f"{where}.{key}[{j}]")
                for j, e in enumerate(_list(step, key, where))),
            observations=lambda step, key, where: tuple(
                _edge_pair(g, o, _float, f"{where}.{key}[{j}]")
                for j, o in enumerate(_list(step, key, where))),
            belief_after=lambda step, key, where: _belief_from_list(
                g, _list(step, key, where), where)))
    return MissionLog(_string(doc, "status", "document"), tuple(steps))


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
