"""Scenario data model and file I/O.

A scenario bundles a topological graph with team sizes, horizons, risk
parameters, start/goal requirements and (optionally) a ground-truth trace of
realized edge costs for simulation.  Scenario values are immutable after
construction.

The on-disk format is a single JSON document; see load_scenario for the
schema.  Unknown keys are rejected so that typos fail loudly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import astuple, dataclass, field

from .graphs import EdgeData, Graph, ValidationError, effective_uncertainty, launch_cost_at


class ParseError(ValueError):
    """The scenario document is not well-formed."""


@dataclass(frozen=True)
class TermWeights:
    """Scale factors for the four objective categories."""

    time: float = 1.0
    traversal: float = 1.0
    uncertainty: float = 1.0
    launch: float = 1.0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"term weight {name} must be finite and >= 0")


@dataclass(frozen=True)
class Scenario:
    """Full input to one planning problem."""

    graph: Graph
    carrier_count: int          # number of carrier robots
    scout_count: int            # number of scouts (each rides a carrier)
    horizon: int                # carrier time steps
    scout_steps: int            # scout sub-steps per carrier step
    scout_cost_scale: float     # scout traversal cost scale in [0, 1]
    explore_weight: float       # weight of the all-edges uncertainty term
    decay_horizon: int          # steps for inspection credit / regrowth
    optimism: float             # Hurwicz coefficient in [0, 0.5)
    launch_scale: float
    term_weights: TermWeights = field(default_factory=TermWeights)
    starts: tuple[tuple[int, int], ...] = ()   # (location, count)
    goals: tuple[tuple[int, int], ...] = ()    # (location, min count)
    # off in the scouts-nodecay ablation arm: inspection credit never expires
    # and observations never regrow; in-process only, no file key
    inspection_decay: bool = True

    def __post_init__(self):
        g = self.graph
        if self.horizon < 2:
            raise ValidationError(f"horizon {self.horizon} must be >= 2")
        if self.scout_steps < 1:
            raise ValidationError(f"scout_steps {self.scout_steps} must be >= 1")
        if self.carrier_count < 1:
            raise ValidationError("carrier_count must be >= 1")
        if not 0 <= self.scout_count <= self.carrier_count:
            raise ValidationError(
                f"scout_count {self.scout_count} must be in [0, carrier_count]"
            )
        if not 0.0 <= self.scout_cost_scale <= 1.0:
            raise ValidationError("scout_cost_scale must be in [0, 1]")
        if not (math.isfinite(self.explore_weight) and self.explore_weight >= 0):
            raise ValidationError(f"explore_weight {self.explore_weight} must be "
                                  "finite and >= 0")
        if self.decay_horizon < 1:
            raise ValidationError("decay_horizon must be >= 1")
        if not 0.0 <= self.optimism < 0.5:
            raise ValidationError(
                f"optimism {self.optimism} outside the risk-averse range [0, 0.5)"
            )
        if not (math.isfinite(self.launch_scale) and self.launch_scale >= 0):
            raise ValidationError(f"launch_scale {self.launch_scale} must be "
                                  "finite and >= 0")
        self.term_weights.validate()

        if sum(c for _, c in self.starts) != self.carrier_count:
            raise ValidationError("start counts must sum to carrier_count")
        if sum(c for _, c in self.goals) > self.carrier_count:
            raise ValidationError("goal counts exceed carrier_count")
        for kind, entries in (("start", self.starts), ("goal", self.goals)):
            seen = set()
            for loc, count in entries:
                if not 0 <= loc < g.n_locations:
                    raise ValidationError(f"{kind} location {loc} not in graph")
                if loc in seen:
                    # the model writes one row per entry, so a repeat would
                    # not add its counts up
                    raise ValidationError(
                        f"{kind} location {g.location_label(loc)} listed twice")
                seen.add(loc)
                if count < 0:
                    raise ValidationError(f"negative {kind} count")

        for a, b, data in g.uedges:
            label = f"({g.node_labels[a]},{g.node_labels[b]})"
            if effective_uncertainty(data, self.optimism) < 0:
                raise ValidationError(
                    f"edge {label}: effective uncertainty is negative at "
                    f"optimism {self.optimism}"
                )
            if self.carrier_count * data.team_discount > data.weight:
                warnings.warn(
                    f"edge {label}: team discount {data.team_discount} x "
                    f"{self.carrier_count} carriers exceeds weight {data.weight}; "
                    "traversal cost can go negative",
                    stacklevel=2,
                )

    # -- derived quantities --------------------------------------------------

    def edge_uncertainty(self, uedge: int) -> float:
        return effective_uncertainty(self.graph.edge_data(uedge), self.optimism)

    def launch_cost(self, node: int) -> float:
        return launch_cost_at(self.graph, node, self.launch_scale)


@dataclass(frozen=True)
class GroundTruth:
    """Realized cost of every undirected edge at each carrier step (1-based)."""

    traces: tuple[tuple[float, ...], ...]   # indexed by undirected edge id

    def cost(self, uedge: int, t: int) -> float:
        return self.traces[uedge][t - 1]

    def validate(self, scenario: Scenario) -> None:
        g = scenario.graph
        if len(self.traces) != len(g.uedges):
            raise ValidationError("ground truth must cover every undirected edge")
        for idx, trace in enumerate(self.traces):
            a, b, data = g.uedges[idx]
            label = f"({g.node_labels[a]},{g.node_labels[b]})"
            if len(trace) != scenario.horizon:
                raise ValidationError(
                    f"ground truth for edge {label} has {len(trace)} steps, "
                    f"expected {scenario.horizon}"
                )
            lo = data.weight - data.unc_lower
            hi = data.weight + data.unc_upper
            for t, value in enumerate(trace, start=1):
                if not lo - 1e-9 <= value <= hi + 1e-9:
                    raise ValidationError(
                        f"ground truth for edge {label} at step {t}: {value} "
                        f"outside [{lo}, {hi}]"
                    )

    @staticmethod
    def constant(scenario: Scenario) -> "GroundTruth":
        """True costs pinned to the expected weights."""
        return GroundTruth(
            tuple(
                tuple([data.weight] * scenario.horizon)
                for _, _, data in scenario.graph.uedges
            )
        )


_TOP_KEYS = {"nodes", "edges", "team", "horizon", "params", "starts", "goals", "ground_truth"}
_EDGE_KEYS = {"a", "b", "w", "u_lower", "u_upper", "r"}
# each scalar key of the team, horizon and params sections: the Scenario
# field it holds and whether that field is integral.  params also takes the
# optional term_weights list.
_SECTIONS = {
    "team": {"n_A": ("carrier_count", True), "n_K": ("scout_count", True)},
    "horizon": {"n_T": ("horizon", True), "n_tau": ("scout_steps", True)},
    "params": {"zeta": ("scout_cost_scale", False), "xi": ("explore_weight", False),
               "lambda": ("decay_horizon", True), "beta": ("optimism", False),
               "launch_scale": ("launch_scale", False)},
}


def _require(mapping: dict, allowed: set[str], context: str) -> None:
    if not isinstance(mapping, dict):
        raise ParseError(f"{context} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"{context}: unknown keys {sorted(unknown)}")


def _key(mapping, key, context: str):
    """mapping[key], or a ParseError naming the missing key."""
    try:
        return mapping[key]
    except KeyError:
        raise ParseError(f"{context}: missing key {key!r}") from None


def _list(mapping, key, context: str) -> list:
    value = _key(mapping, key, context)
    if not isinstance(value, list):
        raise ParseError(f"{context}.{key} must be a list, got {value!r}")
    return value


def _number(mapping, key, context: str) -> float:
    """A required number; booleans, strings and nulls are rejected."""
    value = _key(mapping, key, context)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}.{key} must be a number, got {value!r}")
    return float(value)


def _string(mapping, key, context: str) -> str:
    """A required string; numbers and nulls are rejected, not converted."""
    value = _key(mapping, key, context)
    if not isinstance(value, str):
        raise ParseError(f"{context}.{key} must be a string, got {value!r}")
    return value


def _integer(mapping, key, context: str) -> int:
    """A required integer; non-integral numbers are rejected, not truncated."""
    value = _number(mapping, key, context)
    if not value.is_integer():
        raise ParseError(f"{context}.{key} must be an integer, got {value!r}")
    return int(value)


def load_scenario(text: str) -> tuple[Scenario, GroundTruth | None]:
    """Parse and validate a scenario document.

    Top-level keys: nodes (list of string labels without '-'), edges (list of
    {a, b, w, u_lower, u_upper, r}), the sections team {n_A, n_K}, horizon
    {n_T, n_tau} and params {zeta, xi, lambda, beta, launch_scale,
    term_weights}, starts [{node, count}], goals [{node, min_count}] (each
    node at most once per list), optional ground_truth mapping
    "labelA-labelB" to a per-step cost list.  _SECTIONS maps each section
    key but term_weights to its Scenario field and is read here and by
    scenario_to_document; integral fields reject non-integral numbers.
    Labels, endpoints and start and goal nodes must be strings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require(doc, _TOP_KEYS, "document")

    nodes = _list(doc, "nodes", "document")
    labels = [_string(nodes, i, "document.nodes") for i in range(len(nodes))]
    index = {lbl: i for i, lbl in enumerate(labels)}

    edges = []
    for i, entry in enumerate(_list(doc, "edges", "document")):
        context = f"edges[{i}]"
        _require(entry, _EDGE_KEYS, context)
        a, b = _string(entry, "a", context), _string(entry, "b", context)
        if a not in index or b not in index:
            raise ValidationError(f"{context}: unknown endpoint {a!r} or {b!r}")
        data = EdgeData(
            weight=_number(entry, "w", context),
            unc_lower=_number(entry, "u_lower", context),
            unc_upper=_number(entry, "u_upper", context),
            team_discount=_number(entry, "r", context) if "r" in entry else 0.0,
        )
        edges.append((index[a], index[b], data))
    graph = Graph(labels, edges)

    scalars = {}
    for section, keys in _SECTIONS.items():
        mapping = _key(doc, section, "document")
        _require(mapping, {*keys, "term_weights"} if section == "params" else set(keys),
                 section)
        for key, (name, integral) in keys.items():
            scalars[name] = (_integer if integral else _number)(mapping, key, section)

    tw = doc["params"].get("term_weights", [1.0, 1.0, 1.0, 1.0])
    if not isinstance(tw, list) or len(tw) != 4:
        raise ParseError("params.term_weights must be a list of four weights")
    weights = TermWeights(*(_number(tw, i, "params.term_weights") for i in range(4)))

    def node_locs(section: str, count_key: str) -> tuple[tuple[int, int], ...]:
        out = []
        for i, entry in enumerate(_list(doc, section, "document")):
            context = f"{section}[{i}]"
            _require(entry, {"node", count_key}, context)
            out.append((graph.node_index(_string(entry, "node", context)),
                        _integer(entry, count_key, context)))
        return tuple(out)

    starts = node_locs("starts", "count")
    goals = node_locs("goals", "min_count")

    scenario = Scenario(graph=graph, **scalars, term_weights=weights,
                        starts=starts, goals=goals)

    truth = None
    if "ground_truth" in doc:
        given = doc["ground_truth"]
        if not isinstance(given, dict):
            raise ParseError("ground_truth must be an object")
        traces: list[tuple[float, ...] | None] = [None] * len(graph.uedges)
        for key in given:
            try:
                idx = graph.edge_index(key)
            except ValidationError:
                raise ValidationError(
                    f"ground_truth: unknown edge key {key!r}") from None
            if traces[idx] is not None:
                raise ValidationError(f"ground_truth: duplicate edge key {key!r}")
            values = _list(given, key, "ground_truth")
            traces[idx] = tuple(_number(values, t, f"ground_truth.{key}")
                                for t in range(len(values)))
        for idx, trace in enumerate(traces):
            if trace is None:
                raise ValidationError(
                    f"ground_truth: missing edge {graph.edge_label(idx)}")
        truth = GroundTruth(tuple(traces))
        truth.validate(scenario)

    return scenario, truth


def load_scenario_file(path) -> tuple[Scenario, GroundTruth | None]:
    with open(path, "r", encoding="utf-8") as handle:
        return load_scenario(handle.read())


def scenario_to_document(scenario: Scenario, truth: GroundTruth | None = None) -> dict:
    """Inverse of load_scenario for node-started scenarios (round-trip support)."""
    g = scenario.graph
    doc = {
        "nodes": list(g.node_labels),
        "edges": [
            {
                "a": g.node_labels[a],
                "b": g.node_labels[b],
                "w": d.weight,
                "u_lower": d.unc_lower,
                "u_upper": d.unc_upper,
                "r": d.team_discount,
            }
            for a, b, d in g.uedges
        ],
        **{section: {key: getattr(scenario, name) for key, (name, _) in keys.items()}
           for section, keys in _SECTIONS.items()},
        "starts": [
            {"node": g.location_label(loc), "count": count}
            for loc, count in scenario.starts
        ],
        "goals": [
            {"node": g.location_label(loc), "min_count": count}
            for loc, count in scenario.goals
        ],
    }
    doc["params"]["term_weights"] = list(astuple(scenario.term_weights))
    if truth is not None:
        doc["ground_truth"] = {
            g.edge_label(idx): list(trace) for idx, trace in enumerate(truth.traces)
        }
    return doc
