"""Topological graphs for carrier/scout planning.

A graph stores one record per undirected edge; the two directed views are
derived, so weight symmetry holds by construction.  Robot positions live on
"locations": every node is a location (being at the node) and every directed
edge is a location (traversing it toward its head).  Locations are totally
ordered: nodes in ascending index first, then directed edges in ascending
(tail, head).

Graphs and their derived tables are immutable after construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


class ValidationError(ValueError):
    """A structural invariant of a graph or scenario is violated."""


@dataclass(frozen=True)
class EdgeData:
    """Cost model of one undirected edge.

    weight is the expected traversal cost; the true cost is only known to lie
    in [weight - unc_lower, weight + unc_upper].  team_discount is the cost
    reduction per extra carrier traversing together.
    """

    weight: float
    unc_lower: float
    unc_upper: float
    team_discount: float = 0.0

    def validate(self, label: str) -> None:
        for name, value in (
            ("weight", self.weight),
            ("unc_lower", self.unc_lower),
            ("unc_upper", self.unc_upper),
            ("team_discount", self.team_discount),
        ):
            if not math.isfinite(value):
                raise ValidationError(f"edge {label}: {name} is not finite")
            if value < 0:
                raise ValidationError(f"edge {label}: {name} is negative")
        if self.weight - self.unc_lower < 0:
            raise ValidationError(
                f"edge {label}: negative lower cost bound "
                f"(weight {self.weight} < unc_lower {self.unc_lower})"
            )


@dataclass(frozen=True)
class DirEdge:
    """One direction of an undirected edge."""

    tail: int
    head: int
    uedge: int


class Graph:
    """Undirected topological graph with derived directed/location views."""

    def __init__(self, node_labels: list[str], edges: list[tuple[int, int, EdgeData]]):
        self.node_labels = tuple(node_labels)
        self.n_nodes = len(self.node_labels)
        self._node_index = {label: v for v, label in enumerate(self.node_labels)}
        if len(self._node_index) != self.n_nodes:
            raise ValidationError("duplicate node labels")
        for label in self.node_labels:
            if "-" in label:
                # edge names join two labels with '-', so they must split back
                raise ValidationError(f"node label {label!r} contains '-'")

        seen: set[tuple[int, int]] = set()
        canon = []
        for a, b, data in edges:
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
                raise ValidationError(f"edge ({a},{b}): unknown node index")
            if a == b:
                raise ValidationError(f"edge ({a},{b}): explicit self-edge")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValidationError(f"edge ({a},{b}): parallel undirected edge")
            seen.add(key)
            canon.append((key[0], key[1], data))
        self.uedges: tuple[tuple[int, int, EdgeData], ...] = tuple(canon)
        for a, b, data in self.uedges:
            data.validate(f"({self.node_labels[a]},{self.node_labels[b]})")
        # "a-b" and "b-a" both name an undirected edge
        self._edge_index = {}
        for idx, (a, b, _) in enumerate(self.uedges):
            self._edge_index[f"{self.node_labels[b]}-{self.node_labels[a]}"] = idx
            self._edge_index[self.edge_label(idx)] = idx

        dir_edges = []
        for idx, (a, b, _) in enumerate(self.uedges):
            dir_edges.append(DirEdge(a, b, idx))
            dir_edges.append(DirEdge(b, a, idx))
        dir_edges.sort(key=lambda d: (d.tail, d.head))
        self.dir_edges: tuple[DirEdge, ...] = tuple(dir_edges)

        # location id: nodes are 0..n_nodes-1, directed edges follow.
        self._dir_loc = {
            (d.tail, d.head): self.n_nodes + i for i, d in enumerate(self.dir_edges)
        }
        self.n_dir_edges = len(self.dir_edges)
        self.n_locations = self.n_nodes + self.n_dir_edges

        out_edges: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, d in enumerate(self.dir_edges):
            out_edges[d.tail].append(self.n_nodes + i)
        # successors of a node v: stay at v, or enter any outgoing edge.
        # successors of edge (i,j): arrive at j, or continue onto any edge
        # leaving j (passing through j without stopping).
        succ: list[tuple[int, ...]] = []
        for v in range(self.n_nodes):
            succ.append(tuple(sorted([v] + out_edges[v])))
        for d in self.dir_edges:
            succ.append(tuple(sorted([d.head] + out_edges[d.head])))
        self.successors: tuple[tuple[int, ...], ...] = tuple(succ)

        incident: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for idx, (a, b, _) in enumerate(self.uedges):
            incident[a].append(idx)
            incident[b].append(idx)
        self.incident_uedges: tuple[tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in incident
        )

    # -- location helpers ---------------------------------------------------

    def is_node(self, loc: int) -> bool:
        return loc < self.n_nodes

    def dir_edge_at(self, loc: int) -> DirEdge:
        return self.dir_edges[loc - self.n_nodes]

    def edge_location(self, tail: int, head: int) -> int:
        return self._dir_loc[(tail, head)]

    def uedge_of_location(self, loc: int) -> int:
        return self.dir_edges[loc - self.n_nodes].uedge

    def edge_data(self, uedge: int) -> EdgeData:
        return self.uedges[uedge][2]

    def location_label(self, loc: int) -> str:
        if loc < self.n_nodes:
            return self.node_labels[loc]
        d = self.dir_edges[loc - self.n_nodes]
        return f"{self.node_labels[d.tail]}->{self.node_labels[d.head]}"

    def location_index(self, label: str) -> int:
        """The location that location_label names label."""
        if "->" not in label:
            return self.node_index(label)
        tail, head = label.split("->", 1)
        loc = self._dir_loc.get((self.node_index(tail), self.node_index(head)))
        if loc is None:
            raise ValidationError(f"unknown location {label!r}")
        return loc

    def node_index(self, label: str) -> int:
        try:
            return self._node_index[label]
        except KeyError:
            raise ValidationError(f"unknown node label {label!r}") from None

    def edge_label(self, uedge: int) -> str:
        """The label a-b of the undirected edge between nodes a and b, a < b."""
        a, b, _ = self.uedges[uedge]
        return f"{self.node_labels[a]}-{self.node_labels[b]}"

    def edge_index(self, label: str) -> int:
        """The undirected edge that label names, in either orientation."""
        try:
            return self._edge_index[label]
        except KeyError:
            raise ValidationError(f"unknown edge {label!r}") from None


def hurwicz_value(lower: float, upper: float, optimism: float) -> float:
    """Mix the best and worst case of a bounded cost.

    optimism = 1 returns the lower bound (complete optimism), optimism = 0
    the upper bound (complete pessimism).
    """
    if not 0.0 <= optimism <= 1.0:
        raise ValueError(f"optimism {optimism} outside [0, 1]")
    if lower > upper:
        raise ValueError(f"lower {lower} exceeds upper {upper}")
    return optimism * lower + (1.0 - optimism) * upper


def effective_uncertainty(edge: EdgeData, optimism: float) -> float:
    """Hurwicz-weighted uncertainty increment added on top of the expected weight.

    Equals hurwicz_value(weight - unc_lower, weight + unc_upper, optimism)
    minus the expected weight.
    """
    if not 0.0 <= optimism < 0.5:
        raise ValueError(f"optimism {optimism} outside the risk-averse range [0, 0.5)")
    return (1.0 - optimism) * edge.unc_upper - optimism * edge.unc_lower


def launch_cost_at(graph: Graph, node: int, launch_scale: float) -> float:
    """Scout launch cost at a node: scaled mean weight of its incident edges."""
    incident = graph.incident_uedges[node]
    if not incident:
        warnings.warn(
            f"node {graph.node_labels[node]} is isolated; launch cost set to 0",
            stacklevel=2,
        )
        return 0.0
    mean = sum(graph.edge_data(e).weight for e in incident) / len(incident)
    return launch_scale * mean
