import math

import pytest
from hypothesis import given, strategies as st

from scoutplan.graphs import (
    DirEdge,
    EdgeData,
    Graph,
    ValidationError,
    effective_uncertainty,
    hurwicz_value,
    launch_cost_at,
)


def two_node_graph():
    return Graph(["a", "b"], [(0, 1, EdgeData(10.0, 2.0, 5.0, 1.0))])


class TestHurwicz:
    def test_full_pessimism_returns_upper(self):
        assert hurwicz_value(8.0, 15.0, 0.0) == 15.0

    def test_full_optimism_returns_lower(self):
        assert hurwicz_value(8.0, 15.0, 1.0) == 8.0

    def test_midpoint(self):
        assert hurwicz_value(8.0, 15.0, 0.5) == pytest.approx(11.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwicz_value(1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            hurwicz_value(3.0, 2.0, 0.5)

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 1),
           st.floats(0, 100))
    def test_monotone_in_bounds(self, lower, spread, mix, bump):
        upper = lower + spread
        base = hurwicz_value(lower, upper, mix)
        assert hurwicz_value(lower, upper + bump, mix) >= base - 1e-9
        assert hurwicz_value(lower + min(bump, spread), upper, mix) >= base - 1e-9

    @given(st.floats(0, 100), st.floats(0, 100),
           st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_linear_in_mix(self, lower, spread, m1, m2, blend):
        upper = lower + spread
        mixed = blend * m1 + (1 - blend) * m2
        direct = hurwicz_value(lower, upper, mixed)
        combo = (blend * hurwicz_value(lower, upper, m1)
                 + (1 - blend) * hurwicz_value(lower, upper, m2))
        assert direct == pytest.approx(combo, abs=1e-7)


class TestEffectiveUncertainty:
    def test_pessimist_is_upper(self):
        edge = EdgeData(10.0, 2.0, 5.0)
        assert effective_uncertainty(edge, 0.0) == 5.0

    def test_hand_value(self):
        # 0.55 * 5 - 0.45 * 2
        edge = EdgeData(10.0, 2.0, 5.0)
        assert effective_uncertainty(edge, 0.45) == pytest.approx(1.85)

    def test_no_uncertainty(self):
        edge = EdgeData(10.0, 0.0, 0.0)
        for optimism in (0.0, 0.2, 0.49):
            assert effective_uncertainty(edge, optimism) == 0.0

    def test_rejects_risk_seeking_range(self):
        with pytest.raises(ValueError):
            effective_uncertainty(EdgeData(10.0, 2.0, 5.0), 0.5)


class TestLaunchCost:
    def test_mean_of_incident(self):
        g = Graph(["a", "b", "c"], [
            (0, 1, EdgeData(10.0, 0, 0)),
            (0, 2, EdgeData(20.0, 0, 0)),
        ])
        assert launch_cost_at(g, 0, 0.5) == pytest.approx(7.5)

    def test_zero_scale(self):
        g = two_node_graph()
        assert launch_cost_at(g, 0, 0.0) == 0.0
        assert launch_cost_at(g, 1, 0.0) == 0.0

    def test_degree_one(self):
        g = Graph(["a", "b"], [(0, 1, EdgeData(30.0, 0, 0))])
        assert launch_cost_at(g, 1, 1.0) == pytest.approx(30.0)

    def test_isolated_node_warns(self):
        g = Graph(["a", "b", "c"], [(0, 1, EdgeData(30.0, 0, 0))])
        with pytest.warns(UserWarning):
            assert launch_cost_at(g, 2, 1.0) == 0.0


class TestLocations:
    def test_two_node_graph(self):
        assert two_node_graph().n_locations == 4

    def test_eight_node_eleven_edge_graph(self):
        edges = [(0, 1), (1, 3), (3, 5), (5, 7), (0, 2), (2, 4), (4, 6),
                 (6, 7), (1, 2), (3, 4), (5, 6)]
        g = Graph([str(i) for i in range(8)],
                  [(a, b, EdgeData(10.0, 0, 0)) for a, b in edges])
        assert g.n_locations == 30

    def test_no_edges(self):
        g = Graph(["a", "b", "c"], [])
        assert g.n_locations == 3

    def test_ordering_nodes_then_edges(self):
        g = Graph(["a", "b", "c"], [(1, 2, EdgeData(1, 0, 0)), (0, 1, EdgeData(1, 0, 0))])
        labels = [g.location_label(loc) for loc in range(g.n_locations)]
        assert labels == ["a", "b", "c", "a->b", "b->a", "b->c", "c->b"]

    def test_ordering_deterministic(self):
        def build():
            return Graph(["a", "b", "c"],
                         [(2, 0, EdgeData(3, 1, 2)), (0, 1, EdgeData(1, 0, 0))])
        assert ([build().location_label(l) for l in range(build().n_locations)]
                == [build().location_label(l) for l in range(build().n_locations)])


class TestGraphInvariants:
    def test_each_undirected_edge_has_two_directions(self):
        g = two_node_graph()
        assert len(g.dir_edges) == 2
        assert g.dir_edges == (DirEdge(0, 1, 0), DirEdge(1, 0, 0))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValidationError):
            Graph(["a", "b"], [(0, 1, EdgeData(1, 0, 0)), (1, 0, EdgeData(2, 0, 0))])

    def test_rejects_self_edge(self):
        with pytest.raises(ValidationError):
            Graph(["a", "b"], [(0, 0, EdgeData(1, 0, 0))])

    def test_rejects_negative_lower_cost_bound(self):
        with pytest.raises(ValidationError, match="negative lower cost bound"):
            Graph(["a", "b"], [(0, 1, EdgeData(5.0, 6.0, 1.0))])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Graph(["a", "b"], [(0, 1, EdgeData(math.inf, 0, 0))])

    def test_rejects_hyphen_in_node_label(self):
        # "a" + "b-c" and "a-b" + "c" would both name the edge "a-b-c"
        data = EdgeData(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="node label 'b-c' contains '-'"):
            Graph(["a", "b-c", "a-b", "c"], [(0, 1, data), (2, 3, data)])

    def test_pass_through_successors(self):
        g = Graph(["a", "b", "c"], [(0, 1, EdgeData(1, 0, 0)), (1, 2, EdgeData(1, 0, 0))])
        ab = g.edge_location(0, 1)
        succ = g.successors[ab]
        assert g.node_index("b") in succ
        assert g.edge_location(1, 2) in succ       # continue without stopping
        assert g.edge_location(1, 0) in succ       # immediate turn-around
        assert g.node_index("a") not in succ


class TestLabels:
    def setup_method(self):
        data = EdgeData(1.0, 0.0, 0.0)
        self.g = Graph(["s", "m", "t"], [(2, 0, data), (0, 1, data), (1, 2, data)])

    def test_location_labels_round_trip(self):
        for loc in range(self.g.n_locations):
            assert self.g.location_index(self.g.location_label(loc)) == loc

    def test_edge_labels_name_either_orientation(self):
        for ue, (a, b, _) in enumerate(self.g.uedges):
            label = self.g.edge_label(ue)
            assert label == f"{self.g.node_labels[a]}-{self.g.node_labels[b]}"
            tail, head = label.split("-")
            assert self.g.edge_index(label) == self.g.edge_index(f"{head}-{tail}") == ue
        assert self.g.edge_label(self.g.edge_index("t-s")) == "s-t"

    def test_unknown_labels_are_rejected(self):
        for lookup, label in ((self.g.edge_index, "s-s"), (self.g.edge_index, "s-x"),
                              (self.g.location_index, "x"),
                              (self.g.location_index, "s->s")):
            with pytest.raises(ValidationError):
                lookup(label)
