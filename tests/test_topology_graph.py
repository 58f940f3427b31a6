"""Unit tests for the overlay graph."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.topology.generators import clique, ring
from tests.fixtures import line
from repro.topology.graph import Topology, edge_key


@pytest.fixture
def diamond():
    """1 - {2, 3} - 4 with unequal weights."""
    topo = Topology()
    topo.add_edge(1, 2, 1.0)
    topo.add_edge(2, 4, 1.0)
    topo.add_edge(1, 3, 1.5)
    topo.add_edge(3, 4, 1.5)
    return topo


class TestConstruction:
    def test_add_edge_adds_nodes(self, diamond):
        assert sorted(diamond.nodes) == [1, 2, 3, 4]
        assert diamond.edge_count == 4

    def test_weight_is_symmetric(self, diamond):
        assert diamond.weight(1, 2) == diamond.weight(2, 1) == 1.0

    def test_self_loop_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_edge(1, 1, 1.0)

    def test_nonpositive_weight_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_edge(1, 2, 0.0)

    def test_node_info(self):
        topo = Topology()
        topo.add_node(1, name="Tokyo", region="east-asia")
        assert topo.node_info[1]["name"] == "Tokyo"

    def test_remove_edge(self, diamond):
        diamond.remove_edge(1, 2)
        assert not diamond.has_edge(1, 2)
        assert not diamond.has_edge(2, 1)
        with pytest.raises(TopologyError):
            diamond.remove_edge(1, 2)

    def test_remove_node(self, diamond):
        diamond.remove_node(2)
        assert not diamond.has_node(2)
        assert not diamond.has_edge(1, 2)
        assert diamond.edge_count == 2

    def test_remove_unknown_node_rejected(self, diamond):
        with pytest.raises(TopologyError):
            diamond.remove_node(99)

    def test_set_weight(self, diamond):
        diamond.set_weight(1, 2, 5.0)
        assert diamond.weight(2, 1) == 5.0
        with pytest.raises(TopologyError):
            diamond.set_weight(1, 4, 5.0)
        with pytest.raises(TopologyError):
            diamond.set_weight(1, 2, -1.0)

    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.set_weight(1, 2, 9.0)
        assert diamond.weight(1, 2) == 1.0
        clone.remove_node(3)
        assert diamond.has_node(3)

    def test_edges_enumerates_each_once(self, diamond):
        edges = diamond.edges()
        assert len(edges) == 4
        assert len({edge_key(a, b) for a, b in edges}) == 4

    def test_node_pairs(self, diamond):
        pairs = list(diamond.node_pairs())
        assert len(pairs) == 6  # C(4, 2)


class TestQueries:
    def test_neighbors(self, diamond):
        assert sorted(diamond.neighbors(1)) == [2, 3]
        assert diamond.degree(4) == 2

    def test_unknown_node_queries_raise(self, diamond):
        with pytest.raises(TopologyError):
            diamond.neighbors(99)
        with pytest.raises(TopologyError):
            diamond.weight(1, 99)


class TestShortestPath:
    def test_direct_neighbor(self, diamond):
        assert diamond.shortest_path(1, 2) == [1, 2]

    def test_prefers_lower_weight(self, diamond):
        assert diamond.shortest_path(1, 4) == [1, 2, 4]

    def test_same_node(self, diamond):
        assert diamond.shortest_path(1, 1) == [1]

    def test_disconnected_returns_none(self):
        topo = Topology()
        topo.add_edge(1, 2, 1.0)
        topo.add_node(3)
        assert topo.shortest_path(1, 3) is None

    def test_exclude_nodes_forces_detour(self, diamond):
        dist, _ = diamond.dijkstra(1, exclude_nodes={2})
        assert dist[4] == pytest.approx(3.0)

    def test_path_weight(self, diamond):
        assert diamond.path_weight([1, 2, 4]) == pytest.approx(2.0)
        assert diamond.path_weight([1]) == 0.0

    def test_line_path(self):
        topo = line(5)
        assert topo.shortest_path(1, 5) == [1, 2, 3, 4, 5]

    def test_deterministic_tie_breaking(self):
        """Equal-weight paths must resolve identically on every run."""
        topo = Topology()
        topo.add_edge(1, 2, 1.0)
        topo.add_edge(1, 3, 1.0)
        topo.add_edge(2, 4, 1.0)
        topo.add_edge(3, 4, 1.0)
        paths = {tuple(topo.shortest_path(1, 4)) for _ in range(10)}
        assert len(paths) == 1


class TestConnectivity:
    def test_connected(self, diamond):
        assert diamond.reachable_from(1) == set(diamond.nodes)

    def test_disconnected_after_cut(self, diamond):
        assert diamond.reachable_from(1, exclude_nodes={2, 3}) == {1}

    def test_reachable_from(self, diamond):
        assert diamond.reachable_from(1) == {1, 2, 3, 4}
        assert diamond.reachable_from(1, exclude_nodes={2, 3}) == {1}
        assert diamond.reachable_from(1, exclude_nodes={1}) == set()


class TestGenerators:
    def test_line(self):
        topo = line(4)
        assert topo.edge_count == 3

    def test_ring(self):
        topo = ring(5)
        assert topo.edge_count == 5
        assert all(topo.degree(v) == 2 for v in topo.nodes)

    def test_clique(self):
        topo = clique(5)
        assert topo.edge_count == 10
        assert all(topo.degree(v) == 4 for v in topo.nodes)

    def test_generator_validation(self):
        with pytest.raises(TopologyError):
            line(1)
        with pytest.raises(TopologyError):
            ring(2)
        with pytest.raises(TopologyError):
            clique(1)

    @given(st.integers(min_value=3, max_value=12))
    def test_property_ring_shortest_path_wraps(self, n):
        topo = ring(n)
        path = topo.shortest_path(1, n)
        assert path == [1, n]  # the wrap-around edge is the direct route
