"""Unit tests for minimum-cost K node-disjoint paths."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology.disjoint import (
    DisjointPathError,
    best_effort_disjoint_paths,
    k_node_disjoint_paths,
    max_node_disjoint_paths,
)
from repro.topology.generators import clique, ring
from tests.fixtures import line, random_connected
from repro.topology.graph import Topology


def assert_node_disjoint(paths, source, dest):
    """All paths run source→dest and share no intermediate node."""
    interior = []
    for path in paths:
        assert path[0] == source
        assert path[-1] == dest
        assert len(set(path)) == len(path)  # simple path
        interior.extend(path[1:-1])
    assert len(interior) == len(set(interior))


@pytest.fixture
def two_disjoint():
    """Two disjoint routes 1→4: via 2 (cost 2) and via 3 (cost 3)."""
    topo = Topology()
    topo.add_edge(1, 2, 1.0)
    topo.add_edge(2, 4, 1.0)
    topo.add_edge(1, 3, 1.5)
    topo.add_edge(3, 4, 1.5)
    return topo


class TestKPaths:
    def test_single_path_is_shortest(self, two_disjoint):
        paths = k_node_disjoint_paths(two_disjoint, 1, 4, 1)
        assert paths == [[1, 2, 4]]

    def test_two_paths_are_disjoint(self, two_disjoint):
        paths = k_node_disjoint_paths(two_disjoint, 1, 4, 2)
        assert_node_disjoint(paths, 1, 4)
        assert sorted(len(p) for p in paths) == [3, 3]

    def test_too_many_paths_raises(self, two_disjoint):
        with pytest.raises(DisjointPathError):
            k_node_disjoint_paths(two_disjoint, 1, 4, 3)

    def test_trap_topology_requires_rerouting(self):
        """The classic Suurballe trap: the shortest path must be partially
        abandoned to achieve two disjoint paths of minimum total cost."""
        topo = Topology()
        topo.add_edge("s", "a", 1.0)
        topo.add_edge("a", "b", 1.0)
        topo.add_edge("b", "t", 1.0)
        topo.add_edge("s", "b", 10.0)
        topo.add_edge("a", "t", 10.0)
        # Greedy: take s-a-b-t (cost 3), then no disjoint path remains.
        # Optimal: s-a-t (11) + s-b-t (11) = 22.
        paths = k_node_disjoint_paths(topo, "s", "t", 2)
        assert_node_disjoint(paths, "s", "t")
        total = sum(topo.path_weight(p) for p in paths)
        assert total == pytest.approx(22.0)

    def test_total_cost_is_minimal_on_clique(self):
        topo = clique(5, weight=1.0)
        paths = k_node_disjoint_paths(topo, 1, 2, 3)
        assert_node_disjoint(paths, 1, 2)
        # Best: direct (1) + two 2-hop detours (2 + 2) = 5 edges total.
        assert sum(len(p) - 1 for p in paths) == 5

    def test_direct_edge_plus_detour(self):
        topo = ring(5)
        paths = k_node_disjoint_paths(topo, 1, 2, 2)
        assert_node_disjoint(paths, 1, 2)
        assert [1, 2] in paths

    def test_paths_sorted_by_weight(self, two_disjoint):
        paths = k_node_disjoint_paths(two_disjoint, 1, 4, 2)
        weights = [two_disjoint.path_weight(p) for p in paths]
        assert weights == sorted(weights)

    def test_invalid_k_rejected(self, two_disjoint):
        with pytest.raises(TopologyError):
            k_node_disjoint_paths(two_disjoint, 1, 4, 0)

    def test_same_source_dest_rejected(self, two_disjoint):
        with pytest.raises(TopologyError):
            k_node_disjoint_paths(two_disjoint, 1, 1, 1)

    def test_unknown_nodes_rejected(self, two_disjoint):
        with pytest.raises(TopologyError):
            k_node_disjoint_paths(two_disjoint, 1, 99, 1)
        with pytest.raises(TopologyError):
            k_node_disjoint_paths(two_disjoint, 99, 1, 1)

    def test_deterministic(self, two_disjoint):
        a = k_node_disjoint_paths(two_disjoint, 1, 4, 2)
        b = k_node_disjoint_paths(two_disjoint, 1, 4, 2)
        assert a == b


class TestMaxDisjoint:
    def test_ring_has_two(self):
        assert max_node_disjoint_paths(ring(6), 1, 4) == 2

    def test_line_has_one(self):
        assert max_node_disjoint_paths(line(4), 1, 4) == 1

    def test_clique_has_n_minus_one(self):
        assert max_node_disjoint_paths(clique(6), 1, 2) == 5

    def test_disconnected_has_zero(self):
        topo = Topology()
        topo.add_edge(1, 2, 1.0)
        topo.add_edge(3, 4, 1.0)
        assert max_node_disjoint_paths(topo, 1, 3) == 0

    def test_cut_vertex_limits_connectivity(self):
        """Two triangles joined at a single node: connectivity 1."""
        topo = Topology()
        for a, b in [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]:
            topo.add_edge(a, b, 1.0)
        assert max_node_disjoint_paths(topo, 1, 5) == 1


class TestBestEffort:
    def test_returns_what_exists(self):
        topo = line(4)
        paths = best_effort_disjoint_paths(topo, 1, 4, 3)
        assert paths == [[1, 2, 3, 4]]

    def test_caps_at_k(self):
        topo = clique(6)
        paths = best_effort_disjoint_paths(topo, 1, 2, 2)
        assert len(paths) == 2

    def test_disconnected_returns_empty(self):
        topo = Topology()
        topo.add_edge(1, 2, 1.0)
        topo.add_node(3)
        assert best_effort_disjoint_paths(topo, 1, 3, 2) == []


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
    def test_property_random_graphs(self, seed, k):
        rng = random.Random(seed)
        topo = random_connected(10, extra_edges=12, rng=rng)
        nodes = sorted(topo.nodes)
        source, dest = nodes[0], nodes[-1]
        available = max_node_disjoint_paths(topo, source, dest)
        if available >= k:
            paths = k_node_disjoint_paths(topo, source, dest, k)
            assert len(paths) == k
            assert_node_disjoint(paths, source, dest)
        else:
            with pytest.raises(DisjointPathError):
                k_node_disjoint_paths(topo, source, dest, k)
            paths = best_effort_disjoint_paths(topo, source, dest, k)
            assert len(paths) == available
            if paths:
                assert_node_disjoint(paths, source, dest)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_k1_matches_dijkstra(self, seed):
        rng = random.Random(seed)
        topo = random_connected(8, extra_edges=8, rng=rng)
        nodes = sorted(topo.nodes)
        source, dest = nodes[0], nodes[-1]
        [path] = k_node_disjoint_paths(topo, source, dest, 1)
        shortest = topo.shortest_path(source, dest)
        assert topo.path_weight(path) == pytest.approx(topo.path_weight(shortest))
