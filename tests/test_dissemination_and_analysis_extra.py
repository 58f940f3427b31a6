"""Additional coverage: analysis edge cases, generators, stats registry."""

import pytest

from repro.errors import TopologyError
from repro.topology.analysis import (
    average_shortest_metrics,
    engineered_flooding_cost,
    naive_flooding_cost,
    table3,
)
from repro.topology.disjoint import DisjointPathError
from repro.topology.generators import chordal_ring
from tests.fixtures import random_k_connected
from repro.topology.graph import Topology
from repro.topology import global_cloud


class TestAnalysisEdgeCases:
    def test_disconnected_topology_rejected(self):
        topo = Topology()
        topo.add_edge(1, 2, 1.0)
        topo.add_node(3)
        with pytest.raises(DisjointPathError):
            average_shortest_metrics(topo)

    def test_flooding_costs_use_edge_count(self):
        topo = Topology()
        for a, b in [(1, 2), (2, 3), (3, 1)]:
            topo.add_edge(a, b, 1.0)
        assert naive_flooding_cost(topo, baseline_hops=1.0).avg_hops == 6.0
        assert engineered_flooding_cost(topo, baseline_hops=1.0).avg_hops == 3.0
        assert naive_flooding_cost(topo, baseline_hops=2.0).scaled_cost == 3.0

    def test_table3_rows_complete(self):
        topo = chordal_ring(8)
        rows = table3(topo, ks=(1, 2))
        assert set(rows) == {"K=1", "K=2", "Naive Flooding", "Engineered Flooding"}


class TestGenerators:
    def test_chordal_ring_regularity(self):
        topo = chordal_ring(8, chords=2)
        assert all(topo.degree(v) >= 4 for v in topo.nodes)

    def test_random_k_connected_meets_requirement(self):
        from repro.topology.analysis import minimum_pair_connectivity

        topo = random_k_connected(8, k=3)
        assert minimum_pair_connectivity(topo) >= 3

    def test_global_cloud_evaluation_flows_multi_region(self):
        regions = {
            global_cloud.CITIES[s][3] for s, _ in global_cloud.EVALUATION_FLOWS
        } | {global_cloud.CITIES[d][3] for _, d in global_cloud.EVALUATION_FLOWS}
        assert len(regions) == 3  # the flows span all three continents


class TestFloodingCorrectnessAtScale:
    def test_every_pair_deliverable_on_cloud(self):
        """Constrained flooding delivers between every node pair of the
        deployment topology (smoke-level completeness)."""
        from repro.overlay.config import OverlayConfig
        from repro.overlay.network import OverlayNetwork

        net = OverlayNetwork.build(
            global_cloud.topology(), OverlayConfig(link_bandwidth_bps=None)
        )
        pairs = [(1, 9), (9, 1), (6, 12), (12, 6), (5, 8), (11, 7)]
        for source, dest in pairs:
            net.node(source).send_priority(dest)
        net.run(3.0)
        for source, dest in pairs:
            assert net.delivered_count(source, dest) == 1, (source, dest)

    def test_k3_paths_exist_for_all_pairs(self):
        from repro.topology.disjoint import k_node_disjoint_paths

        topo = global_cloud.topology()
        for a, b in list(topo.node_pairs())[:20]:
            paths = k_node_disjoint_paths(topo, a, b, 3)
            assert len(paths) == 3
