"""The fitted global cloud must satisfy every documented Table III target."""

import pytest

from repro.topology import global_cloud
from repro.topology.analysis import (
    average_k_paths_metrics,
    average_shortest_metrics,
    minimum_pair_connectivity,
    table3,
)


@pytest.fixture(scope="module")
def topo():
    return global_cloud.topology()


@pytest.fixture(scope="module")
def rows(topo):
    return table3(topo)


class TestStructure:
    def test_twelve_nodes(self, topo):
        assert len(topo.nodes) == 12

    def test_thirty_two_edges(self, topo):
        assert topo.edge_count == 32

    def test_three_regions(self, topo):
        regions = {topo.node_info[n]["region"] for n in topo.nodes}
        assert regions == {"east-asia", "north-america", "europe"}

    def test_at_least_three_disjoint_paths_between_any_two_nodes(self, topo):
        assert minimum_pair_connectivity(topo) >= 3

    def test_flow_7_9_spans_europe_to_east_asia(self, topo):
        assert topo.node_info[7]["region"] == "europe"
        assert topo.node_info[9]["region"] == "east-asia"

    def test_flow_7_9_is_among_longest(self, topo):
        """7→9 is described as a worst-case flow spanning ~half the globe."""
        latency_7_9 = topo.path_weight(topo.shortest_path(7, 9))
        all_latencies = [
            topo.path_weight(topo.shortest_path(a, b)) for a, b in topo.node_pairs()
        ]
        assert latency_7_9 >= sorted(all_latencies)[-5]

    def test_latencies_positive_and_sane(self, topo):
        for a, b in topo.edges():
            assert 0.001 < topo.weight(a, b) < 0.120  # 1ms .. 120ms one-way

    def test_evaluation_flows_are_valid(self, topo):
        for src, dst in global_cloud.EVALUATION_FLOWS:
            assert topo.has_node(src) and topo.has_node(dst)
            assert src != dst


class TestTable3Fit:
    """Tolerances: hops within 10% of the paper, latencies within 10%."""

    def test_k1_avg_hops(self, rows):
        assert rows["K=1"].avg_hops == pytest.approx(1.9, rel=0.10)

    def test_k1_latency(self, rows):
        assert rows["K=1"].avg_path_latency_ms == pytest.approx(41.4, rel=0.10)

    def test_k2_scaled_cost(self, rows):
        assert rows["K=2"].scaled_cost == pytest.approx(2.3, rel=0.10)

    def test_k2_latency(self, rows):
        assert rows["K=2"].avg_path_latency_ms == pytest.approx(43.5, rel=0.10)

    def test_k3_scaled_cost(self, rows):
        assert rows["K=3"].scaled_cost == pytest.approx(3.5, rel=0.10)

    def test_k3_latency(self, rows):
        assert rows["K=3"].avg_path_latency_ms == pytest.approx(46.6, rel=0.10)

    def test_naive_flooding_is_64(self, rows):
        assert rows["Naive Flooding"].avg_hops == 64.0

    def test_engineered_flooding_is_32(self, rows):
        assert rows["Engineered Flooding"].avg_hops == 32.0

    def test_latency_increases_with_k(self, rows):
        assert (
            rows["K=1"].avg_path_latency_ms
            < rows["K=2"].avg_path_latency_ms
            < rows["K=3"].avg_path_latency_ms
        )

    def test_flooding_rows_have_no_latency(self, rows):
        assert rows["Naive Flooding"].avg_path_latency_ms is None
        assert rows["Engineered Flooding"].avg_path_latency_ms is None


class TestGeography:
    def test_great_circle_sanity(self):
        # New York - London is about 5 570 km.
        assert global_cloud.great_circle_km(3, 6) == pytest.approx(5570, rel=0.02)
        # Tokyo - Hong Kong is about 2 890 km.
        assert global_cloud.great_circle_km(9, 12) == pytest.approx(2890, rel=0.03)

    def test_link_latency_formula(self):
        km = global_cloud.great_circle_km(3, 6)
        expected = km * 1.1 / 200_000.0
        assert global_cloud.link_latency(3, 6) == pytest.approx(expected)

    def test_region_of(self):
        assert global_cloud.CITIES[9][3] == "east-asia"
        assert global_cloud.CITIES[6][3] == "europe"


class TestAnalysisHelpers:
    def test_baseline_scaled_cost_is_one(self, topo):
        baseline = average_shortest_metrics(topo)
        assert baseline.scaled_cost == 1.0

    def test_k2_hops_exceed_double_k1(self, topo, rows):
        """Paper: K=2 costs 'more than double' the K=1 baseline."""
        assert rows["K=2"].avg_hops > 2 * rows["K=1"].avg_hops

    def test_k_metrics_monotone(self, topo, rows):
        assert rows["K=1"].avg_hops < rows["K=2"].avg_hops < rows["K=3"].avg_hops

    def test_direct_call_matches_table(self, topo, rows):
        baseline = average_shortest_metrics(topo)
        k2 = average_k_paths_metrics(topo, 2, baseline.avg_hops)
        assert k2.avg_hops == rows["K=2"].avg_hops
