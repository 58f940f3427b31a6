"""Tests for traffic generators, the monitoring workload, and the harness."""

import pytest

from repro.errors import ConfigurationError
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import ring
from repro.workloads.experiment import (
    DEFAULT_PAYLOAD,
    SCALE,
    SCALED_LINK_BPS,
    Deployment,
)
from repro.workloads.monitoring import DEFAULT_CLASSES, MonitoringWorkload
from repro.workloads.traffic import CbrTraffic
from tests.fixtures import ReliableBacklogTraffic

PACED = OverlayConfig(link_bandwidth_bps=1e6)


class TestCbrTraffic:
    def test_rate_is_respected(self):
        net = OverlayNetwork.build(ring(4), PACED)
        flow = CbrTraffic(net, 1, 3, rate_bps=2e5, size_bytes=882)
        flow.start()
        net.run(10.0)
        goodput = net.flow_goodput(1, 3).average_mbps(1.0, 10.0)
        assert goodput == pytest.approx(0.2, rel=0.15)

    def test_priority_cycle(self):
        net = OverlayNetwork.build(ring(4), PACED)
        seen = []
        net.node(3).on_deliver = lambda m: seen.append(m.priority)
        flow = CbrTraffic(
            net, 1, 3, rate_bps=1e5, priority_cycle=list(range(1, 11))
        )
        flow.start()
        net.run(15.0)
        assert set(seen) == set(range(1, 11))

    def test_reliable_semantics_counts_backpressure(self):
        config = OverlayConfig(link_bandwidth_bps=1e5, reliable_buffer=4)
        net = OverlayNetwork.build(ring(4), config)
        flow = CbrTraffic(net, 1, 3, rate_bps=5e5, semantics=Semantics.RELIABLE)
        flow.start()
        net.run(5.0)
        assert flow.backpressured > 0

    def test_invalid_rate(self):
        net = OverlayNetwork.build(ring(4), PACED)
        with pytest.raises(ConfigurationError):
            CbrTraffic(net, 1, 3, rate_bps=0)

    def test_schedule_start_stop(self):
        net = OverlayNetwork.build(ring(4), PACED)
        flow = CbrTraffic(net, 1, 3, rate_bps=1e5)
        flow.schedule(start_at=1.0, stop_at=2.0)
        net.run(5.0)
        sent = flow.messages_sent
        assert sent > 0
        net.run(5.0)
        assert flow.messages_sent == sent


class TestReliableBacklog:
    def test_completes_exact_count(self):
        net = OverlayNetwork.build(ring(4), PACED)
        transfer = ReliableBacklogTraffic(net, 1, 3, count=80)
        transfer.start()
        net.run(30.0)
        assert transfer.done
        assert net.delivered_count(1, 3) == 80


class TestMonitoringWorkload:
    def test_all_nodes_report_to_sink(self):
        net = OverlayNetwork.build(ring(5), PACED)
        workload = MonitoringWorkload(net, sinks=[1], method=DisseminationMethod.flooding())
        workload.start()
        net.run(8.0)
        for reporter in (2, 3, 4, 5):
            assert net.delivered_count(reporter, 1) > 0

    def test_view_staleness_bounded_by_period(self):
        net = OverlayNetwork.build(ring(5), PACED)
        workload = MonitoringWorkload(net, sinks=[1], method=DisseminationMethod.flooding())
        workload.start()
        net.run(10.0)
        staleness = workload.view_staleness(sink=1, at_time=10.0)
        assert len(staleness) == 4
        assert max(staleness) < 3.0  # status class period is 1 s (+jitter)

    def test_method_switch(self):
        net = OverlayNetwork.build(ring(5), PACED)
        workload = MonitoringWorkload(net, sinks=[1])
        workload.start()
        net.run(3.0)
        workload.set_method(DisseminationMethod.flooding())
        net.run(3.0)
        assert workload.messages_sent > 0

    def test_default_classes_shape(self):
        assert all(c.size_bytes < 3500 for c in DEFAULT_CLASSES)
        assert all(1.0 <= c.period <= 3.0 for c in DEFAULT_CLASSES)


class TestDeployment:
    def test_scaled_capacity(self):
        assert SCALED_LINK_BPS == pytest.approx(10e6 / SCALE)

    def test_flow_result_shape(self):
        deployment = Deployment(seed=1)
        deployment.add_flow(9, 11, rate_fraction=0.3)
        deployment.run(10.0)
        result = deployment.flow_result(9, 11, window=(2.0, 10.0))
        assert result.delivered > 0
        assert result.goodput_fraction_of_capacity == pytest.approx(0.3, rel=0.25)
        assert result.mean_latency > 0

    def test_dissemination_cost_counts_hops(self):
        deployment = Deployment(seed=2)
        deployment.network.client(1).send_priority(9)
        deployment.run(2.0)
        # Flooding on the 32-edge cloud: cost between engineered (32)
        # and naive (64).
        assert 30.0 <= deployment.dissemination_cost() <= 64.0

    def test_fair_share(self):
        from repro.workloads.experiment import WIRE_BYTES

        deployment = Deployment(seed=3)
        efficiency = DEFAULT_PAYLOAD / WIRE_BYTES
        assert deployment.fair_share_mbps(5) == pytest.approx(0.2 * efficiency)
        assert deployment.fair_share_mbps(1) == pytest.approx(1.0 * efficiency)
