"""Integration tests: full overlay networks end to end."""

import pytest

from repro.byzantine.behaviors import (
    CorruptingBehavior,
    DelayingBehavior,
    DroppingBehavior,
    DuplicatingBehavior,
    SelectiveDropBehavior,
)
from repro.errors import ProtocolError
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import clique, ring
from tests.fixtures import line
from repro.topology import global_cloud

FAST = OverlayConfig(link_bandwidth_bps=None)           # no pacing: logic tests
PACED = OverlayConfig(link_bandwidth_bps=1e6)           # 1 Mbps scaled links


def build(topo, config=FAST, seed=0):
    return OverlayNetwork.build(topo, config, seed=seed)


def drain_reliable(net, node, dest, count, size=1000, method=None, interval=0.02):
    """Send ``count`` reliable messages, retrying under back-pressure."""
    sent = [0]

    def tick():
        while sent[0] < count and node.send_reliable(dest, size_bytes=size, method=method):
            sent[0] += 1
        if sent[0] < count:
            net.sim.schedule(interval, tick)

    tick()
    return sent


class TestPriorityDelivery:
    def test_flooding_delivers_to_destination(self):
        net = build(ring(6))
        net.client(1).send_priority(4)
        net.run(1.0)
        assert net.delivered_count(1, 4) == 1

    def test_flooding_delivers_exactly_once(self):
        net = build(clique(5))
        for _ in range(10):
            net.client(1).send_priority(3)
        net.run(1.0)
        assert net.delivered_count(1, 3) == 10

    def test_latency_close_to_shortest_path(self):
        topo = global_cloud.topology()
        net = build(topo)
        net.client(7).send_priority(9)
        net.run(2.0)
        recorder = net.flow_latency(7, 9)
        shortest = topo.path_weight(topo.shortest_path(7, 9))
        assert recorder.count == 1
        assert shortest <= recorder.mean() < shortest + 0.050

    def test_k_paths_delivery(self):
        net = build(global_cloud.topology())
        for k in (1, 2, 3):
            net.client(1).send_priority(9, method=DisseminationMethod.k_paths(k))
        net.run(2.0)
        assert net.delivered_count(1, 9) == 3

    def test_expired_messages_not_delivered(self):
        net = build(ring(6, weight=0.200))  # 200 ms per hop
        net.client(1).send_priority(4, expire_after=0.100)  # expires in flight
        net.run(5.0)
        assert net.delivered_count(1, 4) == 0

    def test_crashed_source_cannot_send(self):
        net = build(ring(4))
        net.crash(1)
        with pytest.raises(ProtocolError):
            net.node(1).send_priority(3)


class TestReliableDelivery:
    def test_in_order_exactly_once(self):
        net = build(ring(5), PACED)
        received = []
        net.node(3).on_deliver = lambda m: received.append(m.seq)
        drain_reliable(net, net.node(1), 3, 50)
        net.run(20.0)
        assert received == list(range(1, 51))

    def test_k_paths_reliable(self):
        net = build(global_cloud.topology(), PACED)
        method = DisseminationMethod.k_paths(2)
        drain_reliable(net, net.node(7), 9, 30, method=method)
        net.run(20.0)
        assert net.delivered_count(7, 9) == 30

    def test_backpressure_blocks_source(self):
        config = OverlayConfig(link_bandwidth_bps=1e6, reliable_buffer=8)
        net = build(ring(4), config)
        node = net.node(1)
        accepted = 0
        for _ in range(50):
            if node.send_reliable(3, size_bytes=1000):
                accepted += 1
        assert accepted == 8  # buffer filled; back-pressure to the app
        net.run(10.0)
        assert node.reliable_can_send(3)  # cleared after E2E acks

    def test_bidirectional_flows(self):
        net = build(ring(5), PACED)
        drain_reliable(net, net.node(1), 3, 20)
        drain_reliable(net, net.node(3), 1, 20)
        net.run(20.0)
        assert net.delivered_count(1, 3) == 20
        assert net.delivered_count(3, 1) == 20

    def test_no_e2e_ack_ablation_still_delivers(self):
        config = OverlayConfig(link_bandwidth_bps=1e6, e2e_acks_enabled=False)
        net = build(ring(5), config)
        drain_reliable(net, net.node(1), 3, 30)
        net.run(30.0)
        assert net.delivered_count(1, 3) == 30


class TestLossTolerance:
    def test_reliable_flow_survives_heavy_loss(self):
        config = OverlayConfig(link_bandwidth_bps=1e6, channel_loss_rate=0.25)
        net = build(ring(5), config, seed=7)
        received = []
        net.node(3).on_deliver = lambda m: received.append(m.seq)
        drain_reliable(net, net.node(1), 3, 40)
        net.run(60.0)
        assert received == list(range(1, 41))

    def test_priority_flooding_under_loss(self):
        """Flooding + reliable links deliver despite loss."""
        config = OverlayConfig(link_bandwidth_bps=1e6, channel_loss_rate=0.2)
        net = build(clique(5), config, seed=8)
        for _ in range(20):
            net.client(1).send_priority(3, expire_after=20.0)
        net.run(30.0)
        assert net.delivered_count(1, 3) == 20


class TestByzantineForwarders:
    def test_flooding_overcomes_black_hole(self):
        """K-1 = any number of droppers: flooding delivers while a correct
        path exists."""
        net = build(clique(5))
        net.compromise(2, DroppingBehavior())
        net.compromise(3, DroppingBehavior())
        for _ in range(5):
            net.client(1).send_priority(5)
        net.run(2.0)
        assert net.delivered_count(1, 5) == 5

    def test_k2_paths_overcome_one_compromised_node(self):
        net = build(clique(5))
        net.compromise(2, DroppingBehavior())
        for _ in range(5):
            net.client(1).send_priority(5, method=DisseminationMethod.k_paths(2))
        net.run(2.0)
        assert net.delivered_count(1, 5) == 5

    def test_k1_path_fails_through_compromised_node(self):
        """Single-path routing through a black hole loses the message."""
        topo = line(3)  # 1 - 2 - 3: node 2 is unavoidable
        net = build(topo)
        net.compromise(2, DroppingBehavior())
        net.client(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0

    def test_flooding_fails_only_when_no_correct_path(self):
        """Optimality boundary: cut all correct paths and delivery stops."""
        net = build(ring(4))
        net.compromise(2, DroppingBehavior())
        net.compromise(4, DroppingBehavior())
        net.client(1).send_priority(3)
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0

    def test_corrupted_messages_rejected_by_signature(self):
        topo = line(3)
        net = build(topo)
        net.compromise(2, CorruptingBehavior(mutate_field="priority"))
        net.client(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0
        assert net.node(3).invalid_messages_rejected > 0

    def test_replay_duplicates_suppressed(self):
        net = build(ring(4), PACED)
        net.compromise(2, DuplicatingBehavior(copies=3))
        for _ in range(10):
            net.client(1).send_priority(3)
        net.run(5.0)
        assert net.delivered_count(1, 3) == 10  # exactly once despite replays

    def test_delaying_forwarder_cannot_stop_flooding(self):
        net = build(ring(4))
        net.compromise(2, DelayingBehavior(delay=5.0))
        net.client(1).send_priority(3)
        net.run(2.0)
        # Delivered promptly via the other direction of the ring.
        assert net.delivered_count(1, 3) == 1

    def test_selective_drop_of_one_flow(self):
        net = build(line(3))
        net.compromise(2, SelectiveDropBehavior(lambda m: m.flow == (1, 3)))
        net.client(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(1.0)
        net.client(3).send_priority(1, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0
        assert net.delivered_count(3, 1) == 1

    def test_reliable_flooding_overcomes_byzantine_forwarder(self):
        net = build(clique(4), PACED)
        net.compromise(2, DroppingBehavior())
        drain_reliable(net, net.node(1), 4, 20)
        net.run(20.0)
        assert net.delivered_count(1, 4) == 20


class TestCrashRecovery:
    def test_reliable_survives_partition_and_recovery(self):
        net = build(ring(4), PACED)
        sent = drain_reliable(net, net.node(1), 3, 100)
        net.run(0.4)
        net.crash(2)
        net.crash(4)  # full partition between 1 and 3
        net.run(4.0)
        during = net.delivered_count(1, 3)
        net.recover(2)
        net.run(30.0)
        assert sent[0] == 100
        assert net.delivered_count(1, 3) == 100
        assert during < 100

    def test_delivery_remains_in_order_across_crash(self):
        net = build(ring(4), PACED)
        received = []
        net.node(3).on_deliver = lambda m: received.append(m.seq)
        drain_reliable(net, net.node(1), 3, 60)
        net.run(1.5)
        net.crash(2)
        net.run(3.0)
        net.recover(2)
        net.run(30.0)
        assert received == list(range(1, 61))

    def test_priority_messages_reroute_around_crash(self):
        net = build(ring(4))
        net.crash(2)
        net.client(1).send_priority(3)
        net.run(2.0)
        assert net.delivered_count(1, 3) == 1


class TestLinkMonitoring:
    def test_failed_link_detected_and_routed_around(self):
        net = build(ring(4), PACED)
        net.fail_link(1, 2)
        net.run(6.0)  # hellos time out, weights flood
        routing = net.node(1).routing
        assert not routing.is_link_usable(1, 2)
        # K=1 routing now avoids the dead link.
        net.client(1).send_priority(2, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 2) == 1

    def test_restored_link_comes_back(self):
        net = build(ring(4), PACED)
        net.fail_link(1, 2)
        net.run(6.0)
        assert not net.node(3).routing.is_link_usable(1, 2)
        net.restore_link(1, 2)
        net.run(6.0)
        assert net.node(3).routing.is_link_usable(1, 2)


class TestFairnessUnderAttack:
    def test_correct_priority_flow_keeps_its_share(self):
        net = build(ring(4), PACED, seed=4)
        honest = net.node(1)
        attacker = net.node(2)

        def honest_tick():
            if net.sim.now < 10.0:
                honest.send_priority(3, size_bytes=1186, priority=5)
                net.sim.schedule(0.0475, honest_tick)  # ~0.2 Mbps

        def spam_tick():
            if net.sim.now < 10.0:
                for _ in range(4):
                    attacker.send_priority(4, size_bytes=1186, priority=10)
                net.sim.schedule(0.02, spam_tick)  # ~1.9 Mbps demand

        honest_tick()
        spam_tick()
        net.run(14.0)
        goodput = net.flow_goodput(1, 3).average_mbps(3.0, 10.0)
        # The honest flow requests less than its fair share and gets it.
        assert goodput > 0.8 * 0.2
