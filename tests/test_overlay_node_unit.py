"""Unit tests for OverlayNode internals: dispatch, guards, CPU model."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.messaging.message import Hello, Message, Semantics
from repro.overlay.config import CryptoMode, DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.cpu import CpuCosts
from repro.topology.generators import line, ring

FAST = OverlayConfig(link_bandwidth_bps=None)


class TestWiring:
    def test_attach_link_requires_mtmw_neighbors(self):
        net = OverlayNetwork.build(ring(4), FAST)
        node = net.node(1)
        with pytest.raises(ConfigurationError):
            node.attach_link(3, node.links[2].por)  # 1 and 3 not adjacent

    def test_connect_rejects_non_neighbors(self):
        net = OverlayNetwork.build(ring(4), FAST)
        node = net.node(1)
        tx, rx = (Channel(net.sim, ChannelConfig(latency=0.001)) for _ in "ab")
        with pytest.raises(ConfigurationError):
            node.connect(3, tx, rx)  # 1 and 3 not adjacent
        assert 3 not in node.links

    def test_connect_builds_keys_counts_and_attaches_the_link_half(self):
        """The one link-half recipe: both halves built independently by
        ``connect`` form a working authenticated, MAC-counted link."""
        net = OverlayNetwork.build(ring(4), FAST)
        ab, ba = (Channel(net.sim, ChannelConfig(latency=0.001)) for _ in "ab")
        link = net.node(1).connect(2, ab, ba)
        peer = net.node(2).connect(1, ba, ab)
        assert net.node(1).links[2] is link
        assert link.por.established and peer.por.established
        assert link.por.config is net.config.por
        signed = net.stats.metrics.counter("crypto.mac_sign")
        verified = net.stats.metrics.counter("crypto.mac_verify")
        assert link.por._mac_counters == (signed, verified)
        before = signed.value, verified.value, net.delivered_count(1, 2)
        net.node(1).send_priority(2)
        net.run(1.0)
        assert net.delivered_count(1, 2) == before[2] + 1
        assert signed.value > before[0] and verified.value > before[1]

    def test_links_match_topology(self):
        net = OverlayNetwork.build(ring(5), FAST)
        for node_id, node in net.nodes.items():
            assert sorted(map(str, node.links)) == sorted(
                map(str, net.topology.neighbors(node_id))
            )

    def test_unknown_node_lookup(self):
        from repro.errors import TopologyError

        net = OverlayNetwork.build(ring(4), FAST)
        with pytest.raises(TopologyError):
            net.node(99)


class TestSendValidation:
    def test_send_priority_assigns_increasing_seqs(self):
        net = OverlayNetwork.build(ring(4), FAST)
        m1 = net.node(1).send_priority(3)
        m2 = net.node(1).send_priority(3)
        assert m2.seq == m1.seq + 1

    def test_send_uses_config_defaults(self):
        config = OverlayConfig(
            link_bandwidth_bps=None, default_priority=7, default_expire_after=3.0
        )
        net = OverlayNetwork.build(ring(4), config)
        message = net.node(1).send_priority(3)
        assert message.priority == 7
        assert message.expiration == pytest.approx(3.0)

    def test_kpaths_degrade_gracefully_when_fewer_exist(self):
        """Requesting K=2 on a line yields the single existing path."""
        net = OverlayNetwork.build(line(3), FAST)
        message = net.node(1).send_priority(3, method=DisseminationMethod.k_paths(2))
        assert message.paths == ((1, 2, 3),)

    def test_unreachable_destination_raises(self):
        from repro.topology.graph import Topology

        topo = Topology()
        topo.add_edge(1, 2, 0.01)
        topo.add_node(3)  # isolated
        net = OverlayNetwork.build(topo, FAST)
        with pytest.raises(ProtocolError):
            net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))

    def test_messages_are_signed_at_source(self):
        net = OverlayNetwork.build(ring(4), FAST)
        message = net.node(1).send_priority(3)
        assert message.verify(net.pki)


class TestCrashGuards:
    def test_crashed_node_ignores_everything(self):
        net = OverlayNetwork.build(ring(4), FAST)
        net.node(1).send_priority(3)
        net.crash(2)
        net.crash(4)
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0

    def test_crash_clears_soft_state(self):
        net = OverlayNetwork.build(ring(4), FAST)
        node = net.node(2)
        node.send_reliable(3)
        assert node.reliable.flows
        net.crash(2)
        assert not node.reliable.flows
        assert len(node.metadata) == 0

    def test_recover_requests_state(self):
        net = OverlayNetwork.build(ring(4), OverlayConfig(link_bandwidth_bps=1e6))
        net.crash(2)
        net.run(1.0)
        net.recover(2)
        net.run(1.0)
        assert not net.node(2).crashed


class TestCpuModel:
    def test_crypto_costs_delay_delivery(self):
        slow = OverlayConfig(
            link_bandwidth_bps=None,
            cpu_costs=CpuCosts(
                rsa_sign=0.010, rsa_verify=0.010, hmac=0.0,
                process_packet=0.010, tx_packet=0.0, duplicate_packet=0.001,
            ),
        )
        net_slow = OverlayNetwork.build(line(3), slow)
        net_fast = OverlayNetwork.build(line(3), FAST)
        for net in (net_slow, net_fast):
            net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
            net.run(2.0)
        slow_lat = net_slow.flow_latency(1, 3).mean()
        fast_lat = net_fast.flow_latency(1, 3).mean()
        # sign + 2x (process + verify) ~ 50 ms slower.
        assert slow_lat > fast_lat + 0.040

    def test_overload_drops_priority_data(self):
        config = OverlayConfig(
            link_bandwidth_bps=1e6,
            cpu_costs=CpuCosts(
                rsa_sign=0.0, rsa_verify=0.0, hmac=0.0,
                process_packet=0.050, tx_packet=0.0, duplicate_packet=0.001,
            ),
            cpu_drop_backlog=0.05,
        )
        net = OverlayNetwork.build(line(3), config)
        for _ in range(50):  # far beyond 20/s CPU capacity at the next hop
            net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(5.0)
        assert net.stats.counter("cpu_overload_drops").value > 0
        assert net.delivered_count(1, 3) < 50

    def test_no_costs_means_no_cpu_events(self):
        net = OverlayNetwork.build(ring(4), FAST)
        net.node(1).send_priority(3)
        net.run(1.0)
        assert net.node(2).cpu.operations == 0


class TestLocalDeliveryStats:
    def test_goodput_and_latency_recorded(self):
        net = OverlayNetwork.build(ring(4), FAST)
        net.node(1).send_priority(3, size_bytes=1234)
        net.run(1.0)
        meter = net.flow_goodput(1, 3)
        assert meter.total_bytes == 1234
        recorder = net.flow_latency(1, 3)
        assert recorder.count == 1
        assert recorder.mean() > 0

    def test_priority_band_series(self):
        net = OverlayNetwork.build(ring(4), FAST)
        net.node(1).send_priority(3, priority=9)
        net.run(1.0)
        series = net.stats.series("priority-count:1->3:9")
        assert len(series) == 1

    def test_on_deliver_callback_sees_payload(self):
        net = OverlayNetwork.build(ring(4), FAST)
        seen = []
        net.node(3).on_deliver = lambda m: seen.append(m.payload)
        net.node(1).send_priority(3, payload={"k": 1})
        net.run(1.0)
        assert seen == [{"k": 1}]


class TestHelloMonitoring:
    def test_hellos_keep_links_up(self):
        net = OverlayNetwork.build(ring(4), OverlayConfig(link_bandwidth_bps=1e6))
        net.run(10.0)
        for node in net.nodes.values():
            for link in node.links.values():
                assert link.monitor_up

    def test_hello_from_wrong_sender_ignored(self):
        net = OverlayNetwork.build(ring(4), OverlayConfig(link_bandwidth_bps=1e6))
        link = net.node(1).links[2]
        before = link.last_heard
        net.run(0.5)
        link._on_hello(Hello(sender=99, stamp=1))  # spoofed sender id
        assert link.last_heard == before


class TestRealCryptoMode:
    def test_end_to_end_with_real_rsa(self):
        """The full overlay runs with the from-scratch RSA stack."""
        config = OverlayConfig(link_bandwidth_bps=None, crypto=CryptoMode.REAL)
        net = OverlayNetwork.build(ring(3), config, seed=2)
        net.node(1).send_priority(3)
        net.node(1).send_reliable(2)
        net.run(3.0)
        assert net.delivered_count(1, 3) == 1
        assert net.delivered_count(1, 2) == 1

    def test_real_mode_rejects_tampering(self):
        import dataclasses

        from repro.byzantine.behaviors import Behavior

        class Tamper(Behavior):
            def filter_outgoing(self, payload, neighbor, node):
                if isinstance(payload, Message):
                    return dataclasses.replace(payload, priority=10)
                return payload

        config = OverlayConfig(link_bandwidth_bps=None, crypto=CryptoMode.REAL)
        net = OverlayNetwork.build(line(3), config, seed=2)
        net.compromise(2, Tamper())
        net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0
        assert net.node(3).invalid_messages_rejected > 0
