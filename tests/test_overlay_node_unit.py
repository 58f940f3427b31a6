"""Unit tests for OverlayNode internals: dispatch, guards, CPU model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.messaging.message import Hello, Message, Semantics
from repro.overlay.config import CryptoMode, DisseminationMethod, OverlayConfig
from repro.overlay import node as node_module
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
        signed = net.stats.counter("crypto.mac_sign")
        verified = net.stats.counter("crypto.mac_verify")
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

    def test_send_uses_config_defaults(self, monkeypatch):
        monkeypatch.setattr(node_module, "DEFAULT_PRIORITY", 7)
        config = OverlayConfig(link_bandwidth_bps=None, default_expire_after=3.0)
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


# ----------------------------------------------------------------------
# LinkSender.send_if_idle: the direct send is the queue path, minus the queue
# ----------------------------------------------------------------------
class FakePor:
    """A PoR endpoint reduced to what ``LinkSender`` drives: a send
    window, optional pacing (busy for ``tx_time`` after every send, like
    a simulated channel), and a record of what was transmitted."""

    def __init__(self, sim, window, tx_time):
        self.sim, self.window, self.tx_time = sim, window, tx_time
        self.in_flight = 0
        self.busy_until = 0.0
        self.sent = []
        self.on_deliver = self.on_ready = self.on_hello = None

    def can_accept(self):
        return self.in_flight < self.window and self.sim.now >= self.busy_until

    def time_until_ready(self):
        if self.in_flight >= self.window:
            return None
        return max(0.0, self.busy_until - self.sim.now)

    def send(self, payload, size):
        assert self.can_accept()
        self.sent.append((getattr(payload, "uid", payload), size))
        self.in_flight += 1
        self.busy_until = self.sim.now + self.tx_time

    def ack(self):
        if self.in_flight:
            self.in_flight -= 1
            self.on_ready()


class DirectSendHarness:
    """Node 1 of a 3-clique with fake links to 2 (window-limited only,
    like a live link) and 3 (also paced, like a simulated one)."""

    def __init__(self, direct, capacity=4, config=None):
        from repro.crypto.pki import Pki
        from repro.overlay.node import OverlayNode
        from repro.sim.engine import Simulator
        from repro.sim.stats import StatsRegistry
        from repro.topology.generators import clique
        from repro.topology.mtmw import Mtmw

        config = config or OverlayConfig(
            link_bandwidth_bps=None, priority_queue_capacity=capacity
        )
        self.sim = Simulator(seed=0)
        self.stats = StatsRegistry(self.sim)
        pki = Pki(mode=config.crypto.pki_mode, seed=0)
        topology = clique(3)
        for node_id in topology.nodes:
            pki.register(node_id)
        self.node = OverlayNode(
            self.sim, 1, Mtmw.create(topology, pki), pki, config, self.stats
        )
        self.links = {
            2: self.node.attach_link(2, FakePor(self.sim, window=2, tx_time=0.0)),
            3: self.node.attach_link(3, FakePor(self.sim, window=3, tx_time=0.01)),
        }
        if not direct:
            for link in self.links.values():
                link.send_if_idle = lambda message, now: False
        self.seqs = {}

    def message(self, source, priority=1, lifetime=1.0):
        seq = self.seqs[source] = self.seqs.get(source, 0) + 1
        return Message(
            source=source, dest=99, seq=seq, semantics=Semantics.PRIORITY,
            priority=priority, expiration=self.sim.now + lifetime, size_bytes=100,
            flooding=True, sent_at=self.sim.now,
        )

    def forward(self, source, priority, lifetime):
        self.node.priority._forward(self.message(source, priority, lifetime), None)

    def cancel_oldest(self, neighbor):
        queue = self.links[neighbor].priority_queue
        if queue._index:
            queue.cancel(next(iter(queue._index)))

    def snapshot(self):
        state = {}
        for neighbor, link in self.links.items():
            queue = link.priority_queue
            state[neighbor] = (
                list(link.por.sent), link.por.in_flight, queue._rr.keys(),
                len(queue), sorted(queue._index), sorted(queue.active_sources()),
                queue.dropped_expired, queue.dropped_for_space,
                queue.cancelled_by_feedback, link.data_transmissions,
                link._serve_reliable_next, link._pump_pending,
            )
        state["counters"] = {
            name: self.stats.counter(name).value
            for name in ("data_transmissions", "tx.priority.messages", "tx.priority.bytes")
        }
        return state


DIRECT_SEND_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("forward"), st.sampled_from(["a", "b", "c"]),
            st.integers(1, 3), st.sampled_from([-1.0, 0.015, 1.0]),
        ),
        st.tuples(st.just("ack"), st.sampled_from([2, 3])),
        st.tuples(st.just("cancel"), st.sampled_from([2, 3])),
        st.tuples(st.just("wait"), st.sampled_from([0.004, 0.02])),
    ),
    max_size=60,
)


class TestDirectSend:
    @given(ops=DIRECT_SEND_OPS)
    @settings(max_examples=300, deadline=None)
    def test_direct_send_is_state_equivalent_to_offer_then_pump(self, ops):
        """Random forwards, ACKs, full windows, pacing, expiry and
        cancels: after every step the node that sends directly and the
        node forced through ``offer`` + ``pump`` have transmitted the same
        messages in the same order and hold the same queue state."""
        direct, queued = DirectSendHarness(True), DirectSendHarness(False)
        for op in ops:
            for harness in (direct, queued):
                if op[0] == "forward":
                    harness.forward(*op[1:])
                elif op[0] == "ack":
                    harness.links[op[1]].por.ack()
                elif op[0] == "cancel":
                    harness.cancel_oldest(op[1])
                else:
                    harness.sim.run(until=harness.sim.now + op[1])
            assert direct.snapshot() == queued.snapshot(), op

    def test_a_stale_source_keeps_the_front_when_the_link_went_busy(self):
        """What the direct send must reproduce on a paced link (and what
        a plain 'clear the round-robin' would not): a source served while
        the link then turned busy is not pruned, so it is served first
        once a backlog forms.  ROADMAP records this as a fidelity
        follow-up; the simulator's output depends on it."""
        harness = DirectSendHarness(True)
        link = harness.links[3]
        harness.forward("a", 1, 1.0)  # direct; link 3 is now busy (paced)
        assert link.priority_queue._rr.keys() == ["a"]
        harness.forward("b", 1, 1.0)
        harness.forward("a", 1, 1.0)
        assert link.priority_queue._rr.keys() == ["a", "b"]
        harness.sim.run(until=harness.sim.now + 0.05)
        assert [uid[1] for uid, _ in link.por.sent] == ["a", "a", "b"]
        # On the unpaced link the poll after the send pruned it.
        assert [uid[1] for uid, _ in harness.links[2].por.sent] == ["a", "b"]

    def test_direct_send_accounts_like_pump(self):
        harness = DirectSendHarness(True)
        harness.forward("a", 1, 1.0)
        link = harness.links[2]
        size = 100 + 64 + harness.node.signature_size
        assert link.por.sent == [(("priority", "a", "99", 1), size)]
        assert link.data_transmissions == 1 and len(link.priority_queue) == 0
        assert harness.stats.counter("tx.priority.bytes").value == 2 * size
        harness.forward("a", 1, -1.0)  # already expired: counted, not sent
        assert link.priority_queue.dropped_expired == 1
        assert len(link.por.sent) == 1

    @pytest.mark.parametrize("block", [
        "byzantine", "cpu", "crashed", "not-neighbor", "control", "reliable",
        "backlog", "window",
    ])
    def test_direct_send_is_not_taken(self, block):
        from repro.byzantine.behaviors import Behavior
        from repro.messaging.message import StateRequest

        config = None
        if block == "cpu":
            config = OverlayConfig(
                link_bandwidth_bps=None, cpu_costs=CpuCosts(tx_packet=1e-4)
            )
        harness = DirectSendHarness(True, config=config)
        node, link = harness.node, harness.links[2]
        if block == "byzantine":
            class Dropper(Behavior):
                def filter_outgoing(self, payload, neighbor, node):
                    return None

            node.behavior = Dropper()
        elif block == "crashed":
            node.crashed = True
        elif block == "not-neighbor":
            # The administrator removes the 1-2 edge from the MTMW.
            topology = node.mtmw.topology.copy()
            topology.remove_edge(1, 2)
            node.adopt_mtmw(node.mtmw.successor(topology, node.pki))
            for other in harness.links.values():
                other.por.sent.clear()  # the MTMW itself was flooded
                other.por.in_flight = 0
                other.control.clear()
        elif block == "control":
            link.enqueue_control(StateRequest(1), StateRequest.WIRE_SIZE)
        elif block == "reliable":
            link.reliable.rr.activate(("x", "y"))
        elif block == "backlog":
            link.por.in_flight = link.por.window
            harness.forward("z", 1, 1.0)
            assert len(link.priority_queue) == 1
        elif block == "window":
            link.por.in_flight = link.por.window
        sent_before = list(link.por.sent)
        message = harness.message("a")
        assert link.send_if_idle(message, harness.sim.now) is False
        assert link.por.sent == sent_before and link.data_transmissions == 0
        # ...and the queue path then applies what the direct send skipped.
        node.priority._forward(message, None)
        if block == "backlog":
            link.por.in_flight = 1
            link.por.ack()  # the wake-up a backlogged link waits for
        harness.sim.run(until=harness.sim.now + 0.01)
        uids = [uid for uid, _ in link.por.sent]
        if block in ("byzantine", "crashed", "not-neighbor", "window"):
            assert message.uid not in uids
        else:
            assert message.uid in uids
        if block in ("crashed", "not-neighbor", "window"):
            assert len(link.priority_queue) == 1  # stored, waiting
