"""Fault timing edge cases: failures that land mid-protocol.

These tests pin the hairiest interleavings the chaos engine can produce:
a link dying in the middle of the PoR Diffie-Hellman handshake, a node
crashing while end-to-end ACKs for its reliable flow are still in flight,
and a link flapping during an active retransmission storm.
"""

from repro.crypto.pki import Pki, PkiMode
from repro.faults.invariants import InvariantMonitor
from repro.link.por import PorConfig
from tests.fixtures import connect_por_pair
from repro.messaging.message import Semantics
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator
from repro.topology.generators import chordal_ring, ring

FAST = OverlayConfig(link_bandwidth_bps=None)


def make_handshake_link(seed=0, latency=0.010, loss=0.0):
    sim = Simulator(seed=seed)
    pki = Pki(mode=PkiMode.REAL, seed=seed, rsa_bits=256)
    pki.register("a")
    pki.register("b")
    cfg = ChannelConfig(latency=latency, loss_rate=loss)
    ab = Channel(sim, cfg, name="a->b")
    ba = Channel(sim, cfg, name="b->a")
    end_a, end_b = connect_por_pair(
        sim, "a", "b", ab, ba, pki,
        config=PorConfig(initial_rto=0.1, min_rto=0.05), handshake=True,
    )
    delivered_b = []
    end_b.on_deliver = lambda p, s: delivered_b.append(p)
    return sim, end_a, end_b, ab, ba, delivered_b


class TestLinkFailureMidHandshake:
    def test_offer_lost_link_establishes_after_restore(self):
        # The channel dies before the first offer arrives; the initiator's
        # capped retry loop must complete the handshake once it heals.
        sim, a, b, ab, ba, delivered_b = make_handshake_link()
        ab.take_down()
        sim.run(until=1.0)
        assert not a.established and not b.established
        ab.restore()
        sim.run(until=5.0)
        assert a.established and b.established
        a.send("post-heal", 100)
        sim.run(until=6.0)
        assert delivered_b == ["post-heal"]

    def test_answer_lost_link_establishes_after_restore(self):
        # The reverse direction dies mid-exchange: the responder's half is
        # lost, so the initiator believes the handshake is still pending
        # while the responder considers it done.  The initiator's re-offer
        # and the responder's re-answer must converge.
        sim, a, b, ab, ba, delivered_b = make_handshake_link()
        ba.take_down()
        sim.run(until=1.0)
        assert not a.established
        ba.restore()
        sim.run(until=5.0)
        assert a.established and b.established
        a.send("converged", 100)
        sim.run(until=6.0)
        assert delivered_b == ["converged"]

    def test_handshake_attempts_are_capped(self):
        sim, a, b, ab, ba, _ = make_handshake_link()
        ab.take_down()
        sim.run(until=600.0)
        assert not a.established
        # Retries stopped (bounded attempts), not an infinite offer storm.
        assert ab.packets_sent <= a.MAX_HANDSHAKE_ATTEMPTS


class TestCrashWithInFlightE2eAcks:
    def test_dest_crash_with_acks_in_flight(self):
        net = OverlayNetwork.build(ring(5), FAST, seed=1)
        monitor = InvariantMonitor(net)
        monitor.arm()
        client = net.client(1)
        sent = 0
        while sent < 10 and client.send_reliable(3, size_bytes=400):
            sent += 1
        # Long enough for deliveries and for E2E ACKs to be generated
        # (e2e_ack_timeout=0.5) and still be crossing the network.
        net.run(0.7)
        net.crash(3)
        net.run(2.0)
        net.recover(3)
        net.run(5.0)
        # New incarnation: the flow restarts cleanly and stays in order.
        more = 0
        while more < 5 and client.send_reliable(3, size_bytes=400):
            more += 1
        net.run(10.0)
        assert monitor.ok, monitor.report()

    def test_source_crash_with_acks_in_flight(self):
        net = OverlayNetwork.build(ring(5), FAST, seed=2)
        monitor = InvariantMonitor(net)
        monitor.arm()
        client = net.client(1)
        sent = 0
        while sent < 10 and client.send_reliable(3, size_bytes=400):
            sent += 1
        net.run(0.7)
        net.crash(1)  # E2E ACKs toward node 1 are now undeliverable
        net.run(2.0)
        net.recover(1)
        net.run(5.0)
        delivered_before = net.delivered_count(1, 3)
        more = 0
        while more < 5 and client.send_reliable(3, size_bytes=400):
            more += 1
        net.run(10.0)
        assert net.delivered_count(1, 3) >= delivered_before
        assert monitor.ok, monitor.report()


class TestFlapDuringRetransmission:
    def test_por_flap_during_retransmission(self):
        # A lossy link is mid-retransmission when it flaps hard; once
        # restored, the PoR window must still deliver everything in order.
        sim = Simulator(seed=3)
        pki = Pki(mode=PkiMode.SIMULATED, seed=3, rsa_bits=256)
        pki.register("a")
        pki.register("b")
        cfg = ChannelConfig(latency=0.010, loss_rate=0.3)
        ab = Channel(sim, cfg, name="a->b")
        ba = Channel(sim, cfg, name="b->a")
        a, b = connect_por_pair(
            sim, "a", "b", ab, ba, pki,
            config=PorConfig(initial_rto=0.1, min_rto=0.05),
        )
        delivered = []
        b.on_deliver = lambda p, s: delivered.append(p)
        for i in range(60):
            a.send(i, 100)
        sim.run(until=0.5)
        assert a.data_retransmitted > 0 or ab.packets_lost > 0
        ab.take_down()
        ba.take_down()
        sim.run(until=3.0)
        ab.restore()
        ba.restore()
        sim.run(until=60.0)
        assert delivered == list(range(60))

    def test_overlay_flap_during_reliable_retransmission(self):
        net = OverlayNetwork.build(chordal_ring(6), FAST, seed=4)
        monitor = InvariantMonitor(net)
        monitor.arm()
        client = net.client(1)
        sent = 0
        while sent < 20 and client.send_reliable(4, size_bytes=400):
            sent += 1
        net.run(0.05)  # messages in flight on the first hop
        net.fail_link(1, 2)
        net.run(3.0)
        net.restore_link(1, 2)
        net.run(30.0)
        assert net.delivered_count(1, 4) == sent
        assert monitor.ok, monitor.report()
