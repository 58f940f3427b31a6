"""Unit tests for the Proof-of-Receipt link."""

import pytest

from repro.crypto.pki import Pki, PkiMode
from repro.errors import ConfigurationError, ProtocolError
from repro.link import por
from repro.link.por import PorConfig, connect_por_pair
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator


def make_link(seed=0, latency=0.010, loss=0.0, bandwidth=None, config=None,
              pki_mode=PkiMode.SIMULATED, handshake=False):
    sim = Simulator(seed=seed)
    pki = Pki(mode=pki_mode, seed=seed, rsa_bits=256)
    pki.register("a")
    pki.register("b")
    cfg = ChannelConfig(latency=latency, loss_rate=loss, bandwidth_bps=bandwidth)
    ab = Channel(sim, cfg, name="a->b")
    ba = Channel(sim, cfg, name="b->a")
    end_a, end_b = connect_por_pair(
        sim, "a", "b", ab, ba, pki, config=config, handshake=handshake
    )
    delivered_a, delivered_b = [], []
    end_a.on_deliver = lambda p, s: delivered_a.append(p)
    end_b.on_deliver = lambda p, s: delivered_b.append(p)
    return sim, end_a, end_b, delivered_a, delivered_b


class TestReliableInOrderDelivery:
    def test_simple_delivery(self):
        sim, a, b, _, delivered_b = make_link()
        a.send("hello", 100)
        sim.run(until=1.0)
        assert delivered_b == ["hello"]

    def test_in_order_burst(self):
        sim, a, b, _, delivered_b = make_link()
        for i in range(50):
            a.send(i, 100)
        sim.run(until=2.0)
        assert delivered_b == list(range(50))

    def test_bidirectional(self):
        sim, a, b, delivered_a, delivered_b = make_link()
        a.send("to-b", 100)
        b.send("to-a", 100)
        sim.run(until=1.0)
        assert delivered_b == ["to-b"]
        assert delivered_a == ["to-a"]

    def test_delivery_under_heavy_loss(self):
        sim, a, b, _, delivered_b = make_link(
            loss=0.4, config=PorConfig(initial_rto=0.1, min_rto=0.05)
        )
        for i in range(100):
            a.send(i, 100)
        sim.run(until=60.0)
        assert delivered_b == list(range(100))
        assert a.data_retransmitted > 0

    def test_no_duplicate_delivery_under_loss(self):
        """Lost ACKs cause retransmissions; receiver must dedup."""
        sim, a, b, _, delivered_b = make_link(
            loss=0.3, config=PorConfig(initial_rto=0.08, min_rto=0.04)
        )
        for i in range(60):
            a.send(i, 100)
        sim.run(until=60.0)
        assert delivered_b == list(range(60))
        assert b.duplicates_dropped >= 0  # counted, never delivered twice

    def test_window_not_exceeded(self, monkeypatch):
        monkeypatch.setattr(por, "WINDOW", 4)
        sim, a, b, _, _ = make_link()
        for i in range(4):
            a.send(i, 100)
        assert a.in_flight == 4
        assert not a.can_accept()
        with pytest.raises(ProtocolError):
            a.send(99, 100)

    def test_window_reopens_after_ack(self, monkeypatch):
        monkeypatch.setattr(por, "WINDOW", 2)
        sim, a, b, _, delivered_b = make_link()
        ready = []
        a.on_ready = lambda: ready.append(sim.now)
        a.send(0, 100)
        a.send(1, 100)
        sim.run(until=1.0)
        assert len(ready) >= 1
        assert a.can_accept()
        a.send(2, 100)
        sim.run(until=2.0)
        assert delivered_b == [0, 1, 2]


class TestPacing:
    def test_can_accept_respects_channel_backlog(self, monkeypatch):
        # 100-byte payload + 48 overhead at 8 kbps = 148 ms serialization.
        monkeypatch.setattr(por, "PACING_SLACK", 0.01)
        sim, a, b, _, _ = make_link(bandwidth=8000.0)
        a.send(0, 100)
        assert not a.can_accept()
        assert a.time_until_ready() == pytest.approx(0.148 - 0.01, abs=1e-6)

    def test_time_until_ready_none_when_window_full(self, monkeypatch):
        monkeypatch.setattr(por, "WINDOW", 1)
        sim, a, b, _, _ = make_link()
        a.send(0, 100)
        assert a.time_until_ready() is None

    def test_throughput_approaches_link_capacity(self, monkeypatch):
        """A saturating sender should achieve most of the channel rate."""
        monkeypatch.setattr(por, "WINDOW", 64)
        sim, a, b, _, _ = make_link(bandwidth=1e6, latency=0.020)
        sent = [0]
        finished = []
        b.on_deliver = lambda p, s: finished.append(sim.now)

        def pump():
            while a.can_accept() and sent[0] < 300:
                a.send(sent[0], 1202)  # 1250 bytes on the wire
                sent[0] += 1
            if sent[0] < 300:
                delay = a.time_until_ready()
                if delay is not None:
                    sim.schedule(max(delay, 1e-4), pump)

        a.on_ready = pump
        pump()
        sim.run(until=10.0)
        assert len(finished) == 300
        # 300 * 1250 B * 8 = 3.0 Mbit of wire time at 1 Mbps is 3.0 s;
        # ACK overhead and pacing should cost no more than ~30% extra.
        assert finished[-1] < 4.0


class TestProofOfReceipt:
    def test_optimistic_ack_rejected(self, monkeypatch):
        """A fabricated ACK for unreceived data must not advance the window."""
        from repro.link.por import PorAck

        monkeypatch.setattr(por, "WINDOW", 8)
        sim, a, b, _, _ = make_link(latency=1.0)  # slow link
        for i in range(8):
            a.send(i, 100)
        # Attacker (the receiver) optimistically acks everything without
        # having the nonces.
        bogus = PorAck(a.epoch, 7, b"\x00" * 16)
        a._on_packet(bogus)
        assert a.in_flight == 8
        assert a.bogus_acks_rejected == 1

    def test_honest_acks_free_window(self):
        sim, a, b, _, _ = make_link()
        for i in range(8):
            a.send(i, 100)
        sim.run(until=1.0)
        assert a.in_flight == 0
        assert a.bogus_acks_rejected == 0


class TestIntegrity:
    def test_corrupted_data_dropped(self):
        sim, a, b, _, delivered_b = make_link()
        # Tamper with every packet on the wire.
        original = a.out_channel.send

        def tampering_send(pkt, size):
            if hasattr(pkt, "corrupted"):
                pkt.corrupted = True
            original(pkt, size)

        a.out_channel.send = tampering_send
        a.send("evil", 100)
        sim.run(until=0.5)
        assert delivered_b == []
        assert b.macs_rejected > 0

    def test_corruption_ignored_when_macs_disabled(self):
        config = PorConfig(check_macs=False)
        sim, a, b, _, delivered_b = make_link(config=config)
        original = a.out_channel.send

        def tampering_send(pkt, size):
            if hasattr(pkt, "corrupted"):
                pkt.corrupted = True
            original(pkt, size)

        a.out_channel.send = tampering_send
        a.send("evil", 100)
        sim.run(until=0.5)
        assert delivered_b == ["evil"]  # no MAC check: tampering undetected


class TestRealCryptoHandshake:
    def test_handshake_establishes_and_delivers(self):
        sim, a, b, _, delivered_b = make_link(pki_mode=PkiMode.REAL, handshake=True)
        assert not a.established
        sim.run(until=1.0)
        assert a.established and b.established
        a.send(b"secret-payload", 100)
        sim.run(until=2.0)
        assert delivered_b == [b"secret-payload"]

    def test_send_before_establishment_rejected(self):
        sim, a, b, _, _ = make_link(pki_mode=PkiMode.REAL, handshake=True)
        with pytest.raises(ProtocolError):
            a.send(b"x", 10)

    def test_real_hmac_rejects_bit_flip(self):
        sim, a, b, _, delivered_b = make_link(pki_mode=PkiMode.REAL, handshake=True)
        sim.run(until=1.0)
        original = a.out_channel.send

        def bitflip_send(pkt, size):
            if hasattr(pkt, "mac") and isinstance(pkt.mac, bytes):
                pkt.mac = bytes([pkt.mac[0] ^ 1]) + pkt.mac[1:]
            original(pkt, size)

        a.out_channel.send = bitflip_send
        a.send(b"x", 10)
        sim.run(until=2.0)
        assert delivered_b == []
        assert b.macs_rejected > 0

    def test_real_hmac_rejects_swapped_payload(self):
        from repro.link.por import PorData

        sim, a, b, _, delivered_b = make_link(pki_mode=PkiMode.REAL, handshake=True)
        sim.run(until=1.0)
        original = a.out_channel.send

        def swap_payload(pkt, size):
            if isinstance(pkt, PorData):
                pkt.payload = b"forged"  # the tag stays the sender's
            original(pkt, size)

        a.out_channel.send = swap_payload
        a.send(b"genuine", 10)
        sim.run(until=2.0)
        assert delivered_b == []
        assert b.macs_rejected > 0

    def test_real_hmac_rejects_rewritten_unsigned_control_frame(self):
        # Neighbour ACKs carry no signature of their own: the link tag is
        # all that stops an on-path rewrite of the advertised buffer limit.
        from repro.link.por import PorData
        from repro.messaging.message import NeighborAck

        sim, a, b, _, delivered_b = make_link(pki_mode=PkiMode.REAL, handshake=True)
        sim.run(until=1.0)
        original = a.out_channel.send

        def inflate_limit(pkt, size):
            if isinstance(pkt, PorData):
                pkt.payload = NeighborAck("a", ((("a", "b"), 0, 10**9),))
            original(pkt, size)

        a.out_channel.send = inflate_limit
        a.send(NeighborAck("a", ((("a", "b"), 0, 8),)), 48)
        sim.run(until=2.0)
        assert delivered_b == []
        assert b.macs_rejected > 0


class TestCrashRecovery:
    def test_epoch_reset_resynchronizes(self):
        sim, a, b, _, delivered_b = make_link()
        a.send("before", 100)
        sim.run(until=1.0)
        assert delivered_b == ["before"]
        a.reset()  # a crashes and restarts
        assert a.epoch == 1
        a.send("after", 100)
        sim.run(until=2.0)
        assert delivered_b == ["before", "after"]

    def test_stale_epoch_packets_ignored(self):
        from repro.link.por import PorData

        sim, a, b, _, delivered_b = make_link()
        a.send("current", 100)
        sim.run(until=1.0)
        a.reset()
        a.send("fresh", 100)
        sim.run(until=2.0)
        # Replay a packet from epoch 0.
        stale = PorData(0, 5, b"\x00" * 8, "stale", 100)
        b._on_packet(stale)
        assert "stale" not in delivered_b


class TestConfigValidation:
    def test_bad_rto_ordering(self):
        with pytest.raises(ConfigurationError):
            PorConfig(min_rto=0.5, initial_rto=0.1)

    def test_bad_window(self):
        """The window is one constant for every link: no endpoint can be
        configured with a window of its own, and the constant admits at
        least one packet."""
        with pytest.raises(TypeError):
            PorConfig(window=0)
        assert por.WINDOW >= 1

    def test_negative_slack(self):
        """Likewise the pacing slack: not a per-link setting, and never
        negative (a negative slack would refuse even an idle channel)."""
        with pytest.raises(TypeError):
            PorConfig(pacing_slack=-1.0)
        assert por.PACING_SLACK >= 0

    def test_constants_keep_their_invariants(self):
        assert por.ACK_COALESCE >= 1
        assert 0 <= por.ACK_DELAY < PorConfig().initial_rto <= por.MAX_RTO


class TestAckCoalescing:
    def test_in_order_burst_halves_ack_traffic(self, monkeypatch):
        """Delayed ACKs (factor 2): a long in-order stream generates about
        one ACK per two data packets, not one per packet."""
        assert por.ACK_COALESCE == 2
        monkeypatch.setattr(por, "WINDOW", 64)
        sim, a, b, _, delivered_b = make_link()
        for i in range(40):
            a.send(i, 100)
        sim.run(until=5.0)
        assert delivered_b == list(range(40))
        assert a.in_flight == 0  # every packet acknowledged
        assert b.acks_sent <= 40 // 2 + 2  # coalesced, plus boundary flushes

    def test_gap_flushes_ack_immediately(self, monkeypatch):
        """A sequence gap must produce an immediate NACK-bearing ACK —
        fast retransmit cannot wait out the delayed-ACK timer."""
        from repro.link.por import PorData

        monkeypatch.setattr(por, "WINDOW", 64)
        monkeypatch.setattr(por, "ACK_COALESCE", 8)
        monkeypatch.setattr(por, "ACK_DELAY", 0.1)
        sim, a, b, _, _ = make_link()
        a.send(0, 100)
        sim.run(until=0.1)
        acks_before = b.acks_sent
        # Deliver seq 2 directly, skipping seq 1: out-of-order arrival.
        nonce = a._nonce_rng.getrandbits(64).to_bytes(8, "big")
        b._on_packet(PorData(0, 2, nonce, "skip", 100))
        assert b.acks_sent == acks_before + 1  # flushed now, not deferred

    def test_delayed_ack_timer_bounds_deferral(self, monkeypatch):
        """A lone packet (no follow-up to coalesce with) is still ACKed
        within ACK_DELAY, so the sender's RTT sample barely inflates."""
        monkeypatch.setattr(por, "WINDOW", 8)
        monkeypatch.setattr(por, "ACK_COALESCE", 4)
        monkeypatch.setattr(por, "ACK_DELAY", 0.005)
        sim, a, b, _, delivered_b = make_link(latency=0.0)
        a.send("only", 100)
        sim.run(until=0.001)
        assert delivered_b == ["only"]
        assert a.in_flight == 1  # ACK still held back
        sim.run(until=0.050)
        assert a.in_flight == 0  # flush timer fired well within ACK_DELAY+slack
        assert b.acks_sent == 1

    def test_ack_delay_must_stay_below_rto(self):
        with pytest.raises(ConfigurationError):
            PorConfig(initial_rto=por.ACK_DELAY, min_rto=por.ACK_DELAY)

    def test_coalescing_disabled_acks_every_packet(self, monkeypatch):
        monkeypatch.setattr(por, "WINDOW", 64)
        monkeypatch.setattr(por, "ACK_COALESCE", 1)
        sim, a, b, _, delivered_b = make_link()
        for i in range(10):
            a.send(i, 100)
        sim.run(until=2.0)
        assert delivered_b == list(range(10))
        assert b.acks_sent >= 10


def capture_sends(endpoint):
    """Divert what ``endpoint`` transmits into a list (nothing reaches
    the channel), so a test can hand the packets over datagram by
    datagram, as the live transport does."""
    sent = []
    endpoint.out_channel.send = lambda packet, size: sent.append(packet)
    return sent


def deliver_datagram(endpoint, packets):
    endpoint.begin_datagram()
    for packet in packets:
        endpoint._on_packet(packet)
    endpoint.end_datagram()


class TestAckPerDatagram:
    """On the live substrate the frames of one datagram are bracketed by
    begin_datagram/end_datagram and acknowledged once."""

    def test_in_order_frames_of_one_datagram_get_exactly_one_ack(self):
        sim, a, b, _, delivered_b = make_link()
        data, acks = capture_sends(a), capture_sends(b)
        for i in range(7):
            a.send(i, 100)
        deliver_datagram(b, data)
        assert delivered_b == list(range(7))
        assert len(acks) == 1 and b.acks_sent == 1
        assert acks[0].cum_seq == 6
        a._on_packet(acks[0])  # the proof covers all seven
        assert a.in_flight == 0 and a.bogus_acks_rejected == 0
        # The same frames outside a datagram (the simulator's path) ACK
        # per ACK_COALESCE packets, as before.
        sim2, a2, b2, _, _ = make_link()
        data2, acks2 = capture_sends(a2), capture_sends(b2)
        for i in range(7):
            a2.send(i, 100)
        for packet in data2:
            b2._on_packet(packet)
        assert [ack.cum_seq for ack in acks2] == [1, 3, 5]

    def test_gap_inside_a_datagram_sends_one_ack_with_the_nack_list(self):
        sim, a, b, _, delivered_b = make_link()
        data, acks = capture_sends(a), capture_sends(b)
        for i in range(6):
            a.send(i, 100)
        b.begin_datagram()
        for packet in data[:2] + data[3:]:
            b._on_packet(packet)
        assert acks == []  # noted, not sent, while the datagram is open
        b.end_datagram()
        assert delivered_b == [0, 1]
        assert len(acks) == 1  # went out with the datagram that showed the gap
        assert (acks[0].cum_seq, acks[0].missing) == (1, (2,))

    def test_datagram_after_a_lost_one_triggers_fast_retransmit(self):
        sim, a, b, _, delivered_b = make_link()
        data, acks = capture_sends(a), capture_sends(b)
        for i in range(6):
            a.send(i, 100)
        deliver_datagram(b, data[0:2])
        a._on_packet(acks.pop())
        assert a.in_flight == 4
        sim.run(until=0.05)  # past the still-in-flight guard, before the RTO
        deliver_datagram(b, data[3:6])  # the datagram carrying seq 2 was lost
        assert len(acks) == 1 and acks[0].missing == (2,)
        a._on_packet(acks.pop())
        assert a.data_retransmitted == 1 and data[-1].seq == 2
        deliver_datagram(b, data[-1:])
        assert delivered_b == list(range(6))
        assert [ack.cum_seq for ack in acks] == [5]

    def test_a_lone_frame_still_waits_for_the_ack_delay_timer(self, monkeypatch):
        monkeypatch.setattr(por, "ACK_DELAY", 0.004)
        sim, a, b, _, delivered_b = make_link()
        data, acks = capture_sends(a), capture_sends(b)
        a.send("only", 100)
        deliver_datagram(b, data)
        assert delivered_b == ["only"] and acks == []
        sim.run(until=0.003)
        assert acks == []
        sim.run(until=0.005)
        assert [ack.cum_seq for ack in acks] == [0]

    def test_duplicate_frames_in_a_datagram_are_answered_once(self):
        sim, a, b, _, delivered_b = make_link()
        data, acks = capture_sends(a), capture_sends(b)
        for i in range(4):
            a.send(i, 100)
        deliver_datagram(b, data)
        del acks[:]
        deliver_datagram(b, data)  # the ACK was lost, the sender repeats
        assert b.duplicates_dropped == 4
        assert [ack.cum_seq for ack in acks] == [3]
