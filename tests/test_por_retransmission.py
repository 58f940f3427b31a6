"""Focused tests for PoR loss recovery: NACKs, fast retransmit, RTO."""

import pytest

from repro.crypto.pki import Pki
from repro.link import por
from repro.link.por import PorAck, PorConfig, PorData
from tests.fixtures import connect_por_pair
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator


def make_link(seed=0, latency=0.010, loss=0.0, bandwidth=None, config=None):
    sim = Simulator(seed=seed)
    pki = Pki(seed=seed)
    pki.register("a")
    pki.register("b")
    cfg = ChannelConfig(latency=latency, loss_rate=loss, bandwidth_bps=bandwidth)
    ab = Channel(sim, cfg, name="a->b")
    ba = Channel(sim, cfg, name="b->a")
    a, b = connect_por_pair(sim, "a", "b", ab, ba, pki, config=config)
    delivered = []
    b.on_deliver = lambda p, s: delivered.append(p)
    return sim, a, b, delivered


class TestNackRecovery:
    def test_single_loss_recovered_by_nack_not_rto(self, monkeypatch):
        """One dropped packet is repaired in ~1 RTT, far below the RTO."""
        monkeypatch.setattr(por, "MAX_RTO", 10.0)
        config = PorConfig(initial_rto=5.0, min_rto=5.0)
        sim, a, b, delivered = make_link(config=config)
        # Drop exactly the second packet on the wire.
        original = a.out_channel.send
        state = {"count": 0}

        def lossy(pkt, size):
            state["count"] += 1
            if state["count"] == 2:
                return  # swallowed
            original(pkt, size)

        a.out_channel.send = lossy
        for i in range(6):
            a.send(i, 100)
        sim.run(until=1.0)  # << RTO of 5 s
        assert delivered == [0, 1, 2, 3, 4, 5]
        assert a.data_retransmitted >= 1

    def test_nack_lists_all_gaps(self):
        sim, a, b, delivered = make_link()
        captured = []
        original = b.out_channel.send

        def capture(pkt, size):
            if isinstance(pkt, PorAck) and pkt.missing:
                captured.append(pkt.missing)
            original(pkt, size)

        b.out_channel.send = capture
        # Deliver 0, skip 1 and 3, deliver 2 and 4 directly to b.
        for seq in (0, 2, 4):
            record_nonce = None
            # Build packets through a's real path but drop 1 and 3.
        original_a = a.out_channel.send
        a.out_channel.send = lambda pkt, size: (
            original_a(pkt, size)
            if not (isinstance(pkt, PorData) and pkt.seq in (1, 3))
            else None
        )
        for i in range(5):
            a.send(i, 100)
        sim.run(until=0.05)
        assert any(1 in missing or 3 in missing for missing in captured)

    def test_duplicate_cum_acks_trigger_head_retransmit(self, monkeypatch):
        monkeypatch.setattr(por, "MAX_RTO", 10.0)
        config = PorConfig(initial_rto=5.0, min_rto=5.0)
        sim, a, b, delivered = make_link(config=config)
        # Lose the FIRST packet: everything else is out of order at b.
        original = a.out_channel.send
        state = {"count": 0}

        def lossy(pkt, size):
            state["count"] += 1
            if state["count"] == 1:
                return
            original(pkt, size)

        a.out_channel.send = lossy
        for i in range(5):
            a.send(i, 100)
        sim.run(until=1.0)
        assert delivered == [0, 1, 2, 3, 4]

    def test_fast_retransmit_guard_prevents_storms(self):
        """Many duplicate ACKs in one RTT cause at most one retransmit."""
        sim, a, b, _ = make_link(latency=0.050)
        a.send(0, 100)
        a._sample_rtt(0.1)
        record = a._unacked[0]
        before = a.data_retransmitted
        for _ in range(10):
            a._fast_retransmit(0)
        assert a.data_retransmitted <= before + 1


class TestRtoAdaptation:
    def test_srtt_converges_to_path_rtt(self):
        sim, a, b, _ = make_link(latency=0.040)
        for i in range(20):
            a.send(i, 100)
        sim.run(until=3.0)
        assert a._srtt == pytest.approx(0.080, rel=0.2)

    def test_rto_exceeds_srtt_with_margin(self):
        sim, a, b, _ = make_link(latency=0.040)
        for i in range(20):
            a.send(i, 100)
        sim.run(until=3.0)
        assert a._rto_cache >= 1.5 * a._srtt

    def test_karns_algorithm_skips_retransmitted_samples(self):
        config = PorConfig(initial_rto=0.05, min_rto=0.05)
        sim, a, b, _ = make_link(latency=0.100, config=config)  # RTT 200 > RTO
        a.send(0, 100)
        sim.run(until=2.0)
        # The packet was retransmitted (RTO < RTT); its eventual ACK must
        # not poison srtt with a bogus sample.
        assert a.data_retransmitted >= 1
        assert a._srtt is None or a._srtt > 0.05

    def test_backoff_caps_at_max_rto(self, monkeypatch):
        monkeypatch.setattr(por, "MAX_RTO", 0.4)
        config = PorConfig(initial_rto=0.05, min_rto=0.05)
        sim, a, b, _ = make_link(config=config)
        a.out_channel.take_down()
        a.send(0, 100)
        sim.run(until=10.0)
        record = a._unacked[0]
        assert record.rto == 0.4


class TestLossSweep:
    @pytest.mark.parametrize("loss", [0.05, 0.15, 0.30])
    def test_complete_delivery_under_loss(self, loss):
        config = PorConfig(initial_rto=0.2, min_rto=0.05)
        sim, a, b, delivered = make_link(
            seed=3, loss=loss, bandwidth=1e6, config=config
        )
        sent = [0]

        def pump():
            while a.can_accept() and sent[0] < 200:
                a.send(sent[0], 500)
                sent[0] += 1
            if sent[0] < 200:
                delay = a.time_until_ready()
                if delay is not None:
                    sim.schedule(max(delay, 1e-4), pump)

        a.on_ready = pump
        pump()
        sim.run(until=120.0)
        assert delivered == list(range(200))
