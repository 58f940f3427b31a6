"""The PoR receive path against a reference copy of its earlier form.

``PorEndpoint._on_packet`` checks a data or ACK packet's integrity in
line, and ``_on_data`` sends the common packet (the next seq of the
current epoch) straight to the one loop that folds, delivers and drains
the reorder buffer.  The reference below is the receive path as it was
before that restructuring, copied verbatim: every data and ACK packet
through ``_integrity_ok`` and every accepted one through
``_accept_in_order``.

Hypothesis draws packet sequences -- in order, duplicate, gapped, far
ahead, stale and new epoch, ACKs, corrupted or with a bad MAC -- with and
without ``begin_datagram``/``end_datagram`` brackets, flush-timer waits,
SIMULATED and REAL crypto and MAC checks on or off.  After every step
both endpoints must have delivered the same payloads and emitted the
same ACK frames, and hold the same chain proof, ``next_seq``, reorder
buffer, ACK state and counters, the MAC-verify count included.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.nonces import CumulativeNonceChain
from repro.crypto.pki import Pki, PkiMode
from repro.link.por import (
    WINDOW,
    PorAck,
    PorConfig,
    PorData,
    PorEndpoint,
    PorHandshake,
    _HelloWrapper,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class ReferenceEndpoint(PorEndpoint):
    """The receive path before the in-order packet got a straight path."""

    def _on_packet(self, packet: Any) -> None:
        # Dispatch in descending traffic order: data, then ACKs, then the
        # rare out-of-stream kinds.
        if isinstance(packet, PorData):
            if self._check_macs and not self._integrity_ok(packet):
                self.macs_rejected += 1
                return
            self._on_data(packet)
            return
        if isinstance(packet, PorAck):
            if self._check_macs and not self._integrity_ok(packet):
                self.macs_rejected += 1
                return
            self._on_ack(packet)
            return
        if isinstance(packet, _HelloWrapper):
            if self.on_hello is not None:
                self.on_hello(packet.hello)
            return
        if isinstance(packet, PorHandshake):
            self._on_handshake(packet)

    def _integrity_ok(self, packet: Any) -> bool:
        if packet.corrupted:
            return False
        if self._mac_counters is not None:
            self._mac_counters[1].add()
        if self._hmac_active:
            encoded = self._encode_for_mac(packet)
            key = (encoded, packet.mac)
            memo = self._mac_memo
            cached = memo.get(key)
            if cached is not None:
                return cached
            try:
                self._mac_ctx.verify(encoded, packet.mac)
                verdict = True
            except Exception:
                verdict = False
            memo.put(key, verdict)
            return verdict
        return True

    def _on_data(self, packet: PorData) -> None:
        if packet.epoch != self._rx_epoch:
            if packet.epoch > self._rx_epoch:
                self._rx_epoch = packet.epoch
                self._chain = CumulativeNonceChain()
                self._reorder.clear()
                self._ack_pending = 0
            else:
                return  # stale epoch
        expected = self._chain.next_seq
        if packet.seq < expected:
            self.duplicates_dropped += 1
            self._flush_ack()
            return
        if packet.seq > expected:
            if packet.seq >= expected + 4 * self._window:
                self.out_of_window_dropped += 1
                return
            if len(self._reorder) < 4 * self._window:
                self._reorder[packet.seq] = packet
            self._flush_ack()
            return
        self._accept_in_order(packet)
        reorder = self._reorder
        accepted = 1
        while self._chain.next_seq in reorder:
            self._accept_in_order(reorder.pop(self._chain.next_seq))
            accepted += 1
        self._ack_pending += accepted
        if reorder or self._ack_pending >= self._ack_coalesce:
            self._flush_ack()
        elif not self._ack_timer_armed:
            self._ack_timer_armed = True
            self.sim.schedule_transient_at(
                self.sim.now + self._ack_delay, self._ack_timer_fire
            )

    def _accept_in_order(self, packet: PorData) -> None:
        self._chain.fold(packet.seq, packet.nonce)
        self.data_delivered += 1
        if self.on_deliver is not None:
            payload_size = packet.wire_size - self._header_overhead
            self.on_deliver(packet.payload, payload_size)


class _Out:
    """An outgoing channel that records the ACK frames sent on it."""

    def __init__(self) -> None:
        self.frames: List[Tuple[Any, ...]] = []
        self.on_receive = None

    def send(self, packet: Any, size: int) -> None:
        self.frames.append((packet.epoch, packet.cum_seq, packet.proof, packet.missing,
                            packet.mac, size))

    def time_until_idle(self) -> float:
        return 0.0


class _In:
    on_receive = None


class Side:
    """One receiving endpoint ("b", from "a") on its own simulator."""

    def __init__(self, cls: type, pki: Pki, check_macs: bool) -> None:
        self.sim = Simulator(seed=0)
        self.stats = StatsRegistry(self.sim)
        self.out = _Out()
        self.rx = _In()
        self.end = cls(self.sim, "b", "a", self.out, self.rx, pki,
                       PorConfig(check_macs=check_macs))
        self.end.establish_out_of_band()
        self.end.attach_mac_counters(self.stats)
        self.delivered: List[Tuple[Any, int]] = []
        self.end.on_deliver = lambda payload, size: self.delivered.append((payload, size))

    def state(self) -> Tuple[Any, ...]:
        end = self.end
        return (
            list(self.delivered), list(self.out.frames), end._chain.proof(),
            end._chain.next_seq, end._rx_epoch, sorted(end._reorder), end._ack_pending,
            end._ack_due, end._ack_timer_armed, end._in_datagram, end.data_delivered,
            end.duplicates_dropped, end.out_of_window_dropped, end.macs_rejected,
            end.acks_sent, end.bogus_acks_rejected,
            self.stats.counter("crypto.mac_verify").value,
            self.stats.counter("crypto.mac_sign").value,
        )


def _nonce(epoch: int, seq: int) -> bytes:
    return hashlib.sha256(f"{epoch}:{seq}".encode()).digest()[:8]


#: (kind, offset, corrupted): which packet to send relative to the
#: receiver's state, or a bracket or a wait.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["next", "next", "next", "dup", "gap", "far", "stale-epoch",
                             "new-epoch", "ack"]),
            st.integers(0, 4),
            st.sampled_from([None, None, None, None, "flag", "mac"]),
        ),
        st.tuples(st.sampled_from(["begin", "end", "wait"]), st.just(0), st.just(None)),
    ),
    max_size=50,
)


def _packet(kind: str, offset: int, receiver: PorEndpoint, sender: PorEndpoint,
            damage: Any) -> Any:
    epoch, expected = receiver._rx_epoch, receiver._chain.next_seq
    if kind == "ack":
        # An ACK for the receiver's own (empty) send stream: a bogus
        # proof, checked and counted like a data packet's integrity.
        packet = PorAck(receiver.epoch, offset - 1, b"\x00" * 16)
        return _damaged(packet, sender, damage)
    seq = {
        "next": expected,
        "dup": max(expected - 1 - offset, 0),
        "gap": expected + 1 + offset,
        "far": expected + 4 * WINDOW + offset,
        "stale-epoch": expected,
        "new-epoch": offset,
    }[kind]
    if kind == "stale-epoch":
        epoch -= 1
    elif kind == "new-epoch":
        epoch += 1
    return _damaged(PorData(epoch, seq, _nonce(epoch, seq), f"p{epoch}:{seq}", 48 + seq),
                    sender, damage)


def _damaged(packet: Any, sender: PorEndpoint, damage: Any) -> Any:
    if sender._hmac_active:
        packet.mac = sender._mac_ctx.tag(sender._encode_for_mac(packet))
    if damage == "flag":
        packet.corrupted = True
    elif damage == "mac":
        packet.mac = b"\x00" * 32 if sender._hmac_active else 7
    return packet


PKIS = {}


def _pki(mode: PkiMode) -> Pki:
    if mode not in PKIS:
        pki = Pki(mode=mode, seed=0, **({"rsa_bits": 256} if mode is PkiMode.REAL else {}))
        pki.register("a")
        pki.register("b")
        PKIS[mode] = pki
    return PKIS[mode]


@given(ops=OPS, mode=st.sampled_from([PkiMode.SIMULATED, PkiMode.REAL]),
       check_macs=st.booleans(), start_epoch=st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_the_receive_path_matches_the_reference(ops, mode, check_macs, start_epoch):
    pki = _pki(mode)
    sender = PorEndpoint(Simulator(seed=0), "a", "b", _Out(), _In(), pki)
    sender.establish_out_of_band()
    sides = [Side(PorEndpoint, pki, check_macs), Side(ReferenceEndpoint, pki, check_macs)]
    for side in sides:
        side.end._rx_epoch = start_epoch
    for kind, offset, damage in ops:
        if kind in ("begin", "end", "wait"):
            for side in sides:
                if kind == "begin" and not side.end._in_datagram:
                    side.end.begin_datagram()
                elif kind == "end" and side.end._in_datagram:
                    side.end.end_datagram()
                elif kind == "wait":
                    side.sim.run(until=side.sim.now + 0.005)
        else:
            packet = _packet(kind, offset, sides[1].end, sender, damage)
            for side in sides:
                side.rx.on_receive(packet)
        assert sides[0].state() == sides[1].state(), (kind, offset, damage)
    for side in sides:
        if side.end._in_datagram:
            side.end.end_datagram()
        side.sim.run(until=side.sim.now + 0.005)
    assert sides[0].state() == sides[1].state()


def test_the_straight_path_counts_each_mac_verify():
    """The in-line integrity check counts every in-order packet."""
    side = Side(PorEndpoint, _pki(PkiMode.SIMULATED), True)
    sender = PorEndpoint(Simulator(seed=0), "a", "b", _Out(), _In(), _pki(PkiMode.SIMULATED))
    for _ in range(5):
        side.rx.on_receive(_packet("next", 0, side.end, sender, None))
    assert side.end.data_delivered == 5
    assert side.stats.counter("crypto.mac_verify").value == 5
