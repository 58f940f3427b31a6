"""The Proof-of-Receipt (PoR) link.

Section V-D: "Neighboring overlay nodes communicate using a
Proof-of-Receipt (PoR) link that provides reliable in-order communication.
[...] The link maintains cryptographic authentication and integrity
(similar to DTLS), using an authenticated Diffie-Hellman key exchange to
establish a shared secret key.  This secret key is used to compute HMACs
(using SHA-256) to provide link-level message integrity.  Each side of the
link must acknowledge messages with a proof-of-receipt, using a cumulative
nonce method, to defeat denial-of-service attacks that acknowledge
unreceived messages to drive the sender arbitrarily fast."

Implementation notes
--------------------
* **Reliability** — sliding window, selective retransmission on adaptive
  RTO (Jacobson/Karn), cumulative ACKs carrying the nonce-chain proof
  (:mod:`repro.crypto.nonces`).  ACK packets that fail proof verification
  are ignored, so a malicious receiver cannot inflate the sender's rate.
* **Integrity** — in ``REAL`` crypto mode the handshake runs a signed
  Diffie-Hellman exchange and every packet carries an HMAC-SHA256 tag
  over its canonical encoding.  In ``SIMULATED`` mode packets carry a
  ``corrupted`` flag that adversarial channels set when they tamper; a
  MAC-checking endpoint drops such packets (and charges the HMAC CPU
  cost), which models exactly what the real tag provides.
* **Flow control toward the overlay** — the messaging layer *pulls*:
  :meth:`PorEndpoint.can_accept` is true when the send window has room
  and the outgoing channel is not backlogged beyond ``PACING_SLACK``
  seconds, so the fair schedulers keep queueing decisions at the node
  (where they belong) rather than deep inside the link.
* **Crash recovery** — each endpoint has an *epoch*.  A restarted node
  bumps its epoch; the peer resets its receive state on seeing a newer
  epoch, which is how Figure 9's crash/recovery experiment works.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.caching import LruCache
from repro.crypto.dh import DiffieHellman
from repro.crypto.encoding import canonical_bytes
from repro.crypto.mac import BatchMacContext
from repro.crypto.nonces import NONCE_SIZE, CumulativeNonceChain, NonceVerifier
from repro.crypto.pki import Pki, PkiMode
from repro.errors import ConfigurationError, ProtocolError
from repro.messaging.message import (
    AdmissionNack,
    E2eAck,
    Hello,
    Message,
    NeighborAck,
    StateRequest,
)
from repro.routing.link_state import LinkStateUpdate
from repro.topology.mtmw import Mtmw

if TYPE_CHECKING:
    # The endpoint is written against the substrate seam, not a concrete
    # engine: any SchedulerLike (Simulator or AsyncioScheduler) and any
    # TransportLike (simulated Channel or live UDP channel) will do.
    from repro.runtime.interfaces import (
        CancellableHandle,
        SchedulerLike,
        TransportLike,
    )


#: Maximum unacknowledged data packets in flight.
WINDOW = 128
#: ``can_accept`` is false while the outgoing channel is backlogged
#: beyond this many seconds, keeping the queue at the fair scheduler.
PACING_SLACK = 0.002
#: Upper bound (seconds) of the retransmission timeout.
MAX_RTO = 2.0
#: Wire bytes added to each data payload (seq, nonce, HMAC, epoch).
HEADER_OVERHEAD = 48
#: Wire bytes of an ACK packet.
ACK_SIZE = 64
#: Acknowledge after this many in-order packets instead of per packet
#: (a delayed-ACK factor).  Gaps, duplicates, and epoch changes still
#: ACK immediately — the NACK and fast-retransmit machinery never
#: waits — and a flush timer (``ACK_DELAY``) bounds how long the tail of
#: a burst goes unacknowledged.
ACK_COALESCE = 2
#: Upper bound (seconds) on how long a coalesced ACK may be deferred.
#: Kept far below ``initial_rto`` so delayed ACKs can never masquerade
#: as loss.
ACK_DELAY = 0.002


@dataclass(frozen=True)
class PorConfig:
    """Tunables of a Proof-of-Receipt link endpoint.

    The window, pacing, ACK and wire-size constants above are the same
    on every link; these are the per-deployment settings.

    Attributes
    ----------
    initial_rto / min_rto:
        Retransmission timeout start and lower bound (seconds); the
        upper bound is ``MAX_RTO``.
    check_macs:
        Drop packets whose integrity check fails.  Disabled only for the
        "no cryptography" row of Table II.
    """

    initial_rto: float = 0.200
    min_rto: float = 0.020
    check_macs: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.min_rto <= self.initial_rto <= MAX_RTO:
            raise ConfigurationError("require 0 < min_rto <= initial_rto <= MAX_RTO")
        if self.initial_rto <= ACK_DELAY:
            raise ConfigurationError(
                "require initial_rto > ACK_DELAY (delayed ACKs must not "
                "look like loss)"
            )


class PorData:
    """A data packet on the wire."""

    __slots__ = ("epoch", "seq", "nonce", "payload", "wire_size", "mac", "corrupted")

    def __init__(self, epoch: int, seq: int, nonce: bytes, payload: Any, wire_size: int):
        self.epoch = epoch
        self.seq = seq
        self.nonce = nonce
        self.payload = payload
        self.wire_size = wire_size
        self.mac: Any = None
        self.corrupted = False

    def mac_fields(self) -> Tuple[Any, ...]:
        """Fields covered by the link-level integrity tag, the payload by
        a SHA-256 digest of its canonical fields."""
        digest = hashlib.sha256(canonical_bytes(_payload_fields(self.payload))).digest()
        return ("data", self.epoch, self.seq, self.nonce, digest)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PorData(epoch={self.epoch}, seq={self.seq})"


def _payload_fields(payload: Any) -> Any:
    """The canonical fields of a link payload the PoR tag covers.

    A signed payload contributes the tuple its signature covers: a
    rewritten signature can only make the frame fail verification, which
    an on-path attacker achieves by dropping it anyway.  The unsigned
    control frames rely on this tag alone, so all their fields go in.
    """
    if isinstance(payload, (Message, E2eAck, LinkStateUpdate)):
        return payload.signed_fields()
    if isinstance(payload, Mtmw):
        return Mtmw.signed_fields(payload.topology, payload.seqno)
    if isinstance(payload, (NeighborAck, Hello, StateRequest, AdmissionNack)):
        return (type(payload).__name__,) + tuple(
            getattr(payload, field.name) for field in fields(payload)
        )
    return payload  # raw application data (bytes, str, None)


class PorAck:
    """A cumulative ACK carrying the nonce-chain proof of receipt.

    ``missing`` is a NACK list: sequence numbers above ``cum_seq`` that
    the receiver has *not* got while later packets have arrived.  The
    sender selectively retransmits them without waiting out the RTO
    (Spines' links are NACK-based for exactly this reason).  NACKs are
    advisory only — they can waste at most retransmissions on the
    attacker's own link — while *positive* progress still requires the
    unforgeable cumulative nonce proof.
    """

    __slots__ = ("epoch", "cum_seq", "proof", "missing", "mac", "corrupted")

    def __init__(self, epoch: int, cum_seq: int, proof: bytes,
                 missing: Tuple[int, ...] = ()):
        self.epoch = epoch
        self.cum_seq = cum_seq
        self.proof = proof
        self.missing = missing
        self.mac: Any = None
        self.corrupted = False

    def mac_fields(self) -> Tuple[Any, ...]:
        """Fields covered by the link-level integrity tag."""
        return ("ack", self.epoch, self.cum_seq, self.proof, self.missing)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PorAck(epoch={self.epoch}, cum={self.cum_seq})"


class PorHandshake:
    """A signed Diffie-Hellman handshake message (REAL crypto mode)."""

    __slots__ = ("sender", "dh_public", "signature", "corrupted")

    def __init__(self, sender: Any, dh_public: bytes, signature: Any):
        self.sender = sender
        self.dh_public = dh_public
        self.signature = signature
        self.corrupted = False

    HANDSHAKE_SIZE = 256 + 256  # DH public + RSA signature


class _HelloWrapper:
    """Marks a packet as an unreliable out-of-stream hello."""

    __slots__ = ("hello",)

    def __init__(self, hello: Any):
        self.hello = hello


@dataclass(slots=True)
class _SendRecord:
    payload: Any
    wire_size: int
    nonce: bytes
    first_sent: float
    deadline: float
    rto: float
    retransmitted: bool = False
    last_sent: float = 0.0


#: Outgoing nonces are drawn from the RNG in blocks of this many packets;
#: one wide ``getrandbits`` call replaces per-packet draws on the send
#: fast path without changing the distribution.
_NONCE_BLOCK = 64


class PorEndpoint:
    """One side of a Proof-of-Receipt link."""

    def __init__(
        self,
        sim: SchedulerLike,
        node_id: Any,
        peer_id: Any,
        out_channel: TransportLike,
        in_channel: TransportLike,
        pki: Pki,
        config: Optional[PorConfig] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.peer_id = peer_id
        self.out_channel = out_channel
        self.in_channel = in_channel
        self.pki = pki
        self.config = config or PorConfig()
        in_channel.on_receive = self._on_packet
        # Bind the per-packet values once so the hot paths do plain
        # attribute loads instead of dataclass chains or global lookups.
        self._window = WINDOW
        self._check_macs = self.config.check_macs
        self._ack_coalesce = ACK_COALESCE
        self._ack_delay = ACK_DELAY
        self._header_overhead = HEADER_OVERHEAD

        # Upper-layer hooks.
        self.on_deliver: Optional[Callable[[Any, int], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None
        self.on_hello: Optional[Callable[[Any], None]] = None

        # Crypto state.
        self._established = False
        self._link_key: Optional[bytes] = None
        # Whether REAL-mode HMACs are on (REAL PKI and a link key): checked
        # once per transmit/verify on the hot path, so it is cached rather
        # than derived from the PKI each time.  Updated wherever the link
        # key changes (out-of-band install, handshake completion).
        self._hmac_active = False
        # Amortized HMAC state for the current link key: one keyed base
        # context, cloned per packet (see BatchMacContext).  Rebuilt
        # alongside _hmac_active wherever the key changes.
        self._mac_ctx: Optional[BatchMacContext] = None
        # REAL-mode MAC verification memo: a retransmitted packet carries
        # the identical (encoding, tag) pair, so its recheck is a dict
        # hit instead of an HMAC.  Keyed by the complete check; cleared
        # whenever the link key changes (fresh handshake / re-key).
        self._mac_memo: LruCache[bool] = LruCache(1024)
        self._dh: Optional[DiffieHellman] = None
        self._handshake_timer: Optional[CancellableHandle] = None
        self._handshake_attempts = 0
        self._handshake_responder = False

        # Sender state.
        self.epoch = 0
        self._next_seq = 0
        self._verifier = NonceVerifier()
        self._unacked: Dict[int, _SendRecord] = {}
        self._timer: Optional[CancellableHandle] = None
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        # The RTO only changes when an RTT sample lands, so it is computed
        # eagerly in _sample_rtt and read from this cache on every send.
        self._rto_cache = self.config.initial_rto
        self._dup_acks = 0
        self._nonce_rng = sim.rngs.stream(f"por:{node_id}->{peer_id}")
        # Block-buffered nonce stream (see _NONCE_BLOCK).
        self._nonce_buf = b""
        self._nonce_pos = 0
        # Absolute deadline the armed retransmission timer will fire at.
        # Lets the send path skip cancel/re-arm churn: a new packet only
        # re-arms when its deadline is *earlier* than the pending fire
        # (it never is under a monotone RTO), and ACKs leave the timer
        # alone entirely — a stale fire is a cheap no-op recomputation in
        # _on_timeout.
        self._timer_deadline = 0.0

        # Receiver state.
        self._rx_epoch = 0
        self._chain = CumulativeNonceChain()
        self._reorder: Dict[int, PorData] = {}
        # Delayed-ACK state: in-order packets accepted since the last ACK,
        # and whether the flush timer bounding the deferral is live.  The
        # timer is never cancelled — it fires, flushes if anything is
        # still pending, and disarms — so coalescing adds no cancel/re-arm
        # heap churn (one timer event can cover many flush cycles).
        self._ack_pending = 0
        self._ack_timer_armed = False
        # One ACK per received datagram (live substrate): between
        # begin_datagram and end_datagram a requested ACK is only noted,
        # and end_datagram sends the one cumulative ACK that covers them
        # all.  The simulator delivers packet by packet and never opens
        # a datagram.
        self._in_datagram = False
        self._ack_due = False

        # Counters.
        self.data_sent = 0
        self.data_retransmitted = 0
        self.data_delivered = 0
        self.acks_sent = 0
        self.bogus_acks_rejected = 0
        self.macs_rejected = 0
        self.duplicates_dropped = 0
        self.out_of_window_dropped = 0
        #: Optional (mac_sign, mac_verify) telemetry counter pair — set by
        #: :meth:`attach_mac_counters`; None keeps the hot path untouched.
        self._mac_counters: Optional[Tuple[Any, Any]] = None

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def attach_mac_counters(self, metrics: Any) -> None:
        """Count link MAC operations in ``metrics`` (a StatsRegistry).

        ``crypto.mac_sign`` / ``crypto.mac_verify`` count *logical*
        operations — every packet the real system would MAC or check,
        whether or not this run computes actual HMACs (SIMULATED mode
        models their integrity effect for free).  Matches the PKI's
        convention: NONE mode does no MAC work and counts nothing.
        """
        if self.pki.mode is PkiMode.NONE or not self.config.check_macs:
            return
        self._mac_counters = (
            metrics.counter("crypto.mac_sign"),
            metrics.counter("crypto.mac_verify"),
        )

    def establish_out_of_band(self) -> None:
        """Install the PKI-derived link key without an on-wire handshake.

        Simulations use this to skip re-running the (already tested)
        Diffie-Hellman exchange on every experiment.
        """
        self._link_key = self.pki.link_secret(self.node_id, self.peer_id)
        self._mac_memo.clear()
        self._hmac_active = self.pki.mode is PkiMode.REAL and self._link_key is not None
        self._mac_ctx = BatchMacContext(self._link_key) if self._hmac_active else None
        self._established = True

    #: Give up re-offering the handshake after this many attempts; the
    #: peer (or a node restart) can always start a fresh exchange.
    MAX_HANDSHAKE_ATTEMPTS = 12

    def start_handshake(self) -> None:
        """Send the signed Diffie-Hellman half of the handshake.

        The offer is re-sent with exponential backoff until the exchange
        completes, so a handshake that races a link failure (or whose
        packet is simply lost) still establishes once the link heals.
        """
        self._dh = DiffieHellman.from_seed(
            f"{self.pki.mode.value}:{self.node_id}->{self.peer_id}".encode("utf-8")
        )
        self._handshake_attempts = 0
        self._offer_handshake()

    def _offer_handshake(self) -> None:
        self._handshake_timer = None
        if self._established or self._dh is None:
            return
        if self._handshake_attempts >= self.MAX_HANDSHAKE_ATTEMPTS:
            return
        self._handshake_attempts += 1
        self._send_handshake_offer()
        retry = min(
            self.config.initial_rto * (2 ** (self._handshake_attempts - 1)),
            MAX_RTO,
        )
        self._handshake_timer = self.sim.schedule(retry, self._offer_handshake)

    def _send_handshake_offer(self) -> None:
        public = self._dh.encode_public()
        signature = self.pki.identity(self.node_id).sign(("dh", self.node_id, public))
        msg = PorHandshake(self.node_id, public, signature)
        self.out_channel.send(msg, PorHandshake.HANDSHAKE_SIZE)

    @property
    def established(self) -> bool:
        return self._established

    # ------------------------------------------------------------------
    # Upper-layer send interface
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """True when the link can take another payload right now."""
        return (
            self._established
            and len(self._unacked) < self._window
            and self.out_channel.time_until_idle() <= PACING_SLACK
        )

    def time_until_ready(self) -> Optional[float]:
        """Seconds until pacing may allow a send; None if blocked on the
        window (an ACK will trigger ``on_ready`` instead)."""
        if not self._established or len(self._unacked) >= self._window:
            return None
        backlog = self.out_channel.time_until_idle()
        if backlog <= PACING_SLACK:
            return 0.0
        return backlog - PACING_SLACK

    def send(self, payload: Any, size_bytes: int) -> None:
        """Queue ``payload`` for reliable in-order delivery to the peer."""
        if not self._established:
            raise ProtocolError("PoR link not established")
        if len(self._unacked) >= self._window:
            raise ProtocolError("PoR send window full (check can_accept first)")
        seq = self._next_seq
        self._next_seq += 1
        pos = self._nonce_pos
        if pos >= len(self._nonce_buf):
            self._nonce_buf = self._nonce_rng.getrandbits(
                8 * NONCE_SIZE * _NONCE_BLOCK
            ).to_bytes(NONCE_SIZE * _NONCE_BLOCK, "big")
            pos = 0
        nonce = self._nonce_buf[pos:pos + NONCE_SIZE]
        self._nonce_pos = pos + NONCE_SIZE
        self._verifier.register(seq, nonce)
        wire_size = size_bytes + self._header_overhead
        now = self.sim.now
        rto = self._rto_cache
        deadline = now + rto
        record = _SendRecord(payload, wire_size, nonce, now, deadline, rto)
        self._unacked[seq] = record
        self._transmit(seq, record)
        # Lazy timer: only (re-)arm when this packet's deadline precedes
        # the pending fire.  Under a monotone RTO that is only ever the
        # first packet of a burst, so steady-state sends do zero timer
        # work; _on_timeout re-derives the true minimum when it fires.
        if self._timer is None:
            self._timer_deadline = deadline
            self._timer = self.sim.schedule_at(deadline, self._on_timeout)
        elif deadline < self._timer_deadline:
            self._timer.cancel()
            self._timer_deadline = deadline
            self._timer = self.sim.schedule_at(deadline, self._on_timeout)

    def _transmit(self, seq: int, record: _SendRecord) -> None:
        packet = PorData(self.epoch, seq, record.nonce, record.payload, record.wire_size)
        if self._hmac_active:
            packet.mac = self._mac_ctx.tag(self._encode_for_mac(packet))
        if self._mac_counters is not None:
            self._mac_counters[0].add()
        record.last_sent = self.sim.now
        self.out_channel.send(packet, record.wire_size)
        self.data_sent += 1

    def _fast_retransmit(self, seq: int) -> None:
        record = self._unacked.get(seq)
        if record is None:
            return
        # Don't re-send a packet that is plausibly still in flight.  With
        # no RTT estimate yet (e.g. the very first packet was lost) use a
        # small fixed guard rather than the conservative initial RTO.
        guard = 0.5 * self._srtt if self._srtt is not None else 0.02
        if self.sim.now - record.last_sent < max(guard, 0.005):
            return
        record.retransmitted = True
        record.rto = min(record.rto * 2, MAX_RTO)
        record.deadline = self.sim.now + record.rto
        self._transmit(seq, record)
        self.data_retransmitted += 1
        self._arm_timer()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restart this endpoint as after a crash: new epoch, empty state."""
        self.epoch += 1
        self._next_seq = 0
        self._verifier = NonceVerifier()
        self._unacked.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_deadline = 0.0
        self._srtt = None
        self._rttvar = 0.0
        self._rto_cache = self.config.initial_rto
        self._dup_acks = 0
        # A live flush timer is left to fire; with pending zeroed it
        # disarms without sending.
        self._ack_pending = 0
        self._ack_due = False

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def send_hello(self, hello: Any, size_bytes: int) -> None:
        """Send an unreliable liveness beacon outside the reliable stream.

        Hellos bypass the window (a dead link must not wedge monitoring)
        but still consume channel bandwidth.
        """
        self.out_channel.send(_HelloWrapper(hello), size_bytes)

    def _on_packet(self, packet: Any) -> None:
        # Dispatch in descending traffic order: data, then ACKs, then the
        # rare out-of-stream kinds.  Data and ACKs pass the integrity
        # check first: a packet marked corrupted in flight is rejected
        # uncounted; any other is one logical MAC verify, and under an
        # active link key its HMAC must check.
        is_data = isinstance(packet, PorData)
        if is_data or isinstance(packet, PorAck):
            if self._check_macs:
                if packet.corrupted:
                    self.macs_rejected += 1
                    return
                if self._mac_counters is not None:
                    self._mac_counters[1].add()
                if self._hmac_active and not self._hmac_ok(packet):
                    self.macs_rejected += 1
                    return
            if is_data:
                self._on_data(packet)
            else:
                self._on_ack(packet)
            return
        if isinstance(packet, _HelloWrapper):
            if self.on_hello is not None:
                self.on_hello(packet.hello)
            return
        if isinstance(packet, PorHandshake):
            self._on_handshake(packet)

    def _hmac_ok(self, packet: Any) -> bool:
        """Whether ``packet``'s tag checks under the current link key.

        Memoized per (encoding, tag) under the current link key --
        retransmissions recheck for a dict hit, not an HMAC.
        """
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

    def _on_data(self, packet: PorData) -> None:
        """Place one checked data packet; when it is the next in order,
        fold and deliver it and every buffered packet it frees, then
        acknowledge.

        The common packet -- the next seq of the current epoch -- skips
        the placement tests and goes straight to the acceptance loop.
        """
        seq = packet.seq
        if seq != self._chain.next_seq or packet.epoch != self._rx_epoch:
            if packet.epoch != self._rx_epoch:
                if packet.epoch > self._rx_epoch:
                    # Peer restarted: reset receive state for the new epoch.
                    self._rx_epoch = packet.epoch
                    self._chain = CumulativeNonceChain()
                    self._reorder.clear()
                    self._ack_pending = 0
                else:
                    return  # stale epoch
            expected = self._chain.next_seq
            if seq < expected:
                self.duplicates_dropped += 1
                self._flush_ack()  # the ACK that would have cleared it was lost
                return
            if seq > expected:
                if seq >= expected + 4 * self._window:
                    # A legitimate sender is bounded by its send window, so a
                    # seq this far ahead is hostile or corrupted input.  It
                    # must not enter the reorder buffer: a giant seq would
                    # stretch the gap scan in _send_ack into an unbounded
                    # synchronous loop (observed as a live-runtime hang when
                    # a bit-flipped datagram slipped past integrity checks).
                    self.out_of_window_dropped += 1
                    return
                if len(self._reorder) < 4 * self._window:
                    self._reorder[seq] = packet
                # Duplicate cumulative ACK: tells the sender a gap opened so
                # it can fast-retransmit instead of waiting out the RTO.
                # Gaps never coalesce — the NACK must go out now.
                self._flush_ack()
                return
        # In order: accept it and every buffered packet it frees.
        reorder = self._reorder
        accepted = 0
        while packet is not None:
            self._chain.fold(packet.seq, packet.nonce)
            self.data_delivered += 1
            if self.on_deliver is not None:
                self.on_deliver(packet.payload, packet.wire_size - self._header_overhead)
            accepted += 1
            packet = reorder.pop(self._chain.next_seq, None) if reorder else None
        # Delayed ACK: coalesce in-order progress up to ACK_COALESCE
        # packets (bounded by the ACK_DELAY flush timer).  Any remaining
        # gap still ACKs immediately so the sender sees the NACK list.
        self._ack_pending += accepted
        if reorder or self._ack_pending >= self._ack_coalesce:
            self._flush_ack()
        elif not self._ack_timer_armed:
            self._ack_timer_armed = True
            self.sim.schedule_transient_at(
                self.sim.now + self._ack_delay, self._ack_timer_fire
            )

    def _ack_timer_fire(self) -> None:
        self._ack_timer_armed = False
        if self._ack_pending:
            self._flush_ack()

    def begin_datagram(self) -> None:
        """The packets up to :meth:`end_datagram` arrived in one datagram:
        acknowledge them together.

        Of the ACKs one datagram's frames would trigger -- one per
        ``ACK_COALESCE`` in-order packets, one per gap or duplicate --
        only the last carries information, because ACKs are cumulative
        and the NACK list is rebuilt from the reorder buffer each time.
        Nothing waits longer for it: the frames are processed back to
        back, and the ACK leaves with the datagram that caused it.
        """
        self._in_datagram = True

    def end_datagram(self) -> None:
        """Send the one ACK the datagram's packets asked for, if any.  A
        tail below ``ACK_COALESCE`` stays with the ``ACK_DELAY`` timer."""
        self._in_datagram = False
        if self._ack_due:
            self._ack_due = False
            self._flush_ack()

    def _flush_ack(self) -> None:
        """Send the cumulative ACK now, clearing any deferred-ACK state
        (inside a datagram: at its end, see :meth:`begin_datagram`).

        A live flush timer is left alone: it fires later and disarms as a
        no-op (pending is zero), which is cheaper than cancelling it.
        Any packet deferred while the timer is live still flushes no
        later than the pending fire, so the ACK_DELAY bound holds.
        """
        if self._in_datagram:
            self._ack_due = True
            return
        self._ack_pending = 0
        self._send_ack()

    def _send_ack(self) -> None:
        missing: Tuple[int, ...] = ()
        if self._reorder:
            expected = self._chain.next_seq
            horizon = max(self._reorder)
            missing = tuple(
                seq for seq in range(expected, horizon)
                if seq not in self._reorder
            )[:16]
        ack = PorAck(
            self._rx_epoch, self._chain.next_seq - 1, self._chain.proof(), missing
        )
        if self._hmac_active:
            ack.mac = self._mac_ctx.tag(self._encode_for_mac(ack))
        if self._mac_counters is not None:
            self._mac_counters[0].add()
        self.out_channel.send(ack, ACK_SIZE + 4 * len(missing))
        self.acks_sent += 1

    def _on_ack(self, ack: PorAck) -> None:
        if ack.epoch != self.epoch:
            return
        # Note: cum_seq may be -1 (nothing received in order yet); such
        # ACKs still matter for their NACK list — e.g. when the very
        # first packet of the stream was lost.
        if ack.cum_seq == self._verifier.acked_up_to and self._unacked:
            # Duplicate cumulative ACK: the receiver got something beyond
            # a gap.  Selectively retransmit the NACKed sequences; after
            # two duplicates also re-send the head of the window.
            for seq in ack.missing:
                self._fast_retransmit(seq)
            self._dup_acks += 1
            if self._dup_acks >= 2:
                self._dup_acks = 0
                self._fast_retransmit(ack.cum_seq + 1)
            return
        record = self._unacked.get(ack.cum_seq)
        if not self._verifier.check(ack.cum_seq, ack.proof):
            if ack.cum_seq > self._verifier.acked_up_to:
                self.bogus_acks_rejected += 1
            return
        self._dup_acks = 0
        # Karn's algorithm: sample RTT only from never-retransmitted packets.
        if record is not None and not record.retransmitted:
            self._sample_rtt(self.sim.now - record.first_sent)
        unacked = self._unacked
        had_no_room = len(unacked) >= self._window
        # Filled in seq order and never re-inserted: the covered records
        # are exactly the leading keys.
        cum_seq = ack.cum_seq
        while unacked:
            seq = next(iter(unacked))
            if seq > cum_seq:
                break
            del unacked[seq]
        # The retransmission timer is deliberately NOT re-armed here.  The
        # pending fire may now be early (its record was just acked), but a
        # stale fire is a no-op scan in _on_timeout that then re-arms at
        # the true minimum — far cheaper than cancel/min-scan/schedule on
        # every ACK of a healthy link.
        if had_no_room and len(self._unacked) < self._window:
            # The window reopened; wake the upper layer once pacing allows.
            delay = self.time_until_ready()
            if delay is not None and self.on_ready is not None:
                self.sim.schedule(delay, self._fire_ready)

    def _fire_ready(self) -> None:
        if self.on_ready is None:
            return
        if self.can_accept():
            self.on_ready()
            return
        # Pacing got busy again (e.g. an ACK burst); retry when it clears.
        delay = self.time_until_ready()
        if delay is not None:
            self.sim.schedule(max(delay, 1e-4), self._fire_ready)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _sample_rtt(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        # A generous margin over SRTT: ACKs share the reverse channel
        # with data and jitter by several serialization quanta under
        # load; a tight RTO turns that jitter into spurious retransmits
        # that can waste half the forward capacity.
        rto = 1.5 * self._srtt + 4 * max(self._rttvar, 0.25 * self._srtt)
        self._rto_cache = min(max(rto, self.config.min_rto), MAX_RTO)

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._unacked:
            return
        deadline = min(record.deadline for record in self._unacked.values())
        self._timer_deadline = max(deadline, self.sim.now)
        self._timer = self.sim.schedule_at(self._timer_deadline, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        now = self.sim.now
        for seq in sorted(self._unacked):
            record = self._unacked[seq]
            if record.deadline <= now + 1e-12:
                record.retransmitted = True
                record.rto = min(record.rto * 2, MAX_RTO)
                record.deadline = now + record.rto
                self._transmit(seq, record)
                self.data_retransmitted += 1
        self._arm_timer()

    # ------------------------------------------------------------------
    # Handshake (REAL crypto mode)
    # ------------------------------------------------------------------
    def _on_handshake(self, msg: PorHandshake) -> None:
        if msg.sender != self.peer_id:
            return
        if not self.pki.verify(msg.sender, ("dh", msg.sender, msg.dh_public), msg.signature):
            self.macs_rejected += 1
            return
        if self._dh is None:
            # We are the responder: answer the offer with our own half.
            self._handshake_responder = True
            self.start_handshake()
        elif self._established and self._handshake_responder:
            # A retransmitted offer means our answering half was lost in
            # flight; re-send it.  Only the responder does this (the
            # initiator re-offers from its own timer), so two established
            # endpoints can never ping-pong handshakes at each other.
            self._send_handshake_offer()
        peer_public = int.from_bytes(msg.dh_public, "big")
        self._link_key = self._dh.compute_shared(peer_public)
        self._mac_memo.clear()
        self._hmac_active = self.pki.mode is PkiMode.REAL and self._link_key is not None
        self._mac_ctx = BatchMacContext(self._link_key) if self._hmac_active else None
        already_established = self._established
        self._established = True
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None
        if already_established:
            return  # a retransmitted offer; key is unchanged
        if self.on_ready is not None:
            self.sim.call_soon(self.on_ready)

    def _encode_for_mac(self, packet: Any) -> bytes:
        return canonical_bytes(packet.mac_fields())
