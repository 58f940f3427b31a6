"""Real UDP transports for the live overlay runtime.

One :class:`AsyncioUdpTransport` per overlay node: a single UDP socket
bound to localhost, shared by all of the node's Proof-of-Receipt links.
Per directed link the node holds

* a :class:`UdpSendChannel` (the ``out_channel`` of its PoR endpoint) —
  encodes each packet with :mod:`repro.runtime.wire` and sends one real
  datagram to the neighbor's socket;
* a :class:`UdpReceiveChannel` (the ``in_channel``) — a registration
  point for the endpoint's ``on_receive``; the transport decodes
  incoming datagrams and dispatches them here by sender id.

Both channel classes satisfy the
:class:`repro.runtime.interfaces.TransportLike` protocol, which is the
same duck type :class:`repro.sim.channel.Channel` implements — so
:class:`repro.link.por.PorEndpoint` runs unmodified over either.

Batched wire path
-----------------

Two kinds of batching amortize per-datagram overhead:

* :meth:`UdpSendChannel.send` queues every frame and flushes the queue as
  one batch-container datagram (``FLAG_BATCH`` in
  :mod:`repro.runtime.wire`) — one header, one CRC, one syscall for N
  frames — so PoR ACKs generated while data is queued piggyback in the
  same datagram: frames queued while the node's own transport is inside
  a receive wakeup (below) leave when that wakeup ends, before control
  returns to the event loop; frames queued from anywhere else (timers,
  another node's wakeup) leave via ``call_soon``.  A single pending
  packet flushes through the classic (flags=0) layout, keeping unbatched
  traffic byte-identical to the simulator's conformance expectations.
* The receive path drains multiple queued datagrams per event-loop
  wakeup: after asyncio hands over one datagram, the transport pulls
  whatever else the socket already has (bounded non-blocking
  ``recvfrom``) instead of paying one loop iteration per datagram.

The receive wakeup
------------------

One call of :meth:`AsyncioUdpTransport.datagram_received` — the datagram
asyncio delivered plus the drain, at most ``1 + DRAIN_BATCH`` datagrams —
is the unit of work.  It is bracketed in ``try``/``finally``:
``on_wakeup_start`` runs first; when it ends ``on_wakeup_end`` runs (the
overlay node forwards what it parked, see :meth:`repro.overlay.node.
OverlayNode.end_wakeup`) and then every send channel that queued a frame
during the wakeup is flushed.  What a hop produces is therefore on the
socket before the loop runs another node, and one hop costs one loop
iteration, not two.  Within a wakeup each datagram is bracketed too
(``UdpReceiveChannel.on_datagram_start`` / ``on_datagram_end``) so the
link acknowledges once per datagram, not once per ``ACK_COALESCE``
frames.  The simulator has neither bracket.

Robustness: anything that is not a well-formed, correctly addressed
datagram from a known neighbor is counted and dropped — an attacker (or
a stray process) spraying a node's port cannot crash it, only waste its
decode budget.  That mirrors the paper's stance that overlay nodes only
accept traffic from their direct MTMW neighbors.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import LiveRuntimeError, WireDecodeError, WireEncodeError
from repro.runtime.wire import (
    AddrAnnounce,
    AddrQuery,
    AddrReply,
    MessageMemo,
    decode_datagram,
    encode_batch_datagram,
    encode_datagram,
)

Address = Tuple[str, int]

#: Bootstrap-discovery control frames dispatched via ``on_control``
#: (they arrive from senders that are not yet registered peers).
_CONTROL_FRAMES = (AddrQuery, AddrReply, AddrAnnounce)


class UdpReceiveChannel:
    """The receiving half of one directed link (peer -> local node)."""

    __slots__ = (
        "peer",
        "on_receive",
        "on_datagram_start",
        "on_datagram_end",
        "packets_delivered",
    )

    def __init__(self, peer: Any):
        self.peer = peer
        self.on_receive: Optional[Callable[[Any], None]] = None
        #: Called around the :meth:`deliver` calls of one multi-frame
        #: datagram (all its frames belong to this channel), so the
        #: receiver can act once per datagram; the end hook runs even
        #: when a frame's handler raised.
        self.on_datagram_start: Optional[Callable[[], None]] = None
        self.on_datagram_end: Optional[Callable[[], None]] = None
        self.packets_delivered = 0

    def deliver(self, packet: Any) -> None:
        """Hand one decoded packet to the registered receiver."""
        self.packets_delivered += 1
        if self.on_receive is not None:
            self.on_receive(packet)

    def send(self, packet: Any, size_bytes: int) -> None:
        """TransportLike parity only: a receive channel never sends."""
        raise LiveRuntimeError("UdpReceiveChannel cannot send")

    def time_until_idle(self) -> float:
        """Always 0.0: receiving never backlogs the channel."""
        return 0.0


class UdpSendChannel:
    """The sending half of one directed link (local node -> peer).

    A real socket has no serialization model to report, so
    ``time_until_idle`` is always 0.0 — the answer the sim
    :class:`~repro.sim.channel.Channel` gives for its "infinite"
    bandwidth setting.
    """

    __slots__ = (
        "_transport",
        "peer",
        "on_receive",
        "packets_sent",
        "bytes_sent",
        "encode_errors",
        "send_retries",
        "send_drops",
        "datagrams_sent",
        "_pending",
        "_flush_scheduled",
    )

    def __init__(self, transport: "AsyncioUdpTransport", peer: Any):
        self._transport = transport
        self.peer = peer
        self.on_receive: Optional[Callable[[Any], None]] = None  # unused; parity
        self.packets_sent = 0
        self.bytes_sent = 0
        self.encode_errors = 0
        #: Per-link transmissions re-attempted by the transport's retry
        #: path, and sends definitively dropped after the retry also
        #: failed — the accounting the PoR link's loss model sees.
        self.send_retries = 0
        self.send_drops = 0
        #: Real datagrams put on the socket (< packets_sent when batching).
        self.datagrams_sent = 0
        self._pending: List[Any] = []
        self._flush_scheduled = False

    def send(self, packet: Any, size_bytes: int) -> None:
        """Queue ``packet`` for the peer; it leaves with the next flush.

        ``size_bytes`` is the *modeled* wire size used by the protocol's
        accounting; the actual datagram carries the codec's compact
        encoding.  A payload the codec cannot represent is counted and
        dropped when it is flushed (the PoR link treats it as loss), so
        one unsupported control object cannot crash the node's send path.

        The queue is flushed — as a batch container when others joined
        the packet — so ACKs piggyback with data generated in the same
        wakeup: at the end of the transport's receive wakeup when it is
        inside one, via ``call_soon`` otherwise.  Before the transport
        has an event loop the packet is sent at once.
        """
        self._pending.append(packet)
        if self._flush_scheduled:
            return
        transport = self._transport
        wakeup = transport._wakeup_channels
        if wakeup is not None:
            self._flush_scheduled = True
            wakeup.append(self)
            return
        loop = transport._loop
        if loop is not None:
            self._flush_scheduled = True
            loop.call_soon(self._flush)
            return
        self._pending.pop()
        self._send_one(packet)

    def _send_one(self, packet: Any) -> None:
        try:
            data = encode_datagram(self._transport.node_id, self.peer, packet)
        except WireEncodeError:
            self.encode_errors += 1
            self._transport.note_encode_error()
            return
        self.packets_sent += 1
        self.bytes_sent += len(data)
        self.datagrams_sent += 1
        self._transport.sendto(self.peer, data, channel=self)

    def _flush(self) -> None:
        self._flush_scheduled = False
        packets = self._pending
        if not packets:
            return
        self._pending = []
        if len(packets) == 1:
            self._send_one(packets[0])
            return
        try:
            data = encode_batch_datagram(
                self._transport.node_id, self.peer, packets
            )
        except WireEncodeError:
            # Oversized container or one unencodable packet: fall back
            # to classic per-packet datagrams (each individually guarded).
            for packet in packets:
                self._send_one(packet)
            return
        self.packets_sent += len(packets)
        self.bytes_sent += len(data)
        self.datagrams_sent += 1
        self._transport.sendto(self.peer, data, channel=self)

    def time_until_idle(self) -> float:
        """Always 0.0: the socket has no serialization model."""
        return 0.0


class AsyncioUdpTransport(asyncio.DatagramProtocol):
    """One overlay node's UDP socket plus per-neighbor dispatch."""

    #: Wait before retrying a send that failed with a transient OSError
    #: (e.g. ENOBUFS under load); one retry, then the PoR link's own
    #: retransmission takes over.
    SEND_RETRY_DELAY = 0.01

    #: Upper bound on extra datagrams drained from the socket per
    #: event-loop wakeup (beyond the one asyncio delivered), so one
    #: flooding peer cannot starve the loop.
    DRAIN_BATCH = 32

    def __init__(self, node_id: Any, metrics: Any = None):
        self.node_id = node_id
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._host = "127.0.0.1"
        self._peers: Dict[Any, Address] = {}
        self._inbound: Dict[Any, UdpReceiveChannel] = {}
        self._socket: Any = None
        #: This node's memo of recently decoded flooded messages: a
        #: repeated copy is recognised before it is decoded again.
        self._decode_memo = MessageMemo()
        # Drop accounting (spray-resistance observability).
        self.datagrams_received = 0
        self.bytes_received = 0
        self.decode_errors = 0
        self.misdirected = 0
        self.unknown_sender = 0
        self.encode_errors = 0
        self.dispatch_errors = 0
        self.send_errors = 0
        self.send_retries = 0
        #: Sends abandoned after the retry also failed (or no retry was
        #: possible): definitive transport-level loss, distinct from
        #: ``send_errors`` which counts every failed attempt.
        self.send_drops = 0
        #: Extra datagrams pulled by the per-wakeup drain loop (they are
        #: also counted in ``datagrams_received``).
        self.datagrams_drained = 0
        #: When set, an exception escaping a receiver's ``on_receive`` is
        #: swallowed (counted as ``dispatch_errors``) and reported here
        #: instead of unwinding into the event loop — the deployment uses
        #: this to attribute the failure to the owning node.  Unset, the
        #: exception propagates (standalone-transport behavior).
        self.on_dispatch_error: Optional[Callable[[BaseException], None]] = None
        #: Cluster bootstrap-discovery hook: when set, a well-formed
        #: control frame (AddrQuery/AddrReply/AddrAnnounce) is handed
        #: here *before* the unknown-sender drop — a joining node is by
        #: definition not yet a registered peer.  Receives
        #: ``(packet, addr)``; exceptions are swallowed into the
        #: dispatch-error accounting.
        self.on_control: Optional[Callable[[Any, Address], None]] = None
        #: Receive-wakeup hooks (see the module docstring): the start
        #: hook runs before the first datagram of a wakeup is processed,
        #: the end hook after the last one and *before* the wakeup's
        #: send channels are flushed, so what it sends leaves with them.
        self.on_wakeup_start: Optional[Callable[[], None]] = None
        self.on_wakeup_end: Optional[Callable[[], None]] = None
        #: Send channels that queued a frame during the current receive
        #: wakeup, in first-send order; None outside a wakeup.
        self._wakeup_channels: Optional[List[UdpSendChannel]] = None
        #: The port the socket was last bound to (survives ``close`` so a
        #: supervised restart can try to reclaim the same port, keeping
        #: peers' registrations valid without a re-announce).
        self.last_local_port: Optional[int] = None
        self._counters = None
        if metrics is not None:
            self._counters = {
                "rx": metrics.counter("live.rx.datagrams"),
                "rx_bytes": metrics.counter("live.rx.bytes"),
                "tx": metrics.counter("live.tx.datagrams"),
                "tx_bytes": metrics.counter("live.tx.bytes"),
                "drops": metrics.counter("live.rx.drops"),
                # Per-reason drop breakdown (mirrors the attribute
                # counters, so per-node snapshots expose them).
                "drop_decode": metrics.counter("live.rx.drop.decode"),
                "drop_misdirected": metrics.counter("live.rx.drop.misdirected"),
                "drop_unknown": metrics.counter("live.rx.drop.unknown_sender"),
                "dispatch_errors": metrics.counter("live.rx.dispatch_errors"),
                "send_errors": metrics.counter("live.tx.send_errors"),
                "send_retries": metrics.counter("live.tx.send_retries"),
                "send_drops": metrics.counter("live.tx.send_drops"),
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def open(
        cls,
        node_id: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Any = None,
        **kwargs: Any,
    ) -> "AsyncioUdpTransport":
        """Bind a UDP socket for ``node_id`` (port 0 = ephemeral) and
        return the ready transport.  Extra keyword arguments go to the
        subclass constructor (e.g. the chaos transport's injector)."""
        protocol = cls(node_id, metrics=metrics, **kwargs)
        await protocol._bind(host, port)
        return protocol

    async def _bind(self, host: str, port: int) -> None:
        self._host = host
        self._loop = asyncio.get_event_loop()
        await self._loop.create_datagram_endpoint(
            lambda: self, local_addr=(host, port)
        )

    async def reopen(self, host: Optional[str] = None, port: int = 0) -> Address:
        """Bind a fresh socket after :meth:`close` — the supervisor's
        restart path.  Peer registrations, receive channels, and counters
        all survive; only the OS-level endpoint (and thus, with an
        ephemeral port, the local address) is new.  Returns the new
        address so peers can be re-pointed at it."""
        if self._transport is not None:
            raise LiveRuntimeError(
                f"transport for {self.node_id!r} is still open"
            )
        await self._bind(host or self._host, port)
        return self.local_address

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        # asyncio wraps the socket in a TransportSocket facade that hides
        # recvfrom; unwrap to the real socket for the receive drain
        # (read-only use: asyncio still owns lifecycle).
        sock = transport.get_extra_info("socket")
        self._socket = getattr(sock, "_sock", sock)
        sockname = transport.get_extra_info("sockname")
        if sockname:
            self.last_local_port = sockname[1]

    @property
    def local_address(self) -> Address:
        """The (host, port) this node's socket is bound to."""
        if self._transport is None:
            raise LiveRuntimeError(f"transport for {self.node_id!r} is not bound")
        return self._transport.get_extra_info("sockname")[:2]

    @property
    def closed(self) -> bool:
        """True when no socket is bound (pre-open, or post-close)."""
        return self._transport is None

    def close(self) -> None:
        """Close the socket; safe to call more than once."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            self._socket = None
        # A killed node keeps no soft state: what it decodes after a
        # restart starts cold.
        self._decode_memo.clear()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_peer(self, peer_id: Any, address: Address) -> UdpReceiveChannel:
        """Declare a neighbor: where to send, and accept traffic from it."""
        self._peers[peer_id] = address
        channel = UdpReceiveChannel(peer_id)
        self._inbound[peer_id] = channel
        return channel

    def update_peer_address(self, peer_id: Any, address: Address) -> None:
        """Re-point an existing registration at a new address (the peer
        restarted on a fresh ephemeral port).  Unlike
        :meth:`register_peer` this keeps the receive channel — and the
        PoR endpoint's ``on_receive`` hook bound to it — intact."""
        if peer_id not in self._peers:
            raise LiveRuntimeError(
                f"{self.node_id!r} has no registered peer {peer_id!r}"
            )
        self._peers[peer_id] = address

    def send_channel(self, peer_id: Any) -> UdpSendChannel:
        """The sending half of the directed link to ``peer_id``."""
        if peer_id not in self._peers:
            raise LiveRuntimeError(
                f"{self.node_id!r} has no registered peer {peer_id!r}"
            )
        return UdpSendChannel(self, peer_id)

    def receive_channel(self, peer_id: Any) -> UdpReceiveChannel:
        """The receiving half of the directed link from ``peer_id``."""
        try:
            return self._inbound[peer_id]
        except KeyError:
            raise LiveRuntimeError(
                f"{self.node_id!r} has no registered peer {peer_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # Datagram I/O
    # ------------------------------------------------------------------
    def sendto(
        self,
        peer_id: Any,
        data: bytes,
        _retry: bool = False,
        channel: Optional[UdpSendChannel] = None,
    ) -> None:
        """Send raw encoded bytes to a registered peer.

        A transient :class:`OSError` (e.g. ``ENOBUFS`` when the kernel's
        socket buffers are saturated) is counted and retried once after a
        short delay; a second failure is *dropped and accounted* — the
        transport's ``send_drops`` (and the originating channel's, when
        known) record the definitive loss, and the PoR link retransmits.
        """
        if self._transport is None:
            return  # shutting down; drop silently
        address = self._peers.get(peer_id)
        if address is None:
            raise LiveRuntimeError(
                f"{self.node_id!r} has no registered peer {peer_id!r}"
            )
        try:
            self._transport.sendto(data, address)
        except OSError:
            self.send_errors += 1
            if self._counters is not None:
                self._counters["send_errors"].add()
            if not _retry and self._loop is not None:
                self._loop.call_later(
                    self.SEND_RETRY_DELAY, self._retry_sendto, peer_id, data,
                    channel,
                )
            else:
                # The retry also failed (or no retry was possible): this
                # datagram is definitively lost at the transport.
                self._note_send_drop(channel)
            return
        if self._counters is not None:
            self._counters["tx"].add()
            self._counters["tx_bytes"].add(len(data))

    def _retry_sendto(
        self,
        peer_id: Any,
        data: bytes,
        channel: Optional[UdpSendChannel] = None,
    ) -> None:
        if self._transport is None or peer_id not in self._peers:
            return  # closed (or peer torn down) while the retry was queued
        self.send_retries += 1
        if self._counters is not None:
            self._counters["send_retries"].add()
        if channel is not None:
            # Per-link accounting: the retried transmission belongs to
            # the link that originated the datagram.
            channel.send_retries += 1
        self.sendto(peer_id, data, _retry=True, channel=channel)

    def _note_send_drop(self, channel: Optional[UdpSendChannel]) -> None:
        self.send_drops += 1
        if self._counters is not None:
            self._counters["send_drops"].add()
        if channel is not None:
            channel.send_drops += 1

    def sendto_address(self, data: bytes, address: Address) -> None:
        """Send raw encoded bytes to an explicit address (no peer
        registration required) — the discovery path, where a joining
        node only knows a seed node's address, not a registered link.
        Best-effort: a failed send is counted, never retried (discovery
        frames are re-issued by their own timers)."""
        if self._transport is None:
            return
        try:
            self._transport.sendto(data, address)
        except OSError:
            self.send_errors += 1
            if self._counters is not None:
                self._counters["send_errors"].add()
            return
        if self._counters is not None:
            self._counters["tx"].add()
            self._counters["tx_bytes"].add(len(data))

    def note_encode_error(self) -> None:
        """Record a dropped-at-encode packet (see UdpSendChannel.send)."""
        self.encode_errors += 1

    def datagram_received(self, data: bytes, addr: Address) -> None:
        """One receive wakeup: this datagram plus the drain (see the
        module docstring); everything it queued is sent before returning."""
        self._wakeup_channels = []
        try:
            if self.on_wakeup_start is not None:
                self.on_wakeup_start()
            self._process_datagram(data, addr)
            self._drain_pending()
        finally:
            self._end_wakeup()

    def _end_wakeup(self) -> None:
        try:
            if self.on_wakeup_end is not None:
                try:
                    self.on_wakeup_end()
                except Exception as exc:
                    self._dispatch_failed(exc)
        finally:
            # Closed only now: what the end hook sent registered too.
            channels = self._wakeup_channels
            self._wakeup_channels = None
            for channel in channels:
                channel._flush()

    def _process_datagram(self, data: bytes, addr: Address) -> None:
        self.datagrams_received += 1
        self.bytes_received += len(data)
        if self._counters is not None:
            self._counters["rx"].add()
            self._counters["rx_bytes"].add(len(data))
        try:
            datagram = decode_datagram(data, self._decode_memo)
        except WireDecodeError:
            self.decode_errors += 1
            self._note_drop("drop_decode")
            return
        if datagram.receiver != self.node_id:
            self.misdirected += 1
            self._note_drop("drop_misdirected")
            return
        if isinstance(datagram.packet, _CONTROL_FRAMES):
            # Discovery control frames bypass peer dispatch: they may
            # legitimately come from nodes that are not registered peers
            # yet (a joiner querying a seed node).  Without a handler
            # they fall through to the normal unknown-sender drop.
            if self.on_control is not None:
                try:
                    self.on_control(datagram.packet, addr)
                except Exception as exc:
                    self._dispatch_failed(exc)
                return
        channel = self._inbound.get(datagram.sender)
        if channel is None:
            self.unknown_sender += 1
            self._note_drop("drop_unknown")
            return
        packets = datagram.packets
        # A lone frame needs no bracket: whatever it makes the receiver
        # do happens at once either way.
        bracket = len(packets) > 1 and channel.on_datagram_start is not None
        if bracket:
            channel.on_datagram_start()
        try:
            for packet in packets:
                try:
                    channel.deliver(packet)
                except Exception as exc:
                    self._dispatch_failed(exc)
        finally:
            if bracket and channel.on_datagram_end is not None:
                channel.on_datagram_end()

    def _dispatch_failed(self, exc: Exception) -> None:
        """Account an exception that escaped a receive-path handler;
        re-raises it (call from the ``except`` block) unless the
        deployment took it via ``on_dispatch_error``."""
        self.dispatch_errors += 1
        if self._counters is not None:
            self._counters["dispatch_errors"].add()
        if self.on_dispatch_error is None:
            raise exc
        # One poisoned handler (or payload) must not take the node's
        # receive path down with it; the deployment decides whether the
        # run still counts as healthy.
        self.on_dispatch_error(exc)

    def _drain_pending(self) -> None:
        """Drain datagrams the socket already queued, in this wakeup.

        asyncio's datagram transport hands over one datagram per loop
        iteration; under burst load that is one full loop cycle of
        overhead per datagram.  Pulling the rest of the queue here with
        non-blocking ``recvfrom`` amortizes the wakeup across the burst.
        Bounded by :data:`DRAIN_BATCH` so a flooding peer cannot starve
        the loop.
        """
        sock = self._socket
        if sock is None or self._transport is None:
            return
        try:
            recv_from = sock.recvfrom
        except AttributeError:  # pragma: no cover - exotic socket wrapper
            return
        for _ in range(self.DRAIN_BATCH):
            if self._transport is None:
                return  # a handler closed us mid-drain
            try:
                data, addr = recv_from(65535)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # socket died mid-drain; error_received handles it
            self.datagrams_drained += 1
            self._process_datagram(data, addr)

    def _note_drop(self, reason: str) -> None:
        if self._counters is not None:
            self._counters["drops"].add()
            self._counters[reason].add()

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        # ICMP port-unreachable while a peer restarts: UDP is lossy and
        # the PoR link retransmits, so this is noise, not failure.
        pass
