"""Deterministic wire codec for live overlay datagrams.

The simulator passes Python objects between nodes by reference; the live
runtime must put them on real UDP sockets.  This module defines the
versioned, length-prefixed datagram format and an explicit per-type codec
for every payload that crosses a Proof-of-Receipt link:

* link envelopes — :class:`~repro.link.por.PorData`,
  :class:`~repro.link.por.PorAck`, :class:`~repro.link.por.PorHandshake`,
  and the out-of-stream hello wrapper;
* overlay payloads carried inside ``PorData`` —
  :class:`~repro.messaging.message.Message`, ``E2eAck``, ``NeighborAck``,
  ``StateRequest``, ``Hello``, and
  :class:`~repro.routing.link_state.LinkStateUpdate`;
* signature material from :mod:`repro.crypto` — ``None`` (PKI mode NONE),
  :class:`~repro.crypto.simulated.SimulatedSignature`, raw RSA/HMAC bytes,
  and integer MAC tags.

Datagram layout (all integers big-endian)::

    0      2      3        4           8       12
    +------+------+--------+-----------+-------+----------------- - - -
    | "IT" | ver  | flags  | body_len  | crc32 | body (body_len bytes)
    +------+------+--------+-----------+-------+----------------- - - -
    body = sender_id | receiver_id | envelope_tag(1B) | envelope fields

With the :data:`FLAG_BATCH` flag bit set, the body instead carries a
*batch container* — several link envelopes amortizing one datagram, one
header, and one CRC::

    body = sender_id | receiver_id | count(2B) | frames
    frame = frame_len(4B) | envelope_tag(1B) | envelope fields

A single-frame send always uses the classic (flags=0) layout, so batching
is invisible on the wire unless two or more packets actually coalesce —
sim/live conformance stays byte-identical for unbatched traffic.

The CRC-32 covers the header (with the crc field itself excluded) plus
the body, so any in-flight bit flip — UDP's 16-bit checksum is weak and
optional — is rejected at decode time instead of reaching protocol state
with a corrupted sequence number or epoch.  The same trailer guards every
frame of a batch: a flip anywhere in the container rejects the datagram.

Zero-copy discipline:

* **Decode** wraps the input in a :class:`memoryview` and unpacks fixed
  fields in place (``struct.unpack_from``); the CRC is chained over
  header and body views without re-concatenating them, and batch frames
  are sliced as sub-views.  Only variable-length fields that outlive the
  datagram (nonces, proofs, application payloads, text) are materialized,
  and every length prefix is bounds-checked against the remaining budget
  *before* any allocation, so a hostile length claim fails fast.
* **Encode** writes into a pooled ``bytearray`` via ``pack_into``
  (header reserved up front, CRC back-patched) and copies out the final
  immutable ``bytes`` once.  Pool ownership rule: a buffer is owned by
  exactly one encode call and is returned to the pool before the call
  returns; the caller only ever sees the immutable copy.

Encode once, recognise a repeat: a :class:`Message`'s payload section is
cached on the message as three pieces (``Message._wire_cache``), filled by
the first encode or by the decoder from the received bytes, so further
out-links and relays copy bytes instead of walking fields; and a
per-node :class:`MessageMemo` lets the decoder hand back the *same*
``Message`` object for a byte-identical flooded copy (DESIGN.md §13).

Malformed input *never* escapes as ``struct.error`` / ``IndexError`` /
``UnicodeDecodeError``: :func:`decode_datagram` raises
:class:`repro.errors.WireDecodeError` for anything truncated, corrupted,
over-length, or of an unknown version/flag/tag, so a live node can drop
bad datagrams and keep serving.  Encoding an object the format cannot
carry raises :class:`repro.errors.WireEncodeError`.

The format is deterministic: encoding the same object twice yields the
same bytes, and ``decode(encode(x)) == x`` field-for-field (the property
test in ``tests/test_runtime_wire.py`` drives this with Hypothesis; the
batch container is fuzzed in ``tests/test_wire_batch.py``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.nonces import NONCE_SIZE, PROOF_SIZE
from repro.crypto.simulated import SimulatedSignature
from repro.errors import TopologyError, WireDecodeError, WireEncodeError
from repro.link.por import PorAck, PorData, PorHandshake, _HelloWrapper
from repro.messaging.message import (
    AdmissionNack,
    E2eAck,
    Hello,
    Message,
    NeighborAck,
    Semantics,
    StateRequest,
)
from repro.routing.link_state import LinkStateUpdate
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw

MAGIC = b"IT"
VERSION = 2

#: Flag bit marking a batch-container body (N frames in one datagram).
FLAG_BATCH = 0x01

#: All flag bits this codec understands; anything else is rejected.
_KNOWN_FLAGS = FLAG_BATCH

#: Bytes before the body: magic(2) + version(1) + flags(1) + body_len(4)
#: + crc32(4).
HEADER_SIZE = 12

#: Upper bound on an encoded body; larger datagrams are rejected on both
#: sides (a UDP datagram cannot exceed 64 KiB anyway).
MAX_BODY = 60_000

# Envelope tags (the outermost object in a datagram).
_ENV_POR_DATA = 1
_ENV_POR_ACK = 2
_ENV_POR_HANDSHAKE = 3
_ENV_HELLO = 4
# Cluster control frames: bootstrap address discovery (seed-node
# directory queries and restart re-announcements).  They ride outside
# the PoR link — a joining node has no link yet — and are therefore
# unauthenticated; anything acting on one only updates an address hint,
# never protocol state, so forgery degrades to (at worst) a DoS that the
# link-level MACs already absorb.
_ENV_ADDR_QUERY = 5
_ENV_ADDR_REPLY = 6
_ENV_ADDR_ANNOUNCE = 7

# Payload tags (objects carried inside a PorData envelope).
_PL_MESSAGE = 1
_PL_E2E_ACK = 2
_PL_NEIGHBOR_ACK = 3
_PL_LINK_STATE = 4
_PL_STATE_REQUEST = 5
_PL_HELLO = 6
_PL_MTMW = 7
_PL_ADMISSION_NACK = 8

# Signature kinds.
_SIG_NONE = 0
_SIG_SIMULATED = 1
_SIG_BYTES = 2
_SIG_INT = 3

# Node-id kinds (ids round-trip typed: the sim uses ints for the global
# cloud and strings elsewhere, and both are dict keys in protocol state).
_ID_INT = 0
_ID_STR = 1

# Pre-compiled packers shared by every encode/decode call.
_S_U16 = struct.Struct(">H")
_S_U32 = struct.Struct(">I")
_S_I64 = struct.Struct(">q")
_S_F64 = struct.Struct(">d")
_S_VLF = struct.Struct(">BBI")  # version, flags, body_len
_S_HDR = struct.Struct(">BBII")  # version, flags, body_len, crc
# The two envelopes nearly every frame carries, in the shape the PoR link
# gives them in SIMULATED crypto mode (standard nonce/proof size, no MAC
# bytes, no NACK list): the whole head in one pack/unpack.  Same bytes as
# the field-by-field path, which still serves every other shape.
#   tag, epoch, seq, len(nonce), nonce, wire_size, _SIG_NONE
_S_POR_DATA = struct.Struct(f">BqqH{NONCE_SIZE}sIB")
#   tag, epoch, cum_seq, len(proof), proof, len(missing) = 0, _SIG_NONE
_S_POR_ACK = struct.Struct(f">BqqH{PROOF_SIZE}sHB")

_crc32 = zlib.crc32


@dataclass(frozen=True)
class Datagram:
    """A decoded datagram: who sent it, whom it addresses, and the packet(s).

    ``packet`` is the first (for classic datagrams: only) link envelope;
    ``packets`` carries every frame of a batch container in order.  For a
    classic datagram ``packets == (packet,)``.
    """

    sender: Any
    receiver: Any
    packet: Any
    packets: Tuple[Any, ...] = ()


class _BufferPool:
    """A small free-list of encode buffers (single-threaded ownership)."""

    __slots__ = ("_free", "_max")

    def __init__(self, max_buffers: int = 8):
        self._free: List[bytearray] = []
        self._max = max_buffers

    def acquire(self) -> bytearray:
        if self._free:
            return self._free.pop()
        return bytearray(2048)

    def release(self, buf: bytearray) -> None:
        if len(self._free) < self._max:
            self._free.append(buf)


_ENCODE_POOL = _BufferPool()


class _Writer:
    """Binary writer over a growable buffer with the codec's primitives.

    Writes land directly in ``buf`` via ``pack_into`` — no intermediate
    ``bytes`` objects and no final join.  ``pos`` tracks the write head;
    the caller slices ``buf[:pos]`` once at the end.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: Optional[bytearray] = None, start: int = 0) -> None:
        self.buf = bytearray(256) if buf is None else buf
        self.pos = start

    def _grow(self, need: int) -> None:
        buf = self.buf
        buf.extend(bytearray(max(need - len(buf), len(buf), 256)))

    # Primitives ----------------------------------------------------------
    def u8(self, value: int) -> None:
        pos = self.pos
        if pos + 1 > len(self.buf):
            self._grow(pos + 1)
        try:
            self.buf[pos] = value
        except ValueError:
            raise WireEncodeError(f"u8 out of range: {value}") from None
        self.pos = pos + 1

    def u16(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise WireEncodeError(f"u16 out of range: {value}")
        pos = self.pos
        if pos + 2 > len(self.buf):
            self._grow(pos + 2)
        _S_U16.pack_into(self.buf, pos, value)
        self.pos = pos + 2

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireEncodeError(f"u32 out of range: {value}")
        pos = self.pos
        if pos + 4 > len(self.buf):
            self._grow(pos + 4)
        _S_U32.pack_into(self.buf, pos, value)
        self.pos = pos + 4

    def patch_u32(self, at: int, value: int) -> None:
        """Back-patch a u32 written earlier (batch frame lengths)."""
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireEncodeError(f"u32 out of range: {value}")
        _S_U32.pack_into(self.buf, at, value)

    def i64(self, value: int) -> None:
        pos = self.pos
        if pos + 8 > len(self.buf):
            self._grow(pos + 8)
        try:
            _S_I64.pack_into(self.buf, pos, value)
        except struct.error:
            raise WireEncodeError(f"i64 out of range: {value}") from None
        self.pos = pos + 8

    def f64(self, value: float) -> None:
        pos = self.pos
        if pos + 8 > len(self.buf):
            self._grow(pos + 8)
        _S_F64.pack_into(self.buf, pos, value)
        self.pos = pos + 8

    def boolean(self, value: bool) -> None:
        self.u8(1 if value else 0)

    def pack(self, layout: struct.Struct, *values: Any) -> None:
        """Write several fixed-width fields through one precompiled layout."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.buf):
            self._grow(end)
        try:
            layout.pack_into(self.buf, pos, *values)
        except struct.error as exc:
            raise WireEncodeError(f"field out of range: {exc}") from None
        self.pos = end

    def put(self, value: bytes) -> None:
        """Copy already-encoded bytes in as they are (no length prefix)."""
        pos = self.pos
        end = pos + len(value)
        if end > len(self.buf):
            self._grow(end)
        self.buf[pos:end] = value
        self.pos = end

    def raw(self, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise WireEncodeError(f"expected bytes, got {type(value).__name__}")
        length = len(value)
        if length > 0xFFFF:
            raise WireEncodeError(f"bytes field too long ({length})")
        self.u16(length)
        self.put(value)

    def text(self, value: str) -> None:
        self.raw(value.encode("utf-8"))

    def opt_f64(self, value: Optional[float]) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.f64(value)

    # Domain types --------------------------------------------------------
    def node_id(self, value: Any) -> None:
        if isinstance(value, bool):
            raise WireEncodeError("bool is not a node id")
        if isinstance(value, int):
            self.u8(_ID_INT)
            self.i64(value)
        elif isinstance(value, str):
            self.u8(_ID_STR)
            self.text(value)
        else:
            raise WireEncodeError(
                f"node id must be int or str on the wire, got {type(value).__name__}"
            )

    def signature(self, value: Any) -> None:
        if value is None:
            self.u8(_SIG_NONE)
        elif isinstance(value, SimulatedSignature):
            self.u8(_SIG_SIMULATED)
            self.node_id(value.signer)
            self.i64(value.tag)
        elif isinstance(value, (bytes, bytearray)):
            self.u8(_SIG_BYTES)
            self.raw(bytes(value))
        elif isinstance(value, int):
            self.u8(_SIG_INT)
            self.i64(value)
        else:
            raise WireEncodeError(
                f"unsupported signature type {type(value).__name__}"
            )


class _Reader:
    """Bounds-checked reader over a memoryview; failures raise WireDecodeError.

    Fixed-width fields are unpacked in place; variable-length fields are
    budget-checked against the remaining bytes *before* any slice or
    allocation, so a hostile length prefix cannot trigger a large
    allocation or a quadratic scan.
    """

    __slots__ = ("_data", "_pos", "_len")

    def __init__(self, data) -> None:
        self._data = data
        self._pos = 0
        self._len = len(data)

    @property
    def exhausted(self) -> bool:
        return self._pos == self._len

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def _short(self, count: int) -> WireDecodeError:
        return WireDecodeError(
            f"truncated datagram: wanted {count} bytes at offset {self._pos}, "
            f"have {self._len - self._pos}"
        )

    def budget(self, count: int, min_size: int, what: str) -> None:
        """Fail fast when ``count`` elements cannot possibly fit.

        Every count-prefixed collection calls this before looping: a
        hostile count is rejected in O(1) instead of iterating (or
        allocating) toward an eventual truncation error.
        """
        if count * min_size > self._len - self._pos:
            raise WireDecodeError(
                f"{what} count {count} exceeds remaining "
                f"{self._len - self._pos} bytes"
            )

    # Primitives ----------------------------------------------------------
    def u8(self) -> int:
        pos = self._pos
        if pos >= self._len:
            raise self._short(1)
        self._pos = pos + 1
        return self._data[pos]

    def u16(self) -> int:
        pos = self._pos
        if pos + 2 > self._len:
            raise self._short(2)
        self._pos = pos + 2
        return _S_U16.unpack_from(self._data, pos)[0]

    def u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._len:
            raise self._short(4)
        self._pos = pos + 4
        return _S_U32.unpack_from(self._data, pos)[0]

    def i64(self) -> int:
        pos = self._pos
        if pos + 8 > self._len:
            raise self._short(8)
        self._pos = pos + 8
        return _S_I64.unpack_from(self._data, pos)[0]

    def f64(self) -> float:
        pos = self._pos
        if pos + 8 > self._len:
            raise self._short(8)
        self._pos = pos + 8
        return _S_F64.unpack_from(self._data, pos)[0]

    def boolean(self) -> bool:
        value = self.u8()
        if value not in (0, 1):
            raise WireDecodeError(f"invalid boolean byte {value}")
        return value == 1

    def raw(self) -> bytes:
        count = self.u16()
        pos = self._pos
        end = pos + count
        if end > self._len:
            raise self._short(count)
        self._pos = end
        return bytes(self._data[pos:end])

    def text(self) -> str:
        count = self.u16()
        pos = self._pos
        end = pos + count
        if end > self._len:
            raise self._short(count)
        self._pos = end
        try:
            return str(self._data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in string field: {exc}") from None

    def opt_f64(self) -> Optional[float]:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise WireDecodeError(f"invalid optional flag {flag}")
        return self.f64()

    def peek_tagged(self, layout: struct.Struct) -> Optional[Tuple[Any, ...]]:
        """Unpack ``layout`` from the byte just read (an envelope tag)
        onwards without consuming anything; None when it does not fit.
        The caller checks the length and kind fields it finds before it
        :meth:`skip`s ``layout.size - 1`` bytes and trusts the rest."""
        start = self._pos - 1
        if start + layout.size > self._len:
            return None
        return layout.unpack_from(self._data, start)

    def skip(self, count: int) -> None:
        """Consume ``count`` bytes already bounds-checked by a peek."""
        self._pos += count

    def next_is(self, byte: int) -> bool:
        """Whether the next unread byte exists and equals ``byte``."""
        return self._pos < self._len and self._data[self._pos] == byte

    def rest(self):
        """A zero-copy view of every byte not yet read (not consumed)."""
        return self._data[self._pos:self._len]

    def skip_rest(self) -> None:
        """Consume every remaining byte."""
        self._pos = self._len

    def copy(self, start: int, end: int) -> bytes:
        """An owned copy of bytes ``start``..``end`` of the underlying
        data (which may be a receive buffer that is reused)."""
        return bytes(self._data[start:end])

    def enter_frame(self, count: int) -> int:
        """Confine reading to the next ``count`` bytes (one batch frame);
        returns the limit to hand back to :meth:`leave_frame`."""
        outer = self._len
        end = self._pos + count
        if end > outer:
            raise self._short(count)
        self._len = end
        return outer

    def leave_frame(self, outer: int) -> None:
        """Restore the limit :meth:`enter_frame` replaced."""
        self._len = outer

    # Domain types --------------------------------------------------------
    def node_id(self) -> Any:
        kind = self.u8()
        if kind == _ID_INT:
            return self.i64()
        if kind == _ID_STR:
            return self.text()
        raise WireDecodeError(f"unknown node-id kind {kind}")

    def signature(self) -> Any:
        kind = self.u8()
        if kind == _SIG_NONE:
            return None
        if kind == _SIG_SIMULATED:
            return SimulatedSignature(signer=self.node_id(), tag=self.i64())
        if kind == _SIG_BYTES:
            return self.raw()
        if kind == _SIG_INT:
            return self.i64()
        raise WireDecodeError(f"unknown signature kind {kind}")


# ----------------------------------------------------------------------
# Cluster bootstrap-discovery control frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddrQuery:
    """Ask a seed node for the current addresses of ``targets``."""

    sender: Any
    nonce: int
    targets: Tuple[Any, ...]


@dataclass(frozen=True)
class AddrReply:
    """A seed node's answer: ``(node_id, host, port)`` per known target."""

    nonce: int
    entries: Tuple[Tuple[Any, str, int], ...]


@dataclass(frozen=True)
class AddrAnnounce:
    """Advertise that ``sender`` now listens at ``(host, port)``.

    Sent after a supervised restart rebinds a socket and when a joining
    node comes up; receivers treat it purely as an address hint (PoR MACs
    still gate all protocol traffic), so forging one cannot inject state.
    """

    sender: Any
    host: str
    port: int


# ----------------------------------------------------------------------
# Overlay payloads (carried inside PorData)
# ----------------------------------------------------------------------
def _encode_message(writer: _Writer, message: Message) -> None:
    """A data message's payload section: copied from the pieces cached on
    the message when it was encoded or decoded before, else written field
    by field and cached for the next out-link."""
    pieces = message._wire_cache
    if pieces is not None:
        writer.put(pieces[0])
        writer.put(pieces[1])
        writer.put(pieces[2])
        return
    start = writer.pos
    writer.u8(_PL_MESSAGE)
    writer.node_id(message.source)
    writer.node_id(message.dest)
    writer.i64(message.seq)
    writer.u8(1 if message.semantics is Semantics.PRIORITY else 2)
    writer.i64(message.priority)
    writer.opt_f64(message.expiration)
    writer.u32(message.size_bytes)
    writer.boolean(message.flooding)
    if message.paths is None:
        writer.u16(0xFFFF)
    else:
        if len(message.paths) >= 0xFFFF:
            raise WireEncodeError("too many paths")
        writer.u16(len(message.paths))
        for path in message.paths:
            writer.u16(len(path))
            for hop in path:
                writer.node_id(hop)
    writer.f64(message.sent_at)
    app_payload = message.payload
    _encode_app_payload(writer, app_payload)
    # A ``bytes`` payload is the middle piece itself, never a second copy.
    body = app_payload if type(app_payload) is bytes else b""
    tail_start = writer.pos
    writer.signature(message.signature)
    buf = writer.buf
    object.__setattr__(message, "_wire_cache", (
        bytes(buf[start:tail_start - len(body)]),
        body,
        bytes(buf[tail_start:writer.pos]),
    ))


def _encode_payload(writer: _Writer, payload: Any) -> None:
    if isinstance(payload, Message):
        _encode_message(writer, payload)
    elif isinstance(payload, E2eAck):
        writer.u8(_PL_E2E_ACK)
        writer.node_id(payload.dest)
        writer.i64(payload.stamp)
        writer.u16(len(payload.cumulative))
        for source, seq in payload.cumulative:
            writer.text(source)
            writer.i64(seq)
        writer.signature(payload.signature)
    elif isinstance(payload, NeighborAck):
        writer.u8(_PL_NEIGHBOR_ACK)
        writer.node_id(payload.sender)
        writer.u16(len(payload.entries))
        for (source, dest), stored_h, limit in payload.entries:
            writer.text(source)
            writer.text(dest)
            writer.i64(stored_h)
            writer.i64(limit)
    elif isinstance(payload, LinkStateUpdate):
        writer.u8(_PL_LINK_STATE)
        writer.node_id(payload.issuer)
        writer.node_id(payload.edge_a)
        writer.node_id(payload.edge_b)
        writer.f64(payload.weight)
        writer.i64(payload.seqno)
        writer.signature(payload.signature)
    elif isinstance(payload, StateRequest):
        writer.u8(_PL_STATE_REQUEST)
        writer.node_id(payload.sender)
    elif isinstance(payload, Hello):
        writer.u8(_PL_HELLO)
        writer.node_id(payload.sender)
        writer.i64(payload.stamp)
    elif isinstance(payload, Mtmw):
        # Dynamic membership floods successor MTMWs over existing PoR
        # links (the PoR MAC authenticates the neighbor; the admin
        # signature inside authenticates the topology itself, and
        # MtmwHolder.consider rejects stale/forged candidates).
        writer.u8(_PL_MTMW)
        topo = payload.topology
        writer.i64(payload.seqno)
        nodes = sorted(topo.nodes, key=str)
        if len(nodes) > 0xFFFF:
            raise WireEncodeError(f"MTMW with {len(nodes)} nodes is too large")
        writer.u16(len(nodes))
        for node in nodes:
            writer.node_id(node)
        edges = sorted(topo.edges(), key=lambda e: (str(e[0]), str(e[1])))
        if len(edges) > 0xFFFF:
            raise WireEncodeError(f"MTMW with {len(edges)} edges is too large")
        writer.u16(len(edges))
        for a, b in edges:
            writer.node_id(a)
            writer.node_id(b)
            writer.f64(topo.weight(a, b))
        writer.signature(payload.signature)
    elif isinstance(payload, AdmissionNack):
        # Unsigned like NeighborAck: only ever carried over the
        # already-authenticated PoR link between direct neighbors.
        writer.u8(_PL_ADMISSION_NACK)
        writer.node_id(payload.ingress)
        writer.node_id(payload.home)
        writer.text(payload.client)
        writer.text(payload.key)
        writer.text(payload.outcome)
        writer.i64(payload.seq)
    else:
        raise WireEncodeError(
            f"payload type {type(payload).__name__} is not supported on the "
            "live wire"
        )


def _encode_app_payload(writer: _Writer, payload: Any) -> None:
    """The opaque application payload: None, bytes, or text."""
    if payload is None:
        writer.u8(0)
    elif isinstance(payload, (bytes, bytearray)):
        writer.u8(1)
        writer.raw(bytes(payload))
    elif isinstance(payload, str):
        writer.u8(2)
        writer.text(payload)
    else:
        raise WireEncodeError(
            "live-mode application payloads must be None, bytes, or str "
            f"(got {type(payload).__name__})"
        )


def _decode_app_payload(reader: _Reader) -> Any:
    kind = reader.u8()
    if kind == 0:
        return None
    if kind == 1:
        return reader.raw()
    if kind == 2:
        return reader.text()
    raise WireDecodeError(f"unknown application-payload kind {kind}")


def _decode_payload(reader: _Reader) -> Any:
    tag = reader.u8()
    if tag == _PL_MESSAGE:
        start = reader._pos - 1
        source = reader.node_id()
        dest = reader.node_id()
        seq = reader.i64()
        semantics_byte = reader.u8()
        if semantics_byte == 1:
            semantics = Semantics.PRIORITY
        elif semantics_byte == 2:
            semantics = Semantics.RELIABLE
        else:
            raise WireDecodeError(f"unknown semantics byte {semantics_byte}")
        priority = reader.i64()
        expiration = reader.opt_f64()
        size_bytes = reader.u32()
        flooding = reader.boolean()
        path_count = reader.u16()
        paths: Optional[Tuple[Tuple[Any, ...], ...]]
        if path_count == 0xFFFF:
            paths = None
        else:
            # Each path costs at least a u16 hop count.
            reader.budget(path_count, 2, "path")
            paths_list = []
            for _ in range(path_count):
                hop_count = reader.u16()
                # Each hop is at least a kind byte + 2-byte text length.
                reader.budget(hop_count, 3, "path hop")
                paths_list.append(
                    tuple(reader.node_id() for _ in range(hop_count))
                )
            paths = tuple(paths_list)
        sent_at = reader.f64()
        app_payload = _decode_app_payload(reader)
        body = app_payload if type(app_payload) is bytes else b""
        tail_start = reader._pos
        signature = reader.signature()
        message = Message(
            source=source,
            dest=dest,
            seq=seq,
            semantics=semantics,
            priority=priority,
            expiration=expiration,
            size_bytes=size_bytes,
            flooding=flooding,
            paths=paths,
            sent_at=sent_at,
            payload=app_payload,
            signature=signature,
        )
        # The received bytes are this message's encoding: a relay copies
        # them out again (owned copies -- the datagram may sit in a
        # receive buffer that is reused).
        object.__setattr__(message, "_wire_cache", (
            reader.copy(start, tail_start - len(body)),
            body,
            reader.copy(tail_start, reader._pos),
        ))
        return message
    if tag == _PL_E2E_ACK:
        dest = reader.node_id()
        stamp = reader.i64()
        count = reader.u16()
        # Each entry is at least a 2-byte text length + an i64.
        reader.budget(count, 10, "cumulative-ack entry")
        cumulative = tuple(
            (reader.text(), reader.i64()) for _ in range(count)
        )
        return E2eAck(dest, stamp, cumulative, reader.signature())
    if tag == _PL_NEIGHBOR_ACK:
        sender = reader.node_id()
        count = reader.u16()
        # Two text lengths plus two i64s per entry, minimum.
        reader.budget(count, 20, "neighbor-ack entry")
        entries = tuple(
            ((reader.text(), reader.text()), reader.i64(), reader.i64())
            for _ in range(count)
        )
        return NeighborAck(sender, entries)
    if tag == _PL_LINK_STATE:
        return LinkStateUpdate(
            issuer=reader.node_id(),
            edge_a=reader.node_id(),
            edge_b=reader.node_id(),
            weight=reader.f64(),
            seqno=reader.i64(),
            signature=reader.signature(),
        )
    if tag == _PL_STATE_REQUEST:
        return StateRequest(reader.node_id())
    if tag == _PL_HELLO:
        return Hello(reader.node_id(), reader.i64())
    if tag == _PL_MTMW:
        seqno = reader.i64()
        node_count = reader.u16()
        # Each node id is at least a kind byte + 2-byte text length.
        reader.budget(node_count, 3, "mtmw node")
        topo = Topology()
        try:
            for _ in range(node_count):
                topo.add_node(reader.node_id())
            edge_count = reader.u16()
            # Two node ids (>= 3 bytes each) plus an f64 weight.
            reader.budget(edge_count, 14, "mtmw edge")
            for _ in range(edge_count):
                a = reader.node_id()
                b = reader.node_id()
                topo.add_edge(a, b, reader.f64())
        except TopologyError as exc:
            raise WireDecodeError(f"invalid MTMW topology: {exc}") from None
        return Mtmw(topo, seqno, reader.signature())
    if tag == _PL_ADMISSION_NACK:
        return AdmissionNack(
            ingress=reader.node_id(),
            home=reader.node_id(),
            client=reader.text(),
            key=reader.text(),
            outcome=reader.text(),
            seq=reader.i64(),
        )
    raise WireDecodeError(f"unknown payload tag {tag}")


class MessageMemo:
    """One node's memo of the flooded messages it decoded last.

    Constrained flooding hands a node the same signed message once per
    in-link, byte for byte.  The decoder looks the frame's payload
    section up here by checksum and, only when the cached pieces *equal*
    the received bytes, returns the ``Message`` object it built for the
    first copy -- with the uid, signed tuple and per-PKI-epoch verify
    verdict that object has cached since.  Identical bytes decode to
    identical fields, so they share one verdict; a copy that differs in
    any byte misses and is decoded into a fresh, cold object.

    Owned by one :class:`~repro.runtime.transport.AsyncioUdpTransport`
    (a node never shares it), bounded at :data:`SIZE` entries evicted
    oldest first, and limited to ``flooding=True`` messages: a K-paths
    message reaches a node once per path, so memoising it retains its
    payload without ever being hit.
    """

    #: Enough for every repeat on the saturated 12-node cloud to hit (one
    #: cold verification per node per message); a constant, not a setting.
    SIZE = 64

    __slots__ = ("_by_checksum",)

    def __init__(self) -> None:
        self._by_checksum: Dict[int, Message] = {}

    def __len__(self) -> int:
        return len(self._by_checksum)

    def messages(self) -> List[Message]:
        """The memoised messages, oldest first."""
        return list(self._by_checksum.values())

    def clear(self) -> None:
        """Forget every message (the owning transport closed)."""
        self._by_checksum.clear()

    def decode(self, reader: _Reader) -> Message:
        """Decode the data message that fills the rest of ``reader``."""
        memo = self._by_checksum
        section = reader.rest()
        checksum = None
        if memo:  # nothing to recognise while no flooded message was seen
            checksum = _crc32(section)
            known = memo.get(checksum)
            if known is not None:
                head, body, tail = known._wire_cache
                received = bytes(section)
                if (
                    len(head) + len(body) + len(tail) == len(received)
                    and received.startswith(head)
                    and received.startswith(body, len(head))
                    and received.endswith(tail)
                ):
                    reader.skip_rest()
                    return known
        message = _decode_payload(reader)
        if message.flooding and reader.exhausted:
            if checksum is None:
                checksum = _crc32(section)
            memo.pop(checksum, None)  # a colliding entry: newest wins
            memo[checksum] = message
            if len(memo) > self.SIZE:
                del memo[next(iter(memo))]
        return message


# ----------------------------------------------------------------------
# Link envelopes
# ----------------------------------------------------------------------
def _encode_envelope(writer: _Writer, packet: Any) -> None:
    if isinstance(packet, PorData):
        nonce, mac = packet.nonce, packet.mac
        if mac is None and type(nonce) is bytes and len(nonce) == NONCE_SIZE:
            writer.pack(
                _S_POR_DATA, _ENV_POR_DATA, packet.epoch, packet.seq,
                NONCE_SIZE, nonce, packet.wire_size, _SIG_NONE,
            )
        else:
            writer.u8(_ENV_POR_DATA)
            writer.i64(packet.epoch)
            writer.i64(packet.seq)
            writer.raw(nonce)
            writer.u32(packet.wire_size)
            writer.signature(mac)
        _encode_payload(writer, packet.payload)
    elif isinstance(packet, PorAck):
        proof, mac = packet.proof, packet.mac
        if (
            mac is None and not packet.missing
            and type(proof) is bytes and len(proof) == PROOF_SIZE
        ):
            writer.pack(
                _S_POR_ACK, _ENV_POR_ACK, packet.epoch, packet.cum_seq,
                PROOF_SIZE, proof, 0, _SIG_NONE,
            )
        else:
            writer.u8(_ENV_POR_ACK)
            writer.i64(packet.epoch)
            writer.i64(packet.cum_seq)
            writer.raw(proof)
            writer.u16(len(packet.missing))
            for seq in packet.missing:
                writer.i64(seq)
            writer.signature(mac)
    elif isinstance(packet, PorHandshake):
        writer.u8(_ENV_POR_HANDSHAKE)
        writer.node_id(packet.sender)
        writer.raw(packet.dh_public)
        writer.signature(packet.signature)
    elif isinstance(packet, _HelloWrapper):
        writer.u8(_ENV_HELLO)
        writer.node_id(packet.hello.sender)
        writer.i64(packet.hello.stamp)
    elif isinstance(packet, AddrQuery):
        writer.u8(_ENV_ADDR_QUERY)
        writer.node_id(packet.sender)
        writer.i64(packet.nonce)
        if len(packet.targets) > 0xFFFF:
            raise WireEncodeError("too many address-query targets")
        writer.u16(len(packet.targets))
        for target in packet.targets:
            writer.node_id(target)
    elif isinstance(packet, AddrReply):
        writer.u8(_ENV_ADDR_REPLY)
        writer.i64(packet.nonce)
        if len(packet.entries) > 0xFFFF:
            raise WireEncodeError("too many address-reply entries")
        writer.u16(len(packet.entries))
        for node, host, port in packet.entries:
            writer.node_id(node)
            writer.text(host)
            writer.u16(port)
    elif isinstance(packet, AddrAnnounce):
        writer.u8(_ENV_ADDR_ANNOUNCE)
        writer.node_id(packet.sender)
        writer.text(packet.host)
        writer.u16(packet.port)
    else:
        raise WireEncodeError(
            f"unsupported link envelope {type(packet).__name__}"
        )


def _decode_envelope(reader: _Reader, memo: Optional[MessageMemo] = None) -> Any:
    tag = reader.u8()
    if tag == _ENV_POR_DATA:
        head = reader.peek_tagged(_S_POR_DATA)
        if head is not None and head[3] == NONCE_SIZE and head[6] == _SIG_NONE:
            reader.skip(_S_POR_DATA.size - 1)
            _, epoch, seq, _, nonce, wire_size, _ = head
            mac = None
        else:
            epoch = reader.i64()
            seq = reader.i64()
            nonce = reader.raw()
            wire_size = reader.u32()
            mac = reader.signature()
        # The payload is the last field of the envelope and the envelope
        # the last of its frame, so the payload section is the rest.
        if memo is not None and reader.next_is(_PL_MESSAGE):
            payload = memo.decode(reader)
        else:
            payload = _decode_payload(reader)
        packet = PorData(epoch, seq, nonce, payload, wire_size)
        packet.mac = mac
        return packet
    if tag == _ENV_POR_ACK:
        head = reader.peek_tagged(_S_POR_ACK)
        if (
            head is not None and head[3] == PROOF_SIZE
            and head[5] == 0 and head[6] == _SIG_NONE
        ):
            reader.skip(_S_POR_ACK.size - 1)
            _, epoch, cum_seq, _, proof, _, _ = head
            mac = None
            missing: Tuple[int, ...] = ()
        else:
            epoch = reader.i64()
            cum_seq = reader.i64()
            proof = reader.raw()
            count = reader.u16()
            reader.budget(count, 8, "missing-seq")
            missing = tuple(reader.i64() for _ in range(count))
            mac = reader.signature()
        packet = PorAck(epoch, cum_seq, proof, missing)
        packet.mac = mac
        return packet
    if tag == _ENV_POR_HANDSHAKE:
        return PorHandshake(reader.node_id(), reader.raw(), reader.signature())
    if tag == _ENV_HELLO:
        return _HelloWrapper(Hello(reader.node_id(), reader.i64()))
    if tag == _ENV_ADDR_QUERY:
        sender = reader.node_id()
        nonce = reader.i64()
        count = reader.u16()
        reader.budget(count, 3, "address-query target")
        return AddrQuery(
            sender, nonce, tuple(reader.node_id() for _ in range(count))
        )
    if tag == _ENV_ADDR_REPLY:
        nonce = reader.i64()
        count = reader.u16()
        # A node id (>= 3 bytes), a host text length, and a u16 port.
        reader.budget(count, 7, "address-reply entry")
        return AddrReply(
            nonce,
            tuple(
                (reader.node_id(), reader.text(), reader.u16())
                for _ in range(count)
            ),
        )
    if tag == _ENV_ADDR_ANNOUNCE:
        return AddrAnnounce(reader.node_id(), reader.text(), reader.u16())
    raise WireDecodeError(f"unknown envelope tag {tag}")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _finish_datagram(writer: _Writer, flags: int) -> bytes:
    """Fill in the reserved header + CRC and copy out the immutable bytes."""
    body_len = writer.pos - HEADER_SIZE
    if body_len > MAX_BODY:
        raise WireEncodeError(
            f"encoded body is {body_len} bytes (max {MAX_BODY})"
        )
    buf = writer.buf
    buf[0:2] = MAGIC
    _S_VLF.pack_into(buf, 2, VERSION, flags, body_len)
    with memoryview(buf) as view:
        crc = _crc32(view[HEADER_SIZE:writer.pos], _crc32(view[:8]))
        _S_U32.pack_into(buf, 8, crc)
        return bytes(view[: writer.pos])


def encode_datagram(sender: Any, receiver: Any, packet: Any) -> bytes:
    """Encode one link packet as a self-delimiting datagram.

    ``sender`` / ``receiver`` are the overlay node ids of the directed
    link the packet travels on; the receiving transport uses them to
    dispatch to the right PoR endpoint and to drop misdirected traffic.
    """
    buf = _ENCODE_POOL.acquire()
    try:
        writer = _Writer(buf, start=HEADER_SIZE)
        writer.node_id(sender)
        writer.node_id(receiver)
        _encode_envelope(writer, packet)
        return _finish_datagram(writer, 0)
    finally:
        _ENCODE_POOL.release(writer.buf)


def encode_batch_datagram(
    sender: Any, receiver: Any, packets: Sequence[Any]
) -> bytes:
    """Encode several link packets into one batch-container datagram.

    A single packet degenerates to the classic layout (byte-identical to
    :func:`encode_datagram`), so batching never changes unbatched bytes.
    Raises :class:`WireEncodeError` when the batch is empty, has more
    than 65535 frames, or overflows :data:`MAX_BODY`.
    """
    if not packets:
        raise WireEncodeError("empty batch")
    if len(packets) == 1:
        return encode_datagram(sender, receiver, packets[0])
    if len(packets) > 0xFFFF:
        raise WireEncodeError(f"too many frames in batch ({len(packets)})")
    buf = _ENCODE_POOL.acquire()
    try:
        writer = _Writer(buf, start=HEADER_SIZE)
        writer.node_id(sender)
        writer.node_id(receiver)
        writer.u16(len(packets))
        for packet in packets:
            length_at = writer.pos
            writer.u32(0)  # frame length, back-patched below
            frame_start = writer.pos
            _encode_envelope(writer, packet)
            writer.patch_u32(length_at, writer.pos - frame_start)
        return _finish_datagram(writer, FLAG_BATCH)
    finally:
        _ENCODE_POOL.release(writer.buf)


def decode_datagram(data, memo: Optional[MessageMemo] = None) -> Datagram:
    """Decode one datagram; raises :class:`WireDecodeError` on any defect.

    With the receiving node's ``memo``, a flooded data message whose
    bytes repeat a recently decoded one comes back as that same object
    (see :class:`MessageMemo`); every check below runs either way.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` (the batched
    receive path hands in views of a reusable receive buffer).  Rejects
    bad magic, unknown versions or flags, truncated bodies, trailing
    garbage, over-length claims, checksum mismatches (bit flips in
    flight), and unknown tags — a live node treats all of these as "not
    our traffic" and drops the datagram.
    """
    if isinstance(data, memoryview):
        view = data
    elif isinstance(data, (bytes, bytearray)):
        view = memoryview(data)
    else:
        raise WireDecodeError(f"expected bytes, got {type(data).__name__}")
    total = len(view)
    if total < HEADER_SIZE:
        raise WireDecodeError(f"datagram too short ({total} bytes)")
    if view[0] != 0x49 or view[1] != 0x54:  # b"IT"
        raise WireDecodeError("bad magic")
    version, flags, body_len, crc = _S_HDR.unpack_from(view, 2)
    if version != VERSION:
        raise WireDecodeError(f"unsupported wire version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise WireDecodeError(f"unknown flag bits 0x{flags:02x}")
    if body_len > MAX_BODY:
        raise WireDecodeError(f"body length {body_len} exceeds maximum")
    if total - HEADER_SIZE != body_len:
        raise WireDecodeError(
            f"length mismatch: header claims {body_len}, "
            f"body has {total - HEADER_SIZE}"
        )
    if _crc32(view[HEADER_SIZE:], _crc32(view[:8])) != crc:
        raise WireDecodeError("checksum mismatch (datagram corrupted in flight)")
    reader = _Reader(view[HEADER_SIZE:])
    try:
        sender = reader.node_id()
        receiver = reader.node_id()
        if flags & FLAG_BATCH:
            count = reader.u16()
            if count == 0:
                raise WireDecodeError("empty batch container")
            # Each frame costs at least a u32 length + a 1-byte tag.
            reader.budget(count, 5, "batch frame")
            frames = []
            for _ in range(count):
                outer = reader.enter_frame(reader.u32())
                frames.append(_decode_envelope(reader, memo))
                if not reader.exhausted:
                    raise WireDecodeError("trailing bytes after envelope")
                reader.leave_frame(outer)
            packet = frames[0]
            packets = tuple(frames)
        else:
            packet = _decode_envelope(reader, memo)
            packets = (packet,)
    except WireDecodeError:
        raise
    except (struct.error, IndexError, ValueError, OverflowError) as exc:
        # Belt and braces: the reader's bounds checks should catch
        # everything, but no primitive error may escape to the caller.
        raise WireDecodeError(f"malformed datagram: {exc}") from None
    if not reader.exhausted:
        raise WireDecodeError("trailing bytes after envelope")
    return Datagram(sender=sender, receiver=receiver, packet=packet, packets=packets)
