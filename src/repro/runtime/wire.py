"""Deterministic wire codec for live overlay datagrams.

The simulator passes Python objects between nodes by reference; the live
runtime must put them on real UDP sockets.  This module defines the
versioned, length-prefixed datagram format and the codec for every link
envelope, every overlay payload a ``PorData`` carries, and the signature
material of every PKI mode (the tables below list them).

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
is invisible on the wire unless two or more packets actually coalesce.
The CRC-32 covers the header (crc field excluded) and the body, so any
in-flight bit flip is rejected at decode time instead of reaching
protocol state.

One table per wire type.  Each type is declared once, as a
:class:`_Record`: its tag, its class and its ordered fields, each with a
wire *kind*.  Two paths read the tables and write the same bytes:

* the *general* path writes and reads field by field and carries every
  shape: str node ids, int signatures, odd nonce sizes, paths longer
  than :data:`MAX_COMPILED_HOPS`;
* the *compact* path carries the shapes the live stack sends (int node
  ids, SIMULATED and REAL-mode ``bytes`` signatures and MACs, the
  standard nonce and proof sizes): code
  generated from the table at import packs each run of fixed-width
  fields with one ``struct.Struct``.

Which path a frame takes depends only on what the object or the bytes
contain.  A compact encode or decode that meets anything else consumes
nothing and defers to the general path, so a malformed frame raises the
same error either way: :class:`repro.errors.WireDecodeError` for anything
truncated, corrupted, over-length or unknown -- never ``struct.error``,
``IndexError`` or ``UnicodeDecodeError`` -- and
:class:`repro.errors.WireEncodeError` for an object the format cannot
carry.

Decode checks every length before it slices; encode writes into a pooled
``bytearray``.  A ``Message``'s payload section is cached on it as three
pieces and an ``E2eAck``'s as one, so relays copy bytes, and a per-node
:class:`MessageMemo` hands back the same ``Message`` or ``E2eAck`` for a
byte-identical repeated copy, and the same paths tuple for a flow's
repeated paths (DESIGN.md §13).
"""

from __future__ import annotations

import inspect
import struct
import zlib
from dataclasses import dataclass, fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    one_step_code,
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
#: The payloads a node's :class:`MessageMemo` recognises when repeated.
_MEMOISED = frozenset((_PL_MESSAGE, _PL_E2E_ACK))

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
_S_U8 = struct.Struct(">B")
_S_U16 = struct.Struct(">H")
_S_U32 = struct.Struct(">I")
_S_VLF = struct.Struct(">BBI")  # version, flags, body_len
_S_HDR = struct.Struct(">BBII")  # version, flags, body_len, crc

#: Longest sequence of fixed-width values (a path's hops, a NACK list, an
#: address query's targets) the compact layouts cover.  Every layout up to
#: it is built at import; a longer one, or a hostile count, takes the
#: general path, so no input ever creates a ``Struct``.
MAX_COMPILED_HOPS = 16

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
    """A growable buffer and a write head (``pos``); the caller slices
    ``buf[:pos]`` once at the end.  ``mark`` is where the last record
    written noted its split field (see :class:`_Record`)."""

    __slots__ = ("buf", "pos", "mark")

    def __init__(self, buf: Optional[bytearray] = None, start: int = 0) -> None:
        self.buf = bytearray(256) if buf is None else buf
        self.pos = start
        self.mark: Optional[int] = None

    def grow(self, need: int) -> None:
        """Extend ``buf`` in place to hold at least ``need`` bytes."""
        buf = self.buf
        buf.extend(bytearray(max(need - len(buf), len(buf), 256)))

    def pack(self, layout: struct.Struct, value: Any) -> None:
        """Write one fixed-width value; a bad one raises WireEncodeError
        (the send path catches only the typed error)."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.buf):
            self.grow(end)
        try:
            layout.pack_into(self.buf, pos, value)
        except (struct.error, OverflowError):
            raise WireEncodeError(f"not a {layout.format!r} value: {value!r}") from None
        self.pos = end

    def put(self, value: bytes) -> None:
        """Copy already-encoded bytes in as they are (no length prefix)."""
        pos = self.pos
        end = pos + len(value)
        if end > len(self.buf):
            self.grow(end)
        self.buf[pos:end] = value
        self.pos = end


class _Reader:
    """Bounds-checked reader over a memoryview; failures raise
    WireDecodeError.  ``memo`` is the receiving node's
    :class:`MessageMemo`, if any; ``mark`` is where the last record read
    noted its split field."""

    __slots__ = ("_data", "_pos", "_len", "memo", "mark")

    def __init__(self, data, memo: Optional["MessageMemo"] = None) -> None:
        self._data = data
        self._pos = 0
        self._len = len(data)
        self.memo = memo
        self.mark: Optional[int] = None

    @property
    def exhausted(self) -> bool:
        return self._pos == self._len

    def _short(self, count: int) -> WireDecodeError:
        return WireDecodeError(
            f"truncated datagram: wanted {count} bytes at offset {self._pos}, "
            f"have {self._len - self._pos}"
        )

    def budget(self, count: int, min_size: int, what: str) -> None:
        """Reject in O(1) a count of elements that cannot possibly fit,
        before a collection's read loops or allocates."""
        if count * min_size > self._len - self._pos:
            raise WireDecodeError(
                f"{what} count {count} exceeds remaining "
                f"{self._len - self._pos} bytes"
            )

    def unpack(self, layout: struct.Struct) -> Any:
        """Read one fixed-width value."""
        pos = self._pos
        if pos + layout.size > self._len:
            raise self._short(layout.size)
        self._pos = pos + layout.size
        return layout.unpack_from(self._data, pos)[0]


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
# Wire kinds
# ----------------------------------------------------------------------
class _Mismatch(Exception):
    """A value or a byte that no compact form carries."""


#: What a compact encode or decode raises for a shape it does not carry
#: (no fitting form, a range, length, kind or flag it does not expect, a
#: typed error from a general read or write inside it): the callers catch
#: exactly these and run the general path, which raises the typed error.
_ENCODE_MISMATCH = (_Mismatch, struct.error, OverflowError, LookupError,
                    UnicodeEncodeError, WireEncodeError)
_DECODE_MISMATCH = (_Mismatch, struct.error, LookupError, UnicodeDecodeError,
                    WireDecodeError)

#: ``fits`` for a form that carries only the value None.
_NONE = type(None)


class _Form:
    """One compact shape of a kind: fixed-width slots, perhaps a tail.

    ``code`` is the struct code; its first ``len(consts)`` slots hold the
    kind or flag bytes the form expects, the ``width`` after them the
    value.  Encode takes a kind's first form that ``fits`` the value (None:
    any value; a class: exactly that type, ``_NONE`` the value None; else a
    predicate); ``pack`` (a function or a mapping) gives the value slots,
    ``unpack`` turns them back
    (None: the one slot is the value; no slot: the value is None).  A
    ``tail`` kind's own bytes follow the run and carry the value (when the
    form has a slot, it is the tail's count).
    """

    __slots__ = ("code", "consts", "width", "fits", "pack", "unpack", "tail")

    def __init__(self, code: str, consts: Tuple[int, ...] = (), fits: Any = None,
                 pack: Optional[Callable[[Any], Any]] = None,
                 unpack: Optional[Callable[..., Any]] = None,
                 tail: Optional["_Kind"] = None) -> None:
        layout = struct.Struct(">" + code)
        self.code = code
        self.consts = consts
        self.width = len(layout.unpack(bytes(layout.size))) - len(consts)
        self.fits = fits
        self.pack = pack
        self.unpack = unpack
        self.tail = tail


class _Kind:
    """A wire kind: ``write(writer, value)`` and ``read(reader)`` are the
    general path; ``min_size`` is the fewest bytes an encoding takes (a
    count is budgeted against it); ``forms`` are the compact shapes (none:
    always general).  ``pack``/``unpack`` write and read the kind as the
    tail of a compact run: the general path unless the kind has its own.
    """

    __slots__ = ("min_size", "forms")

    def pack(self, writer: _Writer, value: Any) -> None:
        self.write(writer, value)

    def unpack(self, reader: _Reader, pos: int) -> Tuple[Any, int]:
        reader._pos = pos
        return self.read(reader), reader._pos


class _Fixed(_Kind):
    """One fixed-width value: a u16, u32, i64 or f64, or a byte that
    ``encode`` and ``values`` map from and to a value (a boolean, a
    message's semantics; the compact form looks ``values`` up backwards,
    and leaves any other value to ``encode`` on the general path)."""

    __slots__ = ("layout", "name", "encode", "values")

    def __init__(self, code: str, name: str,
                 encode: Optional[Callable[[Any], int]] = None,
                 values: Optional[Dict[int, Any]] = None) -> None:
        self.layout = struct.Struct(">" + code)
        self.min_size = self.layout.size
        self.name = name
        self.encode = encode
        self.values = values
        self.forms = (_Form(code) if values is None else _Form(
            code, pack={value: byte for byte, value in values.items()},
            unpack=values.__getitem__),)

    def write(self, writer: _Writer, value: Any) -> None:
        writer.pack(self.layout, value if self.encode is None else self.encode(value))

    def read(self, reader: _Reader) -> Any:
        value = reader.unpack(self.layout)
        if self.values is None:
            return value
        if value not in self.values:
            raise WireDecodeError(f"invalid {self.name} byte {value}")
        return self.values[value]


class _Union(_Kind):
    """A kind byte, then the value as that byte's variant.  ``variants``
    are ``(byte, accepts, kind)``: encode writes the first whose
    ``accepts(value)`` holds; a variant with no kind is the value None."""

    __slots__ = ("name", "variants", "by_byte")

    def __init__(self, name: str, variants: Sequence[Tuple[int, Callable, Any]],
                 *forms: _Form) -> None:
        self.name = name
        self.variants = variants
        self.by_byte = {byte: kind for byte, _, kind in variants}
        self.min_size = 1 + min(kind.min_size if kind else 0 for _, _, kind in variants)
        self.forms = forms

    def write(self, writer: _Writer, value: Any) -> None:
        for byte, accepts, kind in self.variants:
            if accepts(value):
                writer.pack(_S_U8, byte)
                if kind is not None:
                    kind.write(writer, value)
                return
        raise WireEncodeError(f"a {self.name} cannot be a {type(value).__name__}")

    def read(self, reader: _Reader) -> Any:
        byte = reader.unpack(_S_U8)
        if byte not in self.by_byte:
            raise WireDecodeError(f"unknown {self.name} kind {byte}")
        kind = self.by_byte[byte]
        return None if kind is None else kind.read(reader)


class _Blob(_Kind):
    """A u16 length, then that many bytes: raw ``bytes`` or UTF-8 text.
    With a ``size``, raw bytes of exactly that size are compact (a nonce,
    a proof)."""

    __slots__ = ("text",)

    def __init__(self, text: bool = False, size: Optional[int] = None) -> None:
        self.text = text
        self.min_size = 2
        if size is None:
            self.forms = (_Form("", tail=self),)
        else:
            self.forms = (_Form(f"H{size}s", (size,),
                                fits=lambda v: type(v) is bytes and len(v) == size),)

    def write(self, writer: _Writer, value: Any) -> None:
        if self.text:
            try:
                value = value.encode("utf-8")
            except (AttributeError, UnicodeEncodeError):
                raise WireEncodeError(f"not UTF-8 text: {value!r}") from None
        elif not isinstance(value, (bytes, bytearray)):
            raise WireEncodeError(f"expected bytes, got {type(value).__name__}")
        if len(value) > 0xFFFF:
            raise WireEncodeError(f"bytes field too long ({len(value)})")
        writer.pack(_S_U16, len(value))
        writer.put(value)

    def read(self, reader: _Reader) -> Any:
        try:
            value, reader._pos = self.unpack(reader, reader._pos)
        except (_Mismatch, IndexError):
            raise WireDecodeError(f"truncated length-prefixed field at {reader._pos}") from None
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in string field: {exc}") from None
        return value

    def unpack(self, reader: _Reader, pos: int) -> Tuple[Any, int]:
        data = reader._data
        stop = pos + 2 + ((data[pos] << 8) | data[pos + 1])
        if stop > reader._len:
            raise _Mismatch
        value = data[pos + 2:stop]
        return (str(value, "utf-8") if self.text else bytes(value)), stop


class _Seq(_Kind):
    """A u16 count, then that many values of one kind (``optional``: None
    is the count 0xFFFF).  In a compact run the count is a slot of the run
    and the values its tail; a sequence inside another (one path of
    several) is compact on its own.  Fixed-width values are one layout per
    count up to :data:`MAX_COMPILED_HOPS`, all built here."""

    __slots__ = ("elem", "what", "optional", "blocks", "pack_blocks", "kinds_at",
                 "elem_type", "block_sizes")

    def __init__(self, elem: _Kind, what: str, optional: bool = False) -> None:
        self.min_size = 2
        self.elem = elem
        self.what = what
        self.optional = optional
        self.forms = (_Form("H", pack=self.count, tail=self),) if elem.forms else ()
        self.blocks: Optional[Tuple[struct.Struct, ...]] = None
        if elem.forms and elem.forms[0].tail is None:
            (form,) = elem.forms
            assert form.width == 1 and form.consts in ((), (0,)) and form.pack is None
            counts = range(MAX_COMPILED_HOPS + 1)
            self.elem_type = form.fits
            self.blocks = tuple(struct.Struct(">H" + form.code * n) for n in counts)
            self.block_sizes = tuple(block.size for block in self.blocks)
            # The kind byte each count's layout expects before every value;
            # encode writes it (0: an int node id) as a pad byte.
            self.kinds_at = tuple(form.consts * n for n in counts)
            code = "x" + form.code[1:] if form.consts else form.code
            self.pack_blocks = tuple(struct.Struct(">H" + code * n) for n in counts)

    def write(self, writer: _Writer, value: Any) -> None:
        if value is None and self.optional:
            writer.pack(_S_U16, 0xFFFF)
            return
        try:
            count = len(value)
        except TypeError:
            raise WireEncodeError(f"{self.what} list is not a sequence") from None
        if count > (0xFFFE if self.optional else 0xFFFF):
            raise WireEncodeError(f"too many {self.what} values ({count})")
        writer.pack(_S_U16, count)
        for item in value:
            self.elem.write(writer, item)

    def read(self, reader: _Reader) -> Any:
        count = reader.unpack(_S_U16)
        if count == 0xFFFF and self.optional:
            return None
        reader.budget(count, self.elem.min_size, self.what)
        return tuple([self.elem.read(reader) for _ in range(count)])

    # The compact path ----------------------------------------------------
    def count(self, value: Any) -> int:
        """The count slot for ``value``."""
        if value is None and self.optional:
            return 0xFFFF
        if type(value) is not tuple or (self.optional and len(value) == 0xFFFF):
            raise _Mismatch
        return len(value)

    def pack_items(self, writer: _Writer, value: Tuple[Any, ...]) -> None:
        """The values after the count."""
        elem = self.elem
        if self.blocks is not None:
            writer.put(self._pack_block(value)[2:])
        elif isinstance(elem, _Seq) and elem.blocks is not None:
            writer.put(b"".join(map(elem._pack_block, value)))  # one block per path
        else:
            for item in value:
                elem.pack(writer, item)

    def unpack_items(self, reader: _Reader, pos: int, count: int) -> Tuple[Any, int]:
        """The values after a count of ``count`` that ended at ``pos``."""
        if count == 0xFFFF and self.optional:
            return None, pos
        if self.blocks is not None:
            return self._unpack_block(reader, pos - 2, count)
        elem = self.elem
        if count * elem.min_size > reader._len - pos:
            raise _Mismatch
        if isinstance(elem, _Seq) and elem.blocks is not None:  # paths
            return elem._unpack_blocks(reader, pos, count)
        items = []
        for _ in range(count):
            item, pos = elem.unpack(reader, pos)
            items.append(item)
        return tuple(items), pos

    def _unpack_blocks(self, reader: _Reader, pos: int, count: int) -> Tuple[Any, int]:
        """``count`` blocks from ``pos`` (a message's paths, after their
        count).  Bytes the reader's memo decoded before come back as the
        tuple they decoded to then."""
        data = reader._data
        sizes = self.block_sizes
        stop = pos
        for _ in range(count):
            stop += sizes[(data[stop] << 8) | data[stop + 1]]
        if stop > reader._len:
            raise _Mismatch
        memo = reader.memo
        if memo is not None:
            field = bytes(data[pos - 2:stop])  # the count too
            shared = memo._paths.get(field)
            if shared is not None:
                return shared, stop
        items = []
        for _ in range(count):
            item, pos = self._unpack_block(reader, pos, (data[pos] << 8) | data[pos + 1])
            items.append(item)
        items = tuple(items)
        if memo is not None:
            memo.share_paths(field, items)
        return items, stop

    def pack(self, writer: _Writer, value: Any) -> None:
        if self.blocks is not None and value is not None:
            writer.put(self._pack_block(value))
        else:
            writer.pack(_S_U16, self.count(value))
            if value:
                self.pack_items(writer, value)

    def unpack(self, reader: _Reader, pos: int) -> Tuple[Any, int]:
        data = reader._data
        count = (data[pos] << 8) | data[pos + 1]
        if self.blocks is not None and count != 0xFFFF:
            return self._unpack_block(reader, pos, count)
        if pos + 2 > reader._len:
            raise _Mismatch
        return self.unpack_items(reader, pos + 2, count)

    def _pack_block(self, value: Tuple[Any, ...]) -> bytes:
        if type(value) is not tuple:
            raise _Mismatch
        count = len(value)
        if count > MAX_COMPILED_HOPS or (
            self.elem_type is not None and count
            and set(map(type, value)) != {self.elem_type}
        ):
            raise _Mismatch
        return self.pack_blocks[count].pack(count, *value)

    def _unpack_block(self, reader: _Reader, pos: int, count: int) -> Tuple[Any, int]:
        layout = self.blocks[count]
        stop = pos + layout.size
        if stop > reader._len:
            raise _Mismatch
        slots = layout.unpack_from(reader._data, pos)
        kinds = self.kinds_at[count]
        if not kinds:
            return slots[1:], stop
        if slots[1::2] != kinds:
            raise _Mismatch
        return slots[2::2], stop


class _Run:
    """Consecutive fields packed by one struct.  At most one has several
    forms (its ``at``): one struct per form, picked by the form that fits,
    or by its first constant (kind or flag byte) at offset ``disc_at``."""

    __slots__ = ("fields", "prefix", "marks", "at", "choices", "disc_at")

    def __init__(self, kinds: Sequence[_Kind], indexes: Sequence[int],
                 prefix: Tuple[int, ...], marks: bool) -> None:
        self.fields = tuple((index, kinds[index].forms) for index in indexes)
        self.prefix = prefix
        self.marks = marks
        multi = [n for n, (_, forms) in enumerate(self.fields) if len(forms) > 1]
        self.at = multi[0] if multi else None
        #: ``(forms, layout)`` per form of the multi-form field.
        self.choices = []
        for choice in (self.fields[self.at][1] if multi else (None,)):
            forms = [choice if n == self.at else field[1][0]
                     for n, field in enumerate(self.fields)]
            code = "B" * len(prefix) + "".join(form.code for form in forms)
            self.choices.append((forms, struct.Struct(">" + code)))
        if multi:
            self.disc_at = struct.calcsize(">" + "B" * len(prefix) + "".join(
                forms[0].code for _, forms in self.fields[:self.at]))


class _Compiler:
    """Generate a record's functions from its table.

    ``make(values)`` builds the object from its field values in wire
    order: in one step when the class allows (:func:`one_step_code`),
    else through its constructor (a field the constructor does not take,
    such as a link envelope's ``mac``, is set afterwards); the compact
    decode builds its objects the same way.  The compact ``pack(writer,
    obj)`` and ``unpack(reader, pos) -> (obj, pos)`` are the straight-line
    code a hand-written codec would be: one ``pack_into``/``unpack_from``
    per run and form, the expected kind and flag bytes compared inline.
    """

    def __init__(self, record: "_Record", runs: Optional[List[_Run]]) -> None:
        self.names: Dict[str, Any] = {"Mismatch": _Mismatch, "cls": record.cls}
        count = len(record.kinds)
        self.values = "".join(f"v{index}, " for index in range(count))
        lines = ["def make(values):", f" {self.values}= values"]
        lines += self.construct(record) + [" return obj"]
        if runs is not None:
            self.enc = ["def pack(writer, obj):", " if type(obj) is not cls: raise Mismatch"]
            if record.get is None:
                self.enc += [f" if len(obj) != {count}: raise Mismatch",
                             f" {self.values}= obj"]
            else:
                self.enc.append(f" {self.values}= {self.bind(record.get)}(obj)")
            self.enc.append(" buf = writer.buf")
            self.dec = ["def unpack(reader, pos):", " data = reader._data", " end = reader._len"]
            for run in runs:
                self.run(run)
            lines += self.enc + self.dec + self.construct(record) + [" return obj, pos"]
        exec("\n".join(lines), self.names)

    def bind(self, obj: Any) -> str:
        """A name for ``obj`` in the generated code's namespace."""
        name = f"_{len(self.names)}"
        self.names[name] = obj
        return name

    def construct(self, record: "_Record") -> List[str]:
        if record.cls is tuple:
            return [f" obj = ({self.values})"]
        names = record.names
        built = one_step_code(record.cls, "obj", {
            name: f"v{index}" for index, name in enumerate(names)
        }, self.bind)
        if built is not None:
            return [" " + built]
        params = [p for p in inspect.signature(record.cls).parameters if p in names]
        args = ", ".join(f"v{names.index(p)}" for p in params)
        return [f" obj = cls({args})"] + [
            f" obj.{name} = v{index}"
            for index, name in enumerate(names) if name not in params
        ]

    def call(self, unpack: Callable[..., Any], target: str, args: List[str]) -> str:
        """``target = unpack(*args)``; a class that can be is built in one
        step (:func:`one_step_code`)."""
        if isinstance(unpack, type) and is_dataclass(unpack):
            params = [field.name for field in fields(unpack) if field.init]
            built = one_step_code(unpack, target, dict(zip(params, args)), self.bind)
            if built is not None:
                return built
        return f"{target} = {self.bind(unpack)}({', '.join(args)})"

    def fits(self, form: _Form, value: str) -> Optional[str]:
        """The test that ``value`` takes ``form``; None: any value does."""
        fits = form.fits
        if fits is None:
            return None
        if fits is _NONE:
            return f"{value} is None"
        if isinstance(fits, type):
            return f"type({value}) is {self.bind(fits)}"
        return f"{self.bind(fits)}({value})"

    def run(self, run: _Run) -> None:
        if run.marks:
            self.enc.append(" writer.mark = writer.pos")
            self.dec.append(" reader.mark = pos")
        for n, (index, forms) in enumerate(run.fields):
            test = self.fits(forms[0], f"v{index}")
            if n != run.at and test is not None:
                self.enc.append(f" if not {test}: raise Mismatch")
        if run.at is None:
            forms, layout = run.choices[0]
            self.pack_layout(" ", run, forms, layout)
            self.unpack_layout(" ", run, forms, layout)
            return
        index = run.fields[run.at][0]
        self.dec.append(f" kind = data[pos + {run.disc_at}]")
        for n, (forms, layout) in enumerate(run.choices):
            form = forms[run.at]
            self.enc.append(f" {'elif' if n else 'if'} {self.fits(form, f'v{index}') or 'True'}:")
            self.pack_layout("  ", run, forms, layout)
            self.dec.append(f" {'elif' if n else 'if'} kind == {form.consts[0]}:")
            self.unpack_layout("  ", run, forms, layout)
        self.enc.append(" else: raise Mismatch")
        self.dec.append(" else: raise Mismatch")

    def pack_layout(self, indent: str, run: _Run, forms: List[_Form],
                    layout: struct.Struct) -> None:
        slots = [repr(const) for const in run.prefix]
        lines = []
        for (index, _), form in zip(run.fields, forms):
            value = f"v{index}"
            slots += [repr(const) for const in form.consts]
            if form.width == 1 and isinstance(form.pack, dict):
                slots.append(f"{self.bind(form.pack)}[{value}]")
            elif form.width == 1:
                slots.append(value if form.pack is None else f"{self.bind(form.pack)}({value})")
            elif form.width:
                slots.append(f"*{self.bind(form.pack)}({value})")
            if form.tail is not None and form.width:
                # After a count slot: only the values, none for 0 or None.
                lines.append(f"if {value}: {self.bind(form.tail.pack_items)}(writer, {value})")
            elif form.tail is not None:
                lines.append(f"{self.bind(form.tail.pack)}(writer, {value})")
        if layout.size:
            lines[:0] = [
                "pos = writer.pos",
                f"end = pos + {layout.size}",
                "if end > len(buf): writer.grow(end)",
                f"{self.bind(layout)}.pack_into(buf, pos, {', '.join(slots)})",
                "writer.pos = end",
            ]
        self.enc += [indent + line for line in lines or ["pass"]]

    def unpack_layout(self, indent: str, run: _Run, forms: List[_Form],
                      layout: struct.Struct) -> None:
        slot = len(run.prefix)
        consts = list(enumerate(run.prefix))
        values = []
        for (index, _), form in zip(run.fields, forms):
            consts += [(slot + n, const) for n, const in enumerate(form.consts)]
            slot += len(form.consts)
            names = [f"t{n}" for n in range(slot, slot + form.width)]
            slot += form.width
            value = f"v{index}"
            if form.tail is not None and form.width:
                unpack = self.bind(form.tail.unpack_items)
                values.append(f"{value}, pos = {unpack}(reader, pos, {names[0]}) "
                              f"if {names[0]} else ((), pos)")
            elif form.tail is not None:
                values.append(f"{value}, pos = {self.bind(form.tail.unpack)}(reader, pos)")
            elif not names:
                values.append(f"{value} = None")
            elif form.unpack is None:
                values.append(f"{value} = {names[0]}")
            else:
                values.append(self.call(form.unpack, value, names))
        lines = []
        if layout.size:
            lines += [
                f"stop = pos + {layout.size}",
                "if stop > end: raise Mismatch",
                f"{''.join(f't{n}, ' for n in range(slot))}= "
                f"{self.bind(layout)}.unpack_from(data, pos)",
            ]
            if consts:
                test = " or ".join(f"t{n} != {const!r}" for n, const in consts)
                lines.append(f"if {test}: raise Mismatch")
            lines.append("pos = stop")
        self.dec += [indent + line for line in lines + values or ["pass"]]


class _Record(_Kind):
    """One wire type's table: its ``tag`` (None inside another record),
    its class (``tuple`` for an anonymous group such as a path entry) and
    its ordered ``(name, kind)`` fields.

    ``split`` names the field whose offset both paths note as ``mark``
    (where a message's cached pieces split); ``cache`` stores the encoded
    bytes on the object.  A record has a compact path, ``pack`` and
    ``unpack``, when every field's kind has a compact form."""

    __slots__ = ("tag", "cls", "fields", "names", "kinds", "split", "cache",
                 "get", "make", "pack", "unpack")

    def __init__(self, tag: Optional[int], cls: type, *fields: Tuple[str, _Kind],
                 split: Optional[str] = None,
                 cache: Optional[Callable[..., None]] = None) -> None:
        self.tag = tag
        self.cls = cls
        self.fields = fields
        self.names = tuple(name for name, _ in fields)
        self.kinds = tuple(kind for _, kind in fields)
        self.min_size = (tag is not None) + sum(kind.min_size for kind in self.kinds)
        self.split = None if split is None else self.names.index(split)
        self.cache = cache
        if cls is tuple:
            self.get = None
        elif len(fields) == 1:
            get_one = attrgetter(self.names[0])
            self.get = lambda obj: (get_one(obj),)
        else:
            self.get = attrgetter(*self.names)
        runs = self._cut_runs()
        self.forms = () if runs is None else (_Form("", tail=self),)
        compiled = _Compiler(self, runs).names
        self.make = compiled["make"]
        self.pack = compiled.get("pack")
        self.unpack = compiled.get("unpack")

    def _cut_runs(self) -> Optional[List[_Run]]:
        """The fields cut into runs: a run ends after a field with a tail,
        before a second field with several forms, and before the split
        field.  None: a field has no compact form."""
        kinds = self.kinds
        if not all(kind.forms for kind in kinds):
            return None
        groups: List[List[int]] = [[]]
        for index, kind in enumerate(kinds):
            current = groups[-1]
            if current and (index == self.split or (
                len(kind.forms) > 1 and any(len(kinds[i].forms) > 1 for i in current)
            )):
                groups.append([])
            groups[-1].append(index)
            if any(form.tail is not None for form in kind.forms):
                groups.append([])
        prefix = () if self.tag is None else (self.tag,)
        return [
            _Run(kinds, group, prefix if n == 0 else (), group[0] == self.split)
            for n, group in enumerate(group for group in groups if group)
        ]

    def write(self, writer: _Writer, obj: Any) -> None:
        """The general path: write ``obj`` field by field."""
        if self.get is None:
            try:
                values = tuple(obj)
            except TypeError:
                raise WireEncodeError(f"expected a tuple, got {type(obj).__name__}") from None
            if len(values) != len(self.kinds):
                raise WireEncodeError(f"expected {len(self.kinds)} values, got {len(values)}")
        elif isinstance(obj, self.cls):
            values = self.get(obj)
        else:
            raise WireEncodeError(f"expected {self.cls.__name__}, got {type(obj).__name__}")
        if self.tag is not None:
            writer.pack(_S_U8, self.tag)
        for index, kind in enumerate(self.kinds):
            if index == self.split:
                writer.mark = writer.pos
            kind.write(writer, values[index])

    def read(self, reader: _Reader) -> Any:
        """The general path: read an object field by field."""
        if self.tag is not None:
            reader.unpack(_S_U8)
        values = []
        for index, kind in enumerate(self.kinds):
            if index == self.split:
                reader.mark = reader._pos
            values.append(kind.read(reader))
        return self.make(values)

    def encode(self, writer: _Writer, obj: Any) -> None:
        """Write ``obj``, compact when its shape has a compact form."""
        if self.pack is not None:
            start = writer.pos
            try:
                self.pack(writer, obj)
                return
            except _ENCODE_MISMATCH:
                writer.pos = start
        self.write(writer, obj)

    def decode(self, reader: _Reader) -> Any:
        """The object at the reader's position (its tag unread)."""
        start = reader._pos
        obj = None
        if self.unpack is not None:
            try:
                obj, reader._pos = self.unpack(reader, start)
            except _DECODE_MISMATCH:
                reader._pos = start
        if obj is None:
            obj = self.read(reader)
        if self.cache is not None:
            self.cache(obj, reader._data, start, reader.mark, reader._pos)
        return obj


class _Topology(_Kind):
    """An MTMW's nodes, then its weighted edges, by ``str`` (general only)."""

    __slots__ = ()

    def __init__(self) -> None:
        self.min_size = 4
        self.forms = ()

    def write(self, writer: _Writer, topology: Topology) -> None:
        _MTMW_NODES.write(writer, sorted(topology.nodes, key=str))
        edges = sorted(topology.edges(), key=lambda e: (str(e[0]), str(e[1])))
        _MTMW_EDGES.write(writer, [(a, b, topology.weight(a, b)) for a, b in edges])

    def read(self, reader: _Reader) -> Topology:
        nodes = _MTMW_NODES.read(reader)
        edges = _MTMW_EDGES.read(reader)
        topology = Topology()
        try:
            for node in nodes:
                topology.add_node(node)
            for a, b, weight in edges:
                topology.add_edge(a, b, weight)
        except TopologyError as exc:
            raise WireDecodeError(f"invalid MTMW topology: {exc}") from None
        return topology


class _PayloadSection(_Kind):
    """A ``PorData``'s payload: one tagged payload record, the same on
    either path.  A message or end-to-end ACK is encoded once, its bytes
    cached on it for every further out-link and relay; either is looked
    up in the node's memo first."""

    __slots__ = ()

    def __init__(self) -> None:
        self.min_size = 1
        self.forms = (_Form("", tail=self),)

    def write(self, writer: _Writer, payload: Any) -> None:
        record = _PAYLOAD_BY_TYPE.get(type(payload))
        if record is None:
            raise _unsupported("payload type", payload)
        cached = None if record.cache is None else payload._wire_cache
        if cached is None:
            start = writer.pos
            record.encode(writer, payload)
            if record.cache is not None:
                record.cache(payload, writer.buf, start, writer.mark, writer.pos)
        elif type(cached) is tuple:
            for piece in cached:
                writer.put(piece)
        else:
            writer.put(cached)

    pack = write

    def read(self, reader: _Reader) -> Any:
        return self.unpack(reader, reader._pos)[0]

    def unpack(self, reader: _Reader, pos: int) -> Tuple[Any, int]:
        reader._pos = pos
        if reader.memo is not None and pos < reader._len and (
            reader._data[pos] in _MEMOISED
        ):
            return reader.memo.decode(reader), reader._pos
        return _decode_tagged(reader, _PAYLOAD_BY_TAG, "payload"), reader._pos


def _simulated_slots(value: Any) -> Tuple[int, int]:
    """A SIMULATED signature by an int signer as its two slots."""
    if type(value) is not SimulatedSignature or type(value.signer) is not int:
        raise _Mismatch
    return value.signer, value.tag


_U16 = _Fixed("H", "u16")
_U32 = _Fixed("I", "u32")
_I64 = _Fixed("q", "i64")
_F64 = _Fixed("d", "f64")
_BOOL = _Fixed("B", "boolean", lambda v: 1 if v else 0, {0: False, 1: True})
_SEMANTICS = _Fixed("B", "semantics", lambda v: 1 if v is Semantics.PRIORITY else 2,
                    {1: Semantics.PRIORITY, 2: Semantics.RELIABLE})
_TEXT = _Blob(text=True)
_RAW = _Blob()
_NONCE = _Blob(size=NONCE_SIZE)
_PROOF = _Blob(size=PROOF_SIZE)
_OPT_F64 = _Union("optional-f64", (
    (0, lambda v: v is None, None),
    (1, lambda v: True, _F64),
), _Form("B", (0,), fits=_NONE), _Form("Bd", (1,)))
_NODE_ID = _Union("node-id", (
    (_ID_INT, lambda v: isinstance(v, int) and not isinstance(v, bool), _I64),
    (_ID_STR, lambda v: isinstance(v, str), _TEXT),
), _Form("Bq", (_ID_INT,), fits=int))
_SIGNATURE = _Union("signature", (
    (_SIG_NONE, lambda v: v is None, None),
    (_SIG_SIMULATED, lambda v: isinstance(v, SimulatedSignature),
     _Record(None, SimulatedSignature, ("signer", _NODE_ID), ("tag", _I64))),
    (_SIG_BYTES, lambda v: isinstance(v, (bytes, bytearray)), _RAW),
    (_SIG_INT, lambda v: isinstance(v, int), _I64),
), _Form("B", (_SIG_NONE,), fits=_NONE),
   _Form("BBqq", (_SIG_SIMULATED, _ID_INT), pack=_simulated_slots,
         unpack=SimulatedSignature),
   _Form("B", (_SIG_BYTES,), fits=bytes, tail=_RAW))
#: The application payload a message carries: None, bytes, or text.
_APP_PAYLOAD = _Union("application-payload", (
    (0, lambda v: v is None, None),
    (1, lambda v: isinstance(v, (bytes, bytearray)), _RAW),
    (2, lambda v: isinstance(v, str), _TEXT),
), _Form("B", (0,), fits=_NONE), _Form("B", (1,), fits=bytes, tail=_RAW),
   _Form("B", (2,), fits=str, tail=_TEXT))
_PAYLOAD = _PayloadSection()
_MTMW_NODES = _Seq(_NODE_ID, "mtmw node")
_MTMW_EDGES = _Seq(
    _Record(None, tuple, ("a", _NODE_ID), ("b", _NODE_ID), ("weight", _F64)), "mtmw edge"
)


# ----------------------------------------------------------------------
# The tables: one record per wire type
# ----------------------------------------------------------------------
def _cache_pieces(message: Message, data, start: int, mark: int, end: int) -> None:
    """Cache a message's section ``data[start:end]`` as ``(head, body,
    tail)``: the bytes before the application payload, the payload
    ``bytes`` itself (else ``b""``), the bytes from the signature (at
    ``mark``) on -- owned copies of a receive buffer that is reused."""
    payload = message.payload
    body = payload if type(payload) is bytes else b""
    object.__setattr__(message, "_wire_cache", (
        bytes(data[start:mark - len(body)]), body, bytes(data[mark:end]),
    ))


def _cache_section(ack: E2eAck, data, start: int, mark: Optional[int], end: int) -> None:
    """Cache an end-to-end ACK's section: it is forwarded on every out-link."""
    object.__setattr__(ack, "_wire_cache", bytes(data[start:end]))


_HELLO = _Record(None, Hello, ("sender", _NODE_ID), ("stamp", _I64))

#: Payloads carried inside a PorData envelope.
_PAYLOADS = (
    _Record(
        _PL_MESSAGE, Message,
        ("source", _NODE_ID), ("dest", _NODE_ID), ("seq", _I64),
        ("semantics", _SEMANTICS), ("priority", _I64), ("expiration", _OPT_F64),
        ("size_bytes", _U32), ("flooding", _BOOL),
        ("paths", _Seq(_Seq(_NODE_ID, "path hop"), "path", optional=True)),
        ("sent_at", _F64), ("payload", _APP_PAYLOAD), ("signature", _SIGNATURE),
        split="signature", cache=_cache_pieces,
    ),
    _Record(
        _PL_E2E_ACK, E2eAck,
        ("dest", _NODE_ID), ("stamp", _I64),
        ("cumulative", _Seq(
            _Record(None, tuple, ("source", _TEXT), ("seq", _I64)), "cumulative-ack entry",
        )),
        ("signature", _SIGNATURE),
        cache=_cache_section,
    ),
    # Unsigned, like the admission NACK: only ever carried over the
    # authenticated PoR link between direct neighbors.
    _Record(
        _PL_NEIGHBOR_ACK, NeighborAck,
        ("sender", _NODE_ID),
        ("entries", _Seq(_Record(
            None, tuple,
            ("flow", _Record(None, tuple, ("source", _TEXT), ("dest", _TEXT))),
            ("stored_h", _I64), ("limit", _I64),
        ), "neighbor-ack entry")),
    ),
    _Record(
        _PL_LINK_STATE, LinkStateUpdate,
        ("issuer", _NODE_ID), ("edge_a", _NODE_ID), ("edge_b", _NODE_ID),
        ("weight", _F64), ("seqno", _I64), ("signature", _SIGNATURE),
    ),
    _Record(_PL_STATE_REQUEST, StateRequest, ("sender", _NODE_ID)),
    _Record(_PL_HELLO, Hello, *_HELLO.fields),
    # Dynamic membership floods successor MTMWs over existing PoR links
    # (the PoR MAC authenticates the neighbor; the admin signature inside
    # authenticates the topology, and MtmwHolder.consider rejects stale or
    # forged candidates).
    _Record(
        _PL_MTMW, Mtmw,
        ("seqno", _I64), ("topology", _Topology()), ("signature", _SIGNATURE),
    ),
    _Record(
        _PL_ADMISSION_NACK, AdmissionNack,
        ("ingress", _NODE_ID), ("home", _NODE_ID), ("client", _TEXT),
        ("key", _TEXT), ("outcome", _TEXT), ("seq", _I64),
    ),
)

#: Link envelopes, the outermost object of a datagram or batch frame.
_ENVELOPES = (
    _Record(
        _ENV_POR_DATA, PorData,
        ("epoch", _I64), ("seq", _I64), ("nonce", _NONCE), ("wire_size", _U32),
        ("mac", _SIGNATURE), ("payload", _PAYLOAD),
    ),
    _Record(
        _ENV_POR_ACK, PorAck,
        ("epoch", _I64), ("cum_seq", _I64), ("proof", _PROOF),
        ("missing", _Seq(_I64, "missing-seq")), ("mac", _SIGNATURE),
    ),
    _Record(
        _ENV_POR_HANDSHAKE, PorHandshake,
        ("sender", _NODE_ID), ("dh_public", _RAW), ("signature", _SIGNATURE),
    ),
    _Record(_ENV_HELLO, _HelloWrapper, ("hello", _HELLO)),
    _Record(
        _ENV_ADDR_QUERY, AddrQuery,
        ("sender", _NODE_ID), ("nonce", _I64),
        ("targets", _Seq(_NODE_ID, "address-query target")),
    ),
    _Record(
        _ENV_ADDR_REPLY, AddrReply,
        ("nonce", _I64),
        ("entries", _Seq(_Record(
            None, tuple, ("node", _NODE_ID), ("host", _TEXT), ("port", _U16),
        ), "address-reply entry")),
    ),
    _Record(
        _ENV_ADDR_ANNOUNCE, AddrAnnounce,
        ("sender", _NODE_ID), ("host", _TEXT), ("port", _U16),
    ),
)

#: The datagram's sender and receiver ids, ahead of the envelope(s).
_IDS = _Record(None, tuple, ("sender", _NODE_ID), ("receiver", _NODE_ID))

_PAYLOAD_BY_TAG = {record.tag: record for record in _PAYLOADS}
_PAYLOAD_BY_TYPE = {record.cls: record for record in _PAYLOADS}
_ENVELOPE_BY_TAG = {record.tag: record for record in _ENVELOPES}
_ENVELOPE_BY_TYPE = {record.cls: record for record in _ENVELOPES}
_MESSAGE = _PAYLOAD_BY_TYPE[Message]
_E2E_ACK = _PAYLOAD_BY_TYPE[E2eAck]

def _unsupported(what: str, obj: Any) -> WireEncodeError:
    return WireEncodeError(f"{what} {type(obj).__name__} is not supported on the live wire")


def _decode_tagged(reader: _Reader, table: Dict[int, _Record], what: str) -> Any:
    """The record whose tag is the reader's next byte."""
    pos = reader._pos
    if pos >= reader._len:
        raise reader._short(1)
    record = table.get(reader._data[pos])
    if record is None:
        raise WireDecodeError(f"unknown {what} tag {reader._data[pos]}")
    return record.decode(reader)


class MessageMemo:
    """One node's memo of the bytes it decodes more than once.

    Constrained flooding hands a node the same signed message once per
    in-link, byte for byte; every node floods every E2E ACK it forwards;
    and a K-paths message reaches its destination once per path.  The
    decoder looks the payload section up by checksum and, only when the
    cached bytes *equal* the received ones, returns the object built for
    the first copy, with the verify verdict it has cached since; any other
    copy decodes cold.  Memoised are flooded messages, ACKs, and K-paths
    messages addressed to this ``node`` over two or more paths; such a
    message is dropped after its ``len(paths) - 1`` further copies.  A
    K-paths message passes any other node once and is not memoised.

    Every message of a flow carries the same paths, byte for byte, so a
    compact paths field is also looked up by its bytes, and decodes to
    the tuple decoded from those bytes first: one paths object per flow
    and node, on which ``path_successors``' memo hits
    (``dissemination/kpaths.py``).  Neither table holds a verdict.  Owned
    by one transport, bounded at :data:`SIZE` messages and
    :data:`PATHS_SIZE` path sets, each evicted oldest first, and emptied
    by :meth:`clear`.
    """

    #: Enough for every repeat on the saturated 12-node cloud to hit (one
    #: cold verification per node per message); a constant, not a setting.
    SIZE = 64
    #: Distinct path sets: a node carries a few per flow through it.
    PATHS_SIZE = 128

    __slots__ = ("node", "_by_checksum", "_copies_left", "_paths")

    def __init__(self, node: Any = None) -> None:
        self.node = node
        self._by_checksum: Dict[int, Any] = {}
        #: Checksum -> copies still to come of a K-paths message for ``node``.
        self._copies_left: Dict[int, int] = {}
        self._paths: Dict[bytes, Tuple[Tuple[Any, ...], ...]] = {}

    def clear(self) -> None:
        """Forget every entry (the owning transport closed)."""
        self._by_checksum.clear()
        self._copies_left.clear()
        self._paths.clear()

    def share_paths(self, field: bytes, paths: Tuple[Tuple[Any, ...], ...]) -> None:
        """Note that the compact paths field ``field`` decoded to ``paths``."""
        table = self._paths
        table[field] = paths
        if len(table) > self.PATHS_SIZE:
            del table[next(iter(table))]

    def decode(self, reader: _Reader) -> Any:
        """Decode the data message or end-to-end ACK that fills the rest
        of ``reader``."""
        memo = self._by_checksum
        left = self._copies_left
        section = reader._data[reader._pos:reader._len]
        checksum = None
        if memo:  # nothing to recognise while nothing was memoised
            checksum = _crc32(section)
            known = memo.get(checksum)
            if known is not None and _same_section(known._wire_cache, section):
                reader._pos = reader._len
                if checksum in left:  # a K-paths copy for this node
                    if left[checksum] == 1:
                        del left[checksum], memo[checksum]
                    else:
                        left[checksum] -= 1
                return known
        copies = None
        if section[0] == _PL_E2E_ACK:
            payload = _E2E_ACK.decode(reader)
        else:
            payload = _MESSAGE.decode(reader)
            if not payload.flooding:
                paths = payload.paths
                if payload.dest != self.node or paths is None or len(paths) < 2:
                    return payload
                copies = len(paths) - 1
        if reader.exhausted:
            if checksum is None:
                checksum = _crc32(section)
            memo.pop(checksum, None)  # a colliding entry: newest wins
            left.pop(checksum, None)
            memo[checksum] = payload
            if copies is not None:
                left[checksum] = copies
            if len(memo) > self.SIZE:
                oldest = next(iter(memo))
                del memo[oldest]
                left.pop(oldest, None)
        return payload


def _same_section(cached: Any, section: memoryview) -> bool:
    """Whether a memoised object's cached section (one ``bytes`` for an
    ACK, ``(head, body, tail)`` for a message) equals the received one."""
    if type(cached) is bytes:
        return cached == section
    head, body, tail = cached
    received = bytes(section)
    return (
        len(head) + len(body) + len(tail) == len(received)
        and received.startswith(head)
        and received.startswith(body, len(head))
        and received.endswith(tail)
    )


# ----------------------------------------------------------------------
# Datagrams and batch frames
# ----------------------------------------------------------------------
def _envelope(packet: Any) -> _Record:
    record = _ENVELOPE_BY_TYPE.get(type(packet))
    if record is None:
        raise _unsupported("link envelope", packet)
    return record


def _encode_frame(writer: _Writer, packet: Any) -> None:
    """One batch frame: its u32 length (back-patched), then the envelope."""
    record = _envelope(packet)
    length_at = writer.pos
    writer.pos = length_at + 4  # the envelope's encode grows the buffer past it
    record.encode(writer, packet)
    _S_U32.pack_into(writer.buf, length_at, writer.pos - length_at - 4)


def _decode_frames(reader: _Reader, count: int) -> List[Any]:
    """The ``count`` frames of a batch container."""
    frames = []
    outer = reader._len
    for _ in range(count):
        length = reader.unpack(_S_U32)
        if reader._pos + length > outer:
            raise reader._short(length)
        reader._len = reader._pos + length  # read within the frame only
        frames.append(_decode_tagged(reader, _ENVELOPE_BY_TAG, "envelope"))
        if not reader.exhausted:
            raise WireDecodeError("trailing bytes after envelope")
        reader._len = outer
    return frames


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


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_datagram(sender: Any, receiver: Any, packet: Any) -> bytes:
    """Encode one link packet as a self-delimiting datagram.

    ``sender`` / ``receiver`` are the overlay node ids of the directed
    link the packet travels on; the receiving transport uses them to
    dispatch to the right PoR endpoint and to drop misdirected traffic.
    """
    record = _envelope(packet)
    buf = _ENCODE_POOL.acquire()
    try:
        writer = _Writer(buf, start=HEADER_SIZE)
        _IDS.encode(writer, (sender, receiver))
        record.encode(writer, packet)
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
        _IDS.encode(writer, (sender, receiver))
        writer.pack(_S_U16, len(packets))
        for packet in packets:
            _encode_frame(writer, packet)
        return _finish_datagram(writer, FLAG_BATCH)
    finally:
        _ENCODE_POOL.release(writer.buf)


def split_batch(sender: Any, receiver: Any, packets: Sequence[Any]) -> List[List[Any]]:
    """Cut ``packets`` into the fewest runs, in order, whose batch
    containers each fit :data:`MAX_BODY` (a frame too large for any
    container is a run of its own).  Raises :class:`WireEncodeError` when
    a packet cannot be encoded at all."""
    writer = _Writer()
    _IDS.encode(writer, (sender, receiver))
    budget = MAX_BODY - writer.pos - 2  # the ids and the frame count
    runs: List[List[Any]] = []
    run: List[Any] = []
    used = 0
    for packet in packets:
        writer.pos = 0
        _encode_frame(writer, packet)
        if run and used + writer.pos > budget:
            runs.append(run)
            run, used = [], 0
        run.append(packet)
        used += writer.pos
    runs.append(run)
    return runs


def decode_datagram(data, memo: Optional[MessageMemo] = None) -> Datagram:
    """Decode one datagram (``bytes``, ``bytearray`` or a ``memoryview``
    of a reusable receive buffer); raises :class:`WireDecodeError` on any
    defect -- bad magic, version or flags, truncation, trailing garbage,
    over-length claims, a checksum mismatch, an unknown tag.  With the
    receiving node's ``memo``, a repeated copy comes back as the same
    object (see :class:`MessageMemo`).
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
    reader = _Reader(view[HEADER_SIZE:], memo)
    try:
        sender, receiver = _IDS.decode(reader)
        if flags & FLAG_BATCH:
            count = reader.unpack(_S_U16)
            if count == 0:
                raise WireDecodeError("empty batch container")
            # Each frame costs at least a u32 length + a 1-byte tag.
            reader.budget(count, 5, "batch frame")
            packets = tuple(_decode_frames(reader, count))
        else:
            packets = (_decode_tagged(reader, _ENVELOPE_BY_TAG, "envelope"),)
    except WireDecodeError:
        raise
    except (struct.error, IndexError, ValueError, OverflowError) as exc:
        # Belt and braces: the reader's bounds checks should catch
        # everything, but no primitive error may escape to the caller.
        raise WireDecodeError(f"malformed datagram: {exc}") from None
    if not reader.exhausted:
        raise WireDecodeError("trailing bytes after envelope")
    return Datagram(sender=sender, receiver=receiver, packet=packets[0], packets=packets)
