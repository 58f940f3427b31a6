"""Message and acknowledgment formats.

Every data message is signed by its source overlay node with RSA
(Section V-D, "Cryptographic mechanisms") and carries its dissemination
method: either the full set of K source-selected node-disjoint paths
(source-based routing — forwarders cannot redirect a message without
breaking the signature) or the constrained-flooding flag.

``Message`` objects are immutable; a Byzantine forwarder that wants to
tamper must build a modified copy, whose signature then fails to verify.

Performance: messages are forwarded by reference (copy elision — every
hop offers the *same* immutable object to its link queues, sharing the
payload and path tuples), and the derived values each hop needs —
the canonical signed-field tuple, the duplicate-suppression ``uid``, and
the signature verdict — are computed once per object and cached in
dedicated slots.  The caches are safe precisely because the dataclass is
frozen: any tamper requires ``dataclasses.replace``, which builds a new
object with *empty* caches (``init=False`` fields are reinitialized, not
copied), so a modified copy can never inherit a stale "verified" verdict.
The verify cache additionally records the PKI instance and its key
``epoch``, so rotating a key invalidates every previously cached verdict.

The live wire codec keeps a fourth slot on the same terms: the message's
encoded payload section, so one node serialises a message once however
many out-links it floods it to (``runtime/wire.py``, DESIGN.md §13).
``E2eAck`` has the same slot for the same reason.

Decoded and freshly signed messages are built in one step
(:func:`one_step_code`): the object is allocated and each slot stored
through its descriptor, which costs about half of the frozen dataclass's
``__init__``.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields
from hashlib import sha256
from sys import intern
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.crypto.encoding import nan_free
from repro.crypto.pki import Pki
from repro.topology.graph import NodeId

#: Wire bytes added to each data message by the overlay header
#: (ids, seqno, priority, expiration, dissemination descriptor).
MESSAGE_HEADER_SIZE = 64

#: Wire size of an E2E ACK: header + per-source cumulative entries.
E2E_ACK_BASE_SIZE = 48
E2E_ACK_ENTRY_SIZE = 12

#: Wire size of a neighbor ACK entry (flow id + cumulative seq).
NEIGHBOR_ACK_BASE_SIZE = 32
NEIGHBOR_ACK_ENTRY_SIZE = 16


class Semantics(enum.Enum):
    """Which intrusion-tolerant messaging semantics a message uses."""

    PRIORITY = "priority"
    RELIABLE = "reliable"


# ``Semantics.X.value`` is a Python-level property and an enum's hash is a
# Python-level ``__hash__``; the per-hop tuples below pick the value by
# identity instead.
_PRIORITY = Semantics.PRIORITY
_RELIABLE = Semantics.RELIABLE
_PRIORITY_VALUE = _PRIORITY.value
_RELIABLE_VALUE = _RELIABLE.value


def _payload_marker(payload: Any) -> bytes:
    """What the source signature covers of the application payload.

    A payload the live codec can carry (``bytes`` or ``str``) is bound
    by a type byte plus its SHA-256 digest, so a forwarder cannot swap
    the bytes the destination delivers.  The digest, not the payload,
    goes into the canonical tuple, which every message keeps cached and
    the PoR tag re-encodes (``link/por.py``).  ``None`` and
    simulator-only objects (which never cross a real wire) map to a
    fixed marker — never ``None`` itself, see :meth:`Message.signed_fields`.
    """
    if isinstance(payload, (bytes, bytearray)):
        return b"B" + sha256(payload).digest()
    if isinstance(payload, str):
        return b"S" + sha256(payload.encode("utf-8", "surrogatepass")).digest()
    return b"-"


def one_step_code(cls: type, target: str, values: Mapping[str, str],
                  bind: Callable[[Any], str]) -> Optional[str]:
    """One line of Python that builds ``cls`` into ``target`` in one step,
    or None when ``cls`` is not a frozen slots dataclass without
    ``__post_init__`` whose every field is in ``values`` or has a default.

    ``values`` maps field names to expressions; every other field takes
    its default, as ``__init__`` gives an ``init=False`` cache.  ``bind``
    names an object for the code's namespace.  The line allocates with
    ``object.__new__`` and stores every slot through its descriptor's
    ``__set__``: the same object ``cls(...)`` builds, about twice as fast,
    because a frozen dataclass's ``__init__`` stores each field through
    ``object.__setattr__`` by name.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if (
        params is None
        or not params.frozen
        or "__slots__" not in cls.__dict__
        or hasattr(cls, "__post_init__")
    ):
        return None
    every = fields(cls)
    if not set(values) <= {f.name for f in every}:
        return None
    parts = [f"{target} = {bind(object.__new__)}({bind(cls)})"]
    for f in every:
        if f.name in values:
            value = values[f.name]
        elif f.default is None:
            value = "None"
        elif f.default is not MISSING:
            value = bind(f.default)
        else:
            return None
        parts.append(f"{bind(cls.__dict__[f.name].__set__)}({target}, {value})")
    return "; ".join(parts)


def one_step_builder(cls: type) -> Callable[..., Any]:
    """A function taking every ``__init__`` argument of ``cls``
    positionally and building the object with :func:`one_step_code`."""
    namespace: Dict[str, Any] = {}

    def bind(obj: Any) -> str:
        name = f"_{len(namespace)}"
        namespace[name] = obj
        return name

    args = [f.name for f in fields(cls) if f.init]
    code = one_step_code(cls, "obj", {name: name for name in args}, bind)
    if code is None:
        raise TypeError(f"{cls.__name__} cannot be built in one step")
    exec(f"def build({', '.join(args)}):\n {code}\n return obj", namespace)
    return namespace["build"]


#: Bound on :func:`_canonical_paths`' table (a constant; cleared when full).
_PATH_FORMS_SIZE = 256

_PATH_FORMS: Dict[Tuple[Tuple[Any, ...], ...], Tuple[Tuple[str, ...], ...]] = {}


def _exact_ids(paths: Any) -> bool:
    """Whether ``paths`` is a tuple of tuples of exact ``int``/``str`` ids."""
    if type(paths) is not tuple:
        return False
    for path in paths:
        if type(path) is not tuple:
            return False
        for node in path:
            kind = type(node)
            if kind is not int and kind is not str:
                return False
    return True


def _canonical_paths(paths: Any) -> Tuple[Tuple[str, ...], ...]:
    """``paths`` with every node id as its ``str()``, as the signed tuple
    holds them.

    Every message of a flow carries equal paths, so their forms are kept
    in a table: a pure function of the value that holds no verdict.  It
    answers 99.99% of lookups on the K-paths workloads, and a fresh K=2
    message's whole ``signed_fields`` takes ~5 µs with it against ~7 µs
    with the list comprehensions alone (DESIGN.md §10).  Only exact
    ``int``/``str`` ids are looked up, since equal ids of those types
    have equal ``str()`` forms, whereas ``(1, 2)``, ``(True, 2)`` and
    ``(1.0, 2)`` are equal keys with three different forms.
    """
    if not paths:
        return ()
    if not _exact_ids(paths):
        return tuple([tuple([str(node) for node in path]) for path in paths])
    form = _PATH_FORMS.get(paths)
    if form is None:
        form = tuple([tuple([str(node) for node in path]) for path in paths])
        if len(_PATH_FORMS) >= _PATH_FORMS_SIZE:
            _PATH_FORMS.clear()
        _PATH_FORMS[paths] = form
    return form


@dataclass(frozen=True, slots=True)
class Message:
    """One overlay data message.

    Attributes
    ----------
    source, dest:
        Overlay node ids.  (Priority messages are point-to-point in the
        evaluation; flooding still delivers only to ``dest``.)
    seq:
        Monotonically increasing per source (PRIORITY) or consecutive per
        (source, dest) flow (RELIABLE).
    semantics:
        PRIORITY or RELIABLE.
    priority:
        1 (lowest) .. 10 (highest); meaningful for PRIORITY only.
    expiration:
        Absolute simulated time after which the message is worthless and
        every node discards it (PRIORITY only; None for RELIABLE).
    size_bytes:
        Application payload size (goodput is accounted in payload bytes).
    flooding / paths:
        The dissemination method: constrained flooding, or the tuple of
        source-selected node-disjoint paths.
    sent_at:
        Source timestamp used for latency measurement.
    payload:
        Opaque application data (not interpreted by the overlay).
    signature:
        Source signature over every semantic field above (the payload
        by its SHA-256 digest).
    """

    source: NodeId
    dest: NodeId
    seq: int
    semantics: Semantics
    priority: int = 1
    expiration: Optional[float] = None
    size_bytes: int = 1000
    flooding: bool = True
    paths: Optional[Tuple[Tuple[NodeId, ...], ...]] = None
    sent_at: float = 0.0
    payload: Any = None
    signature: Any = None
    # Per-object derived-value caches.  Excluded from __init__, __eq__,
    # __hash__, and __repr__, so semantics are identical to the uncached
    # dataclass; ``replace`` resets them (a tampered copy starts cold).
    _signed_fields_cache: Optional[Tuple[Any, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _uid_cache: Optional[Tuple[Any, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: (pki instance, pki.epoch at verification time, verdict)
    _verify_cache: Optional[Tuple[Any, int, bool]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The encoded payload section as ``(head, body, tail)``: the bytes
    #: before the application payload, the payload ``bytes`` object
    #: itself (``b""`` when the payload is not ``bytes``), the bytes
    #: after it.  Written and read only by ``repro.runtime.wire``.
    _wire_cache: Optional[Tuple[bytes, bytes, bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @staticmethod
    def create(
        pki: Pki,
        source: NodeId,
        dest: NodeId,
        seq: int,
        semantics: Semantics,
        priority: int = 1,
        expiration: Optional[float] = None,
        size_bytes: int = 1000,
        flooding: bool = True,
        paths: Optional[Tuple[Tuple[NodeId, ...], ...]] = None,
        sent_at: float = 0.0,
        payload: Any = None,
    ) -> "Message":
        """A message signed by ``source``, built with one construction.

        The signature is the one field the signed tuple does not cover, so
        it is filled in on the fresh object before anyone else holds it.
        The object is built in one step, like a decoded one.
        """
        message = _build_message(
            source, dest, seq, semantics, priority, expiration, size_bytes,
            flooding, paths, sent_at, payload, None,
        )
        _set_signature(message, pki.identity(source).sign(message.signed_fields()))
        return message

    def signed_fields(self) -> Tuple[Any, ...]:
        """Canonical tuple of fields covered by the source signature."""
        cached = self._signed_fields_cache
        if cached is not None:
            return cached
        semantics = self.semantics
        expiration = self.expiration
        # No ``None`` in the canonical tuple: ``hash(None)`` is derived
        # from its address on CPython < 3.12, so a None field would make
        # SIMULATED signatures disagree across OS processes (the sharded
        # cluster runtime verifies messages signed in another process).
        # NaN is replaced for the same reason (``encoding.nan_free``).
        fields = (
            "msg",
            str(self.source),
            str(self.dest),
            self.seq,
            _PRIORITY_VALUE if semantics is _PRIORITY
            else _RELIABLE_VALUE if semantics is _RELIABLE
            else semantics.value,
            self.priority,
            -1.0 if expiration is None else nan_free(expiration),
            self.size_bytes,
            self.flooding,
            _canonical_paths(self.paths),
            nan_free(self.sent_at),
            _payload_marker(self.payload),
        )
        object.__setattr__(self, "_signed_fields_cache", fields)
        return fields

    def verify(self, pki: Pki) -> bool:
        """Check the source signature against the PKI.

        The verdict is cached per message object and per PKI key epoch:
        forwarding the same immutable object across many hops of one
        node's queues verifies once, while any key rotation (which bumps
        ``pki.epoch``) or tampered copy (fresh object, cold cache) is
        re-checked in full.
        """
        cached = self._verify_cache
        epoch = pki.epoch
        if (
            cached is not None
            and cached[0] is pki
            and cached[1] == epoch
        ):
            return cached[2]
        verdict = pki.verify(self.source, self.signed_fields(), self.signature)
        object.__setattr__(self, "_verify_cache", (pki, epoch, verdict))
        return verdict

    # ------------------------------------------------------------------
    @property
    def uid(self) -> Tuple[Any, ...]:
        """Network-wide unique id used for duplicate suppression."""
        cached = self._uid_cache
        if cached is not None:
            return cached
        # Every node keeps the uid of every message until it expires
        # (MetadataStore): the two id strings are interned so those
        # tuples share them instead of holding a fresh copy each.
        semantics = self.semantics
        uid = (
            _PRIORITY_VALUE if semantics is _PRIORITY
            else _RELIABLE_VALUE if semantics is _RELIABLE
            else semantics.value,
            intern(str(self.source)),
            intern(str(self.dest)),
            self.seq,
        )
        object.__setattr__(self, "_uid_cache", uid)
        return uid

    @property
    def flow(self) -> Tuple[NodeId, NodeId]:
        return (self.source, self.dest)

    def wire_size(self, signature_size: int) -> int:
        """Total bytes on the wire: payload + header + paths + signature."""
        path_bytes = 0
        if self.paths:
            path_bytes = 4 * sum(map(len, self.paths))
        return self.size_bytes + MESSAGE_HEADER_SIZE + path_bytes + signature_size

    def is_expired(self, now: float) -> bool:
        """Whether the message is past its expiration at time ``now``
        (a NaN expiration always is)."""
        return self.expiration is not None and not self.expiration >= now

    def __repr__(self) -> str:  # pragma: no cover
        method = "flood" if self.flooding else f"k={len(self.paths or ())}"
        return (
            f"Message({self.source}->{self.dest} #{self.seq} "
            f"{self.semantics.value}/{method} prio={self.priority})"
        )


_build_message = one_step_builder(Message)
_set_signature = Message.__dict__["signature"].__set__


@dataclass(frozen=True, slots=True)
class E2eAck:
    """A destination's signed, flooded end-to-end acknowledgment.

    ``cumulative`` maps source node id → highest in-order sequence number
    the destination has received from that source.  ``stamp`` orders ACKs
    from the same destination (overtaken-by-event: nodes keep only the
    newest stamp per destination and forward only ACKs that indicate
    progress, no more often than the E2E timeout).
    """

    dest: NodeId
    stamp: int
    cumulative: Tuple[Tuple[str, int], ...]  # sorted ((source, seq), ...)
    signature: Any = None
    # Same per-object caches as Message (see its docstring): an ACK is
    # flooded network-wide, so the verdict cache saves one verification
    # per additional hop within a node process.
    _signed_fields_cache: Optional[Tuple[Any, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _verify_cache: Optional[Tuple[Any, int, bool]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The encoded payload section, on ``Message._wire_cache``'s terms: a
    #: node forwards one ACK on every out-link and encodes it once.
    _wire_cache: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def make_cumulative(by_source: Dict[NodeId, int]) -> Tuple[Tuple[str, int], ...]:
        """Canonical sorted tuple form of a per-source cumulative map."""
        return tuple(sorted((str(s), seq) for s, seq in by_source.items()))

    def signed_fields(self) -> Tuple[Any, ...]:
        """Canonical tuple of fields covered by the destination signature."""
        cached = self._signed_fields_cache
        if cached is not None:
            return cached
        fields = self._signed(self.dest, self.stamp, self.cumulative)
        object.__setattr__(self, "_signed_fields_cache", fields)
        return fields

    @staticmethod
    def _signed(
        dest: NodeId, stamp: int, cumulative: Tuple[Tuple[str, int], ...]
    ) -> Tuple[Any, ...]:
        return ("e2e-ack", str(dest), stamp, cumulative)

    @classmethod
    def create(
        cls, pki: Pki, dest: NodeId, stamp: int, by_source: Dict[NodeId, int]
    ) -> "E2eAck":
        cumulative = cls.make_cumulative(by_source)
        fields = cls._signed(dest, stamp, cumulative)
        ack = cls(dest, stamp, cumulative, pki.identity(dest).sign(fields))
        object.__setattr__(ack, "_signed_fields_cache", fields)
        return ack

    def verify(self, pki: Pki) -> bool:
        """Check the destination signature against the PKI (cached per
        object and PKI key epoch, exactly like :meth:`Message.verify`)."""
        cached = self._verify_cache
        epoch = pki.epoch
        if cached is not None and cached[0] is pki and cached[1] == epoch:
            return cached[2]
        verdict = pki.verify(self.dest, self.signed_fields(), self.signature)
        object.__setattr__(self, "_verify_cache", (pki, epoch, verdict))
        return verdict

    def seq_for(self, source: NodeId) -> int:
        """Cumulative acked sequence for ``source`` (-1 if absent)."""
        key = str(source)
        for src, seq in self.cumulative:
            if src == key:
                return seq
        return -1

    @property
    def wire_size(self) -> int:
        return E2E_ACK_BASE_SIZE + E2E_ACK_ENTRY_SIZE * len(self.cumulative)

    def indicates_progress_over(self, other: Optional["E2eAck"]) -> bool:
        """True if this ACK advances any flow relative to ``other``."""
        if other is None:
            return True
        if self.stamp <= other.stamp:
            return False
        theirs = dict(other.cumulative)
        return any(seq > theirs.get(src, -1) for src, seq in self.cumulative)


@dataclass(frozen=True, slots=True)
class NeighborAck:
    """Hop-local, unsigned ACK: "for flow F, I have stored up to ``h`` and
    can store up to ``limit``".

    Sent between direct neighbors over the (already authenticated) PoR
    link, so no end-to-end signature is needed.  Used by Reliable
    Messaging to avoid forwarding messages a neighbor already has
    (``h``), for hop-by-hop flow control (``limit`` = acked + buffer, so
    honest senders never overrun a neighbor's static per-flow buffer),
    and to re-trigger sending when the neighbor's buffer frees.
    """

    sender: NodeId
    #: ((source, dest), stored_h, limit) per flow.
    entries: Tuple[Tuple[Tuple[str, str], int, int], ...]

    @property
    def wire_size(self) -> int:
        return NEIGHBOR_ACK_BASE_SIZE + NEIGHBOR_ACK_ENTRY_SIZE * len(self.entries)


@dataclass(frozen=True, slots=True)
class Hello:
    """Periodic liveness beacon used for link monitoring."""

    sender: NodeId
    stamp: int

    WIRE_SIZE = 24


@dataclass(frozen=True, slots=True)
class AdmissionNack:
    """Typed admission verdict, flooded from an ingress node back to a
    client session's home node.

    ``offer_priority`` returns ADMITTED/PARKED/REJECTED synchronously on
    every substrate, but a PARKED offer's *terminal* fate — released,
    expired, evicted, or cleared by a crash — resolves asynchronously
    inside the admission controller.  When the offering session's home
    node differs from the ingress that parked the offer (failover), this
    frame carries the resolution across the overlay so the session can
    stop waiting on a deadline it will never meet.  Like
    :class:`NeighborAck` it is unsigned: it only travels hop-by-hop over
    already-authenticated PoR links, and the worst a Byzantine forger
    achieves is a spurious client retry, which the session layer's
    global retry budget bounds.

    ``seq`` is monotonically increasing per ingress and, with
    ``ingress``, forms the flood-dedup uid.
    """

    ingress: NodeId
    home: NodeId
    client: str
    key: str
    outcome: str  # "released" | "expired" | "evicted" | "cleared" | "rejected"
    seq: int

    WIRE_SIZE = 64

    @property
    def uid(self) -> Tuple[Any, ...]:
        """Flood-dedup id (unique per ingress decision)."""
        return ("nack", str(self.ingress), self.seq)


@dataclass(frozen=True, slots=True)
class StateRequest:
    """Sent by a node recovering from a crash (Section V-C2).

    The neighbor replies with its latest stored E2E ACKs (so the
    recovering node can skip forward to global progress) and rewinds its
    per-flow sending cursors toward the requester (so unacknowledged data
    is retransmitted).
    """

    sender: NodeId

    WIRE_SIZE = 24
