"""Exactness oracle for the per-hop signed tuples and uids.

``Message.signed_fields``, ``Message.uid`` and ``Message.create`` build
their values without the enum ``value`` property, generator expressions
or a second ``Message`` construction, and keep recent path forms in a
table.  The reference functions below are the earlier, plain
implementations, kept verbatim (the signer object they called is inlined
as ``hash((secret, fields))``).  For every non-NaN input the new code
must return ``==`` tuples whose elements, nested ones included, have the
same types, and the same tag.  NaN is the one deliberate difference
(``tests/test_signed_nan.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
from sys import intern

from hypothesis import given, settings, strategies as st

from repro.crypto.pki import Pki, PkiMode
from repro.crypto.simulated import SimulatedSignature
from repro.messaging.message import E2eAck, Message, Semantics
from repro.routing.link_state import LinkStateUpdate

ORACLE = settings(max_examples=150, deadline=None)


# ----------------------------------------------------------------------
# The reference: the plain implementations
# ----------------------------------------------------------------------
def ref_payload_marker(payload):
    if isinstance(payload, (bytes, bytearray)):
        return b"B" + hashlib.sha256(payload).digest()
    if isinstance(payload, str):
        return b"S" + hashlib.sha256(payload.encode("utf-8", "surrogatepass")).digest()
    return b"-"


def ref_signed_fields(self):
    fields = (
        "msg",
        str(self.source),
        str(self.dest),
        self.seq,
        self.semantics.value,
        self.priority,
        -1.0 if self.expiration is None else self.expiration,
        self.size_bytes,
        self.flooding,
        tuple(tuple(str(n) for n in p) for p in self.paths) if self.paths else (),
        self.sent_at,
        ref_payload_marker(self.payload),
    )
    return fields


def ref_uid(self):
    uid = (
        self.semantics.value,
        intern(str(self.source)),
        intern(str(self.dest)),
        self.seq,
    )
    return uid


def ref_sign(self, pki):
    fields = ref_signed_fields(self)
    signature = SimulatedSignature(
        signer=self.source, tag=hash((pki._sim_secrets[self.source], fields))
    )
    signed = Message(
        self.source, self.dest, self.seq, self.semantics, self.priority,
        self.expiration, self.size_bytes, self.flooding, self.paths,
        self.sent_at, self.payload, signature,
    )
    return signed


def ref_update_fields(update):
    return (
        "link-state",
        str(update.issuer),
        str(update.edge_a),
        str(update.edge_b),
        update.weight,
        update.seqno,
    )


def typed(value):
    """``value`` with the type of every leaf spelled out, nested tuples
    included: two values are typed-equal when they are ``==`` and every
    element has the same type."""
    if type(value) is tuple:
        return ("tuple", tuple(typed(item) for item in value))
    return (type(value), value)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
NODE_IDS = st.one_of(st.integers(-3, 300), st.text(max_size=4))
#: Path hops may be look-alikes: ``1``, ``True`` and ``1.0`` are equal
#: and hash alike, yet their ``str()`` forms differ.
HOPS = st.one_of(
    NODE_IDS, st.booleans(), st.floats(allow_nan=False), st.sampled_from([1, True, 1.0, 2])
)
PATHS = st.one_of(
    st.none(),
    st.just(()),
    st.lists(st.tuples(*[HOPS] * 2) | st.lists(HOPS, max_size=5).map(tuple),
             min_size=1, max_size=3).map(tuple),
)
PAYLOADS = st.one_of(
    st.none(),
    st.binary(max_size=64),
    st.binary(max_size=64).map(bytearray),
    st.text(max_size=16),
    st.integers(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
FLOATS = st.floats(allow_nan=False)
MESSAGES = st.builds(
    Message,
    source=NODE_IDS,
    dest=NODE_IDS,
    seq=st.integers(),
    semantics=st.sampled_from(Semantics),
    priority=st.integers(1, 10),
    expiration=st.none() | FLOATS,
    size_bytes=st.integers(0, 2**32 - 1),
    flooding=st.booleans(),
    paths=PATHS,
    sent_at=FLOATS,
    payload=PAYLOADS,
)


def fresh(message: Message) -> Message:
    """An equal message with every cache slot empty."""
    return dataclasses.replace(message)


def pki_for(*identities) -> Pki:
    pki = Pki(mode=PkiMode.SIMULATED, seed=11)
    for identity in identities:
        pki.register(identity)
    return pki


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------
@ORACLE
@given(MESSAGES)
def test_signed_fields_and_uid_equal_the_reference_with_identical_types(message):
    assert typed(message.signed_fields()) == typed(ref_signed_fields(fresh(message)))
    assert typed(message.uid) == typed(ref_uid(fresh(message)))


@ORACLE
@given(MESSAGES)
def test_create_gives_the_reference_tag(message):
    pki = pki_for(message.source)
    reference = ref_sign(fresh(message), pki)
    created = Message.create(
        pki, message.source, message.dest, message.seq, message.semantics,
        message.priority, message.expiration, message.size_bytes,
        message.flooding, message.paths, message.sent_at, message.payload,
    )
    assert created == reference
    assert created.signature == reference.signature
    assert typed(created.signed_fields()) == typed(ref_signed_fields(reference))
    assert created.verify(pki)
    assert fresh(created).verify(pki)


@ORACLE
@given(NODE_IDS, NODE_IDS, NODE_IDS, FLOATS, st.integers())
def test_link_state_update_equals_the_reference(issuer, edge_a, edge_b, weight, seqno):
    pki = pki_for(issuer)
    update = LinkStateUpdate.create(pki, issuer, edge_a, edge_b, weight, seqno)
    fields = ref_update_fields(update)
    assert typed(update.signed_fields()) == typed(fields)
    assert update.signature == SimulatedSignature(
        signer=issuer, tag=hash((pki._sim_secrets[issuer], fields))
    )
    assert update.verify(pki)


def test_look_alike_paths_keep_their_own_forms():
    """Equal, hash-equal paths of different hop types, one after another
    (so the second and third would hit the first's table entry)."""
    pki = pki_for("s")
    forms = []
    for hops in ((1, 2), (True, 2), (1.0, 2), ("1", "2")):
        message = Message.create(
            pki, "s", "d", 1, Semantics.PRIORITY, flooding=False, paths=(hops,)
        )
        assert typed(message.signed_fields()) == typed(ref_signed_fields(fresh(message)))
        forms.append(message.signed_fields()[9])
    assert forms == [(("1", "2"),), (("True", "2"),), (("1.0", "2"),), (("1", "2"),)]


# ----------------------------------------------------------------------
# Tampering with any one field fails verification
# ----------------------------------------------------------------------
def _other(value):
    """A value unlike ``value`` in the signed tuple.

    A number is replaced by one whose ``hash()`` differs too: CPython
    hashes numbers modulo 2**61 - 1, so a SIMULATED tag cannot tell such
    a pair apart (ROADMAP item 12(d)), and these tests check that every
    field is covered, not that known collision.
    """
    if value is None:
        return 5.0
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return next(c for c in (0.5, 0.25, 3) if c != value and hash(c) != hash(value))
    if isinstance(value, str):
        return value + "x"
    raise AssertionError(f"no tamper value for {value!r}")


MESSAGE_FIELDS = (
    "dest", "seq", "semantics", "priority", "expiration", "size_bytes",
    "flooding", "paths", "sent_at", "payload",
)


@ORACLE
@given(MESSAGES)
def test_changing_any_message_field_fails_verification(message):
    pki = pki_for(message.source, "other")
    signed = Message.create(
        pki, message.source, message.dest, message.seq, message.semantics,
        message.priority, message.expiration, message.size_bytes,
        message.flooding, message.paths, message.sent_at, message.payload,
    )
    assert signed.verify(pki)
    for name in MESSAGE_FIELDS:
        value = getattr(signed, name)
        if name == "semantics":
            changed = next(s for s in Semantics if s is not value)
        elif name == "paths":
            changed = (("t",),) if not value else value + (("t",),)
        elif name == "payload":
            # Not None or a simulator-only object: those share one marker.
            changed = bytes(value) + b"x" if isinstance(value, (bytes, bytearray)) else b"x"
        else:
            changed = _other(value)
        assert not dataclasses.replace(signed, **{name: changed}).verify(pki), name
    other_source = "other" if message.source != "other" else message.source
    if other_source != message.source:
        assert not dataclasses.replace(signed, source=other_source).verify(pki)


@ORACLE
@given(NODE_IDS, st.integers(), st.dictionaries(NODE_IDS, st.integers(-1, 99), max_size=4))
def test_changing_any_e2e_ack_field_fails_verification(dest, stamp, by_source):
    pki = pki_for(dest, "other")
    ack = E2eAck.create(pki, dest, stamp, by_source)
    assert ack.verify(pki)
    for name, changed in (
        ("dest", "other" if dest != "other" else "x"),
        ("stamp", _other(stamp)),
        ("cumulative", ack.cumulative + (("t", 0),)),
    ):
        assert not dataclasses.replace(ack, **{name: changed}).verify(pki), name


@ORACLE
@given(NODE_IDS, NODE_IDS, NODE_IDS, FLOATS, st.integers())
def test_changing_any_update_field_fails_verification(issuer, edge_a, edge_b, weight, seqno):
    pki = pki_for(issuer, "other")
    update = LinkStateUpdate.create(pki, issuer, edge_a, edge_b, weight, seqno)
    assert update.verify(pki)
    for name in ("issuer", "edge_a", "edge_b", "weight", "seqno"):
        value = getattr(update, name)
        changed = ("other" if value != "other" else "x") if name == "issuer" else _other(value)
        assert not dataclasses.replace(update, **{name: changed}).verify(pki), name
