"""Property tests for the live wire codec (:mod:`repro.runtime.wire`).

Two contracts, driven by Hypothesis:

* **Round trip** — for every encodable link packet,
  ``decode(encode(x))`` reproduces ``x`` field-for-field, and encoding
  is deterministic (same object → same bytes).
* **Robustness** — decoding arbitrary, truncated, or bit-flipped input
  either succeeds or raises :class:`repro.errors.WireDecodeError`.  No
  ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` may escape:
  a live node drops bad datagrams, it does not crash on them.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pki import Pki, PkiMode
from repro.crypto.simulated import SimulatedSignature
from repro.errors import WireDecodeError, WireEncodeError
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
from repro.runtime import wire
from repro.runtime.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_BODY,
    VERSION,
    Datagram,
    MessageMemo,
    decode_datagram,
    encode_batch_datagram,
    encode_datagram,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
U32 = st.integers(min_value=0, max_value=2**32 - 1)
SHORT_TEXT = st.text(max_size=40)
NODE_IDS = st.one_of(I64, SHORT_TEXT)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)

SIGNATURES = st.one_of(
    st.none(),
    st.builds(SimulatedSignature, signer=NODE_IDS, tag=I64),
    st.binary(max_size=64),
    I64,
)

MESSAGES = st.builds(
    Message,
    source=NODE_IDS,
    dest=NODE_IDS,
    seq=I64,
    semantics=st.sampled_from([Semantics.PRIORITY, Semantics.RELIABLE]),
    priority=I64,
    expiration=st.one_of(st.none(), FLOATS),
    size_bytes=U32,
    flooding=st.booleans(),
    paths=st.one_of(
        st.none(),
        st.lists(
            st.lists(NODE_IDS, max_size=6).map(tuple), max_size=4
        ).map(tuple),
    ),
    sent_at=FLOATS,
    payload=st.one_of(st.none(), st.binary(max_size=64), SHORT_TEXT),
    signature=SIGNATURES,
)

E2E_ACKS = st.builds(
    E2eAck,
    dest=NODE_IDS,
    stamp=I64,
    cumulative=st.lists(st.tuples(SHORT_TEXT, I64), max_size=8).map(tuple),
    signature=SIGNATURES,
)

NEIGHBOR_ACKS = st.builds(
    NeighborAck,
    sender=NODE_IDS,
    entries=st.lists(
        st.tuples(st.tuples(SHORT_TEXT, SHORT_TEXT), I64, I64), max_size=8
    ).map(tuple),
)

LINK_STATES = st.builds(
    LinkStateUpdate,
    issuer=NODE_IDS,
    edge_a=NODE_IDS,
    edge_b=NODE_IDS,
    weight=FLOATS,
    seqno=I64,
    signature=SIGNATURES,
)

ADMISSION_NACKS = st.builds(
    AdmissionNack,
    ingress=NODE_IDS,
    home=NODE_IDS,
    client=SHORT_TEXT,
    key=SHORT_TEXT,
    outcome=SHORT_TEXT,
    seq=I64,
)

PAYLOADS = st.one_of(
    MESSAGES,
    E2E_ACKS,
    NEIGHBOR_ACKS,
    LINK_STATES,
    st.builds(StateRequest, sender=NODE_IDS),
    st.builds(Hello, sender=NODE_IDS, stamp=I64),
    ADMISSION_NACKS,
)


def _por_data(draw) -> PorData:
    packet = PorData(
        epoch=draw(I64),
        seq=draw(I64),
        nonce=draw(st.binary(max_size=32)),
        payload=draw(PAYLOADS),
        wire_size=draw(U32),
    )
    packet.mac = draw(SIGNATURES)
    return packet


def _por_ack(draw) -> PorAck:
    packet = PorAck(
        epoch=draw(I64),
        cum_seq=draw(I64),
        proof=draw(st.binary(max_size=32)),
        missing=tuple(draw(st.lists(I64, max_size=8))),
    )
    packet.mac = draw(SIGNATURES)
    return packet


ENVELOPES = st.one_of(
    st.composite(_por_data)(),
    st.composite(_por_ack)(),
    st.builds(
        PorHandshake,
        sender=NODE_IDS,
        dh_public=st.binary(max_size=64),
        signature=SIGNATURES,
    ),
    st.builds(Hello, sender=NODE_IDS, stamp=I64).map(_HelloWrapper),
)


def assert_packets_equal(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, PorData):
        assert (a.epoch, a.seq, a.nonce, a.wire_size, a.mac) == (
            b.epoch, b.seq, b.nonce, b.wire_size, b.mac
        )
        assert a.payload == b.payload
        # The receiver recomputes the link tag over the decoded packet.
        assert a.mac_fields() == b.mac_fields()
    elif isinstance(a, PorAck):
        assert (a.epoch, a.cum_seq, a.proof, a.missing, a.mac) == (
            b.epoch, b.cum_seq, b.proof, b.missing, b.mac
        )
    elif isinstance(a, PorHandshake):
        assert (a.sender, a.dh_public, a.signature) == (
            b.sender, b.dh_public, b.signature
        )
    elif isinstance(a, _HelloWrapper):
        assert a.hello == b.hello
    else:  # pragma: no cover - strategy and codec out of sync
        raise AssertionError(f"unexpected packet type {type(a).__name__}")


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
@given(sender=NODE_IDS, receiver=NODE_IDS, packet=ENVELOPES)
@settings(max_examples=200)
def test_round_trip(sender, receiver, packet):
    data = encode_datagram(sender, receiver, packet)
    # Determinism: the codec has no hidden state.
    assert encode_datagram(sender, receiver, packet) == data
    decoded = decode_datagram(data)
    assert isinstance(decoded, Datagram)
    assert decoded.sender == sender
    assert decoded.receiver == receiver
    assert_packets_equal(decoded.packet, packet)
    # Node ids round-trip *typed*: protocol state keys dicts by them.
    assert type(decoded.sender) is type(sender)
    assert type(decoded.receiver) is type(receiver)


# ----------------------------------------------------------------------
# Robustness: truncation, corruption, junk
# ----------------------------------------------------------------------
@given(
    sender=NODE_IDS,
    receiver=NODE_IDS,
    packet=ENVELOPES,
    data=st.data(),
)
@settings(max_examples=200)
def test_truncation_raises_typed_error(sender, receiver, packet, data):
    encoded = encode_datagram(sender, receiver, packet)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(WireDecodeError):
        decode_datagram(encoded[:cut])


@given(
    sender=NODE_IDS,
    receiver=NODE_IDS,
    packet=ENVELOPES,
    data=st.data(),
)
@settings(max_examples=200)
def test_corruption_never_escapes_as_primitive_error(
    sender, receiver, packet, data
):
    encoded = bytearray(encode_datagram(sender, receiver, packet))
    position = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    flip = data.draw(st.integers(min_value=1, max_value=255))
    encoded[position] ^= flip
    try:
        decode_datagram(bytes(encoded))
    except WireDecodeError:
        pass  # rejected with the typed error — the only allowed failure


@given(st.binary(max_size=256))
@settings(max_examples=300)
def test_junk_bytes_never_crash(data):
    try:
        decode_datagram(data)
    except WireDecodeError:
        pass


# ----------------------------------------------------------------------
# Header validation specifics
# ----------------------------------------------------------------------
def _valid_datagram() -> bytes:
    return encode_datagram("a", "b", _HelloWrapper(Hello("a", 1)))


def test_bad_magic_rejected():
    data = b"XX" + _valid_datagram()[2:]
    with pytest.raises(WireDecodeError, match="magic"):
        decode_datagram(data)


def test_unknown_version_rejected():
    data = bytearray(_valid_datagram())
    data[2] = VERSION + 1
    with pytest.raises(WireDecodeError, match="version"):
        decode_datagram(bytes(data))


def test_overlength_claim_rejected():
    header = MAGIC + struct.pack(">BBII", VERSION, 0, MAX_BODY + 1, 0)
    with pytest.raises(WireDecodeError, match="maximum"):
        decode_datagram(header + b"\x00" * 16)


def test_length_mismatch_rejected():
    data = _valid_datagram() + b"\x00"
    with pytest.raises(WireDecodeError, match="length mismatch"):
        decode_datagram(data)


def test_trailing_bytes_inside_body_rejected():
    valid = _valid_datagram()
    body = valid[HEADER_SIZE:] + b"\x00"
    header = MAGIC + struct.pack(">BBI", VERSION, 0, len(body))
    data = header + struct.pack(">I", zlib.crc32(header + body)) + body
    with pytest.raises(WireDecodeError, match="trailing"):
        decode_datagram(data)


def test_checksum_mismatch_rejected():
    data = bytearray(_valid_datagram())
    data[-1] ^= 0x40  # flip one bit in the body; header stays plausible
    with pytest.raises(WireDecodeError, match="checksum"):
        decode_datagram(bytes(data))


def test_non_bytes_input_rejected():
    with pytest.raises(WireDecodeError):
        decode_datagram("not bytes")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Encode-side validation
# ----------------------------------------------------------------------
def test_unsupported_envelope_raises_encode_error():
    with pytest.raises(WireEncodeError):
        encode_datagram("a", "b", object())


def test_unsupported_node_id_raises_encode_error():
    with pytest.raises(WireEncodeError):
        encode_datagram(("tuple", "id"), "b", _HelloWrapper(Hello("a", 1)))


def test_oversized_body_raises_encode_error():
    # A 64 KiB application payload pushes the body past MAX_BODY.
    message = Message(
        source="a",
        dest="b",
        seq=1,
        semantics=Semantics.PRIORITY,
        priority=1,
        expiration=None,
        size_bytes=1,
        flooding=True,
        paths=None,
        sent_at=0.0,
        payload=b"x" * 0xFFFF,
        signature=None,
    )
    packet = PorData(epoch=0, seq=0, nonce=b"", payload=message, wire_size=1)
    with pytest.raises(WireEncodeError, match="max"):
        encode_datagram("a", "b", packet)


# ----------------------------------------------------------------------
# Encode once: the payload section cached on the message
# ----------------------------------------------------------------------
def _por(message, nonce=b"n" * 8, mac=None) -> PorData:
    packet = PorData(epoch=1, seq=2, nonce=nonce, payload=message, wire_size=64)
    packet.mac = mac
    return packet


def _cold_copy(message: Message) -> Message:
    copy = dataclasses.replace(message)
    assert copy._wire_cache is None
    return copy


@given(message=MESSAGES, sender=NODE_IDS, receiver=NODE_IDS)
@settings(max_examples=200)
def test_cached_encode_equals_cold_encode(message, sender, receiver):
    assert message._wire_cache is None
    cold = encode_datagram(sender, receiver, _por(message))
    head, body, tail = message._wire_cache
    # A ``bytes`` payload is the middle piece itself, never a second copy.
    if type(message.payload) is bytes:
        assert body is message.payload
    else:
        assert body == b""
    assert cold.endswith(head + body + tail)
    # Every further out-link copies the pieces: same bytes.
    assert encode_datagram(sender, receiver, _por(message)) == cold
    assert encode_batch_datagram(
        sender, receiver, [_por(message), _por(message)]
    ) == encode_batch_datagram(
        sender, receiver, [_por(_cold_copy(message)), _por(_cold_copy(message))]
    )
    # A relay re-encodes what it decoded from the bytes it received.
    relayed = decode_datagram(cold).packet.payload
    assert relayed == message
    assert relayed._wire_cache == (head, body, tail)
    assert encode_datagram(sender, receiver, _por(relayed)) == cold


@given(message=MESSAGES, data=st.data())
@settings(max_examples=100)
def test_replace_and_sign_copies_encode_their_own_fields(message, data):
    encode_datagram(1, 2, _por(message))  # warm the original
    changed = dataclasses.replace(
        message, seq=data.draw(I64), payload=data.draw(st.binary(max_size=16))
    )
    assert changed._wire_cache is None
    decoded = decode_datagram(encode_datagram(1, 2, _por(changed))).packet.payload
    assert decoded == changed
    assert (decoded.seq, decoded.payload) == (changed.seq, changed.payload)


def test_sign_starts_the_wire_cache_cold():
    """A copy that gains a signature encodes it, not the unsigned
    original's cached bytes."""
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("a")
    unsigned = Message(source="a", dest="b", seq=1, semantics=Semantics.PRIORITY,
                       payload=b"data")
    encode_datagram("a", "b", _por(unsigned))
    assert unsigned._wire_cache is not None
    signed = dataclasses.replace(
        unsigned, signature=pki.identity("a").sign(unsigned.signed_fields())
    )
    assert signed._wire_cache is None
    decoded = decode_datagram(encode_datagram("a", "b", _por(signed))).packet.payload
    assert decoded.signature == signed.signature
    assert decoded.verify(pki)


@given(message=MESSAGES)
@settings(max_examples=100)
def test_nothing_cached_aliases_the_receive_buffer(message):
    """The batched receive path decodes views of a buffer it reuses."""
    encoded = encode_datagram("a", "b", _por(_cold_copy(message)))
    buffer = bytearray(encoded)
    memo = MessageMemo()
    decoded = decode_datagram(memoryview(buffer), memo).packet.payload
    buffer[:] = bytes(len(buffer))  # the next datagram overwrites it
    assert decoded == message
    assert encode_datagram("a", "b", _por(decoded)) == encoded
    if message.flooding:
        assert decode_datagram(encoded, memo).packet.payload is decoded


# ----------------------------------------------------------------------
# Envelope heads: the compact path writes and reads the general bytes
# ----------------------------------------------------------------------
@given(epoch=I64, seq=I64, wire_size=U32, nonce=st.binary(min_size=8, max_size=8),
       payload=PAYLOADS)
@settings(max_examples=100)
def test_por_data_head_fast_path_matches_field_path(epoch, seq, wire_size, nonce, payload):
    def build(nonce_value):
        return PorData(epoch, seq, nonce_value, payload, wire_size)

    fast = encode_datagram(1, 2, build(nonce))
    # A ``bytearray`` nonce has no compact form: the general path writes it.
    assert encode_datagram(1, 2, build(bytearray(nonce))) == fast
    assert_packets_equal(decode_datagram(fast).packet, build(nonce))
    for cut in range(HEADER_SIZE, len(fast)):
        with pytest.raises(WireDecodeError):
            decode_datagram(fast[:cut])


@given(epoch=I64, cum_seq=I64, proof=st.binary(min_size=16, max_size=16))
@settings(max_examples=100)
def test_por_ack_head_fast_path_matches_field_path(epoch, cum_seq, proof):
    fast = encode_datagram(1, 2, PorAck(epoch, cum_seq, proof))
    assert encode_datagram(1, 2, PorAck(epoch, cum_seq, bytearray(proof))) == fast
    assert_packets_equal(decode_datagram(fast).packet, PorAck(epoch, cum_seq, proof))
    # Same sizes but a NACK list or an int MAC: both round-trip.
    for other in (PorAck(epoch, cum_seq, proof, (cum_seq,)), PorAck(epoch, cum_seq, proof)):
        if not other.missing:
            other.mac = 7
        assert_packets_equal(decode_datagram(encode_datagram(1, 2, other)).packet, other)


@given(epoch=I64, seq=I64, wire_size=U32, nonce=st.binary(min_size=8, max_size=8),
       cum_seq=I64, proof=st.binary(min_size=16, max_size=16), payload=PAYLOADS)
@settings(max_examples=100)
def test_batch_frame_heads_match_the_field_path(
    epoch, seq, wire_size, nonce, cum_seq, proof, payload
):
    """A compact batch frame and one with no compact form (``bytearray``
    nonce/proof) give the same bytes, length prefix included."""
    def frames(nonce_value, proof_value):
        return [PorData(epoch, seq, nonce_value, payload, wire_size),
                PorAck(epoch, cum_seq, proof_value)]

    fast = encode_batch_datagram(1, 2, frames(nonce, proof))
    assert encode_batch_datagram(1, 2, frames(bytearray(nonce), bytearray(proof))) == fast
    decoded = decode_datagram(fast).packets
    for got, want in zip(decoded, frames(nonce, proof)):
        assert_packets_equal(got, want)


# ----------------------------------------------------------------------
# One table, two paths: the compact path gives the general path's bytes
# ----------------------------------------------------------------------
COMPACT_SIGNATURES = st.one_of(
    st.none(), st.builds(SimulatedSignature, signer=I64, tag=I64)
)

COMPACT_MESSAGES = st.builds(
    Message,
    source=I64,
    dest=I64,
    seq=I64,
    semantics=st.sampled_from([Semantics.PRIORITY, Semantics.RELIABLE]),
    priority=I64,
    expiration=st.one_of(st.none(), FLOATS),
    size_bytes=U32,
    flooding=st.booleans(),
    paths=st.one_of(
        st.none(),
        st.lists(
            st.lists(I64, max_size=wire.MAX_COMPILED_HOPS).map(tuple), max_size=4
        ).map(tuple),
    ),
    sent_at=FLOATS,
    payload=st.one_of(st.none(), st.binary(max_size=64), st.text(max_size=16)),
    signature=COMPACT_SIGNATURES,
)

COMPACT_E2E_ACKS = st.builds(
    E2eAck,
    dest=I64,
    stamp=I64,
    cumulative=st.lists(st.tuples(SHORT_TEXT, I64), max_size=8).map(tuple),
    signature=COMPACT_SIGNATURES,
)

COMPACT_NEIGHBOR_ACKS = st.builds(
    NeighborAck,
    sender=I64,
    entries=st.lists(
        st.tuples(st.tuples(SHORT_TEXT, SHORT_TEXT), I64, I64), max_size=8
    ).map(tuple),
)


def _section(path, payload):
    """A payload section through one path -- ``"compact"`` or
    ``"general"`` -- and the offset its record noted; None when the
    compact path has no form for the payload's shape."""
    record = wire._PAYLOAD_BY_TYPE[type(payload)]
    writer = wire._Writer()
    if path == "general":
        record.write(writer, payload)
    else:
        try:
            record.pack(writer, payload)
        except wire._ENCODE_MISMATCH:
            return None
    return bytes(writer.buf[:writer.pos]), writer.mark


# The compact path is generated from the table ("compiled"); the general
# path walks it field by field.
@given(message=COMPACT_MESSAGES)
@settings(max_examples=200)
def test_compiled_message_matches_the_field_path(message):
    compact = _section("compact", message)
    assert compact is not None
    assert compact == _section("general", message)


@given(message=MESSAGES)
@settings(max_examples=200)
def test_compiled_message_covers_its_shape_or_declines(message):
    compact = _section("compact", message)
    if compact is not None:
        assert compact == _section("general", message)


@given(ack=COMPACT_E2E_ACKS)
@settings(max_examples=200)
def test_compiled_e2e_ack_matches_the_field_path(ack):
    compact = _section("compact", ack)
    assert compact is not None
    assert compact == _section("general", ack)


@given(ack=COMPACT_NEIGHBOR_ACKS)
@settings(max_examples=200)
def test_compiled_neighbor_ack_matches_the_field_path(ack):
    compact = _section("compact", ack)
    assert compact is not None
    assert compact == _section("general", ack)


@given(ack=st.one_of(E2E_ACKS, COMPACT_E2E_ACKS), neighbor=NEIGHBOR_ACKS)
@settings(max_examples=200)
def test_compiled_acks_cover_their_shape_or_decline(ack, neighbor):
    for payload in (ack, neighbor):
        compact = _section("compact", payload)
        if compact is not None:
            assert compact == _section("general", payload)


@given(payload=st.one_of(COMPACT_MESSAGES, COMPACT_E2E_ACKS, COMPACT_NEIGHBOR_ACKS))
@settings(max_examples=200)
def test_compiled_payloads_round_trip_through_the_compiled_readers(payload):
    encoded = encode_datagram(1, 2, _por(payload))

    def general_path_used(*args):
        raise AssertionError("a compact shape reached the general path")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire._Record, "read", general_path_used)
        decoded = decode_datagram(encoded).packet.payload
    assert decoded == payload
    assert getattr(decoded, "_wire_cache", None) == getattr(payload, "_wire_cache", None)


# ----------------------------------------------------------------------
# E2E ACKs: encoded once per object, whatever the out-link count
# ----------------------------------------------------------------------
def test_e2e_ack_is_encoded_once_for_every_out_link(monkeypatch):
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register(9)
    ack = E2eAck.create(pki, 9, 4, {1: 40, 3: 7})
    assert ack._wire_cache is None
    compiled = []
    real = wire._Record.encode

    def encode(record, writer, obj):
        if isinstance(obj, E2eAck):
            compiled.append(obj)
        real(record, writer, obj)

    monkeypatch.setattr(wire._Record, "encode", encode)
    datagrams = {encode_datagram(9, link, _por(ack)) for link in (1, 2, 3)}
    datagrams |= {encode_batch_datagram(9, 4, [_por(ack), _por(ack)])}
    assert compiled == [ack]
    assert len(datagrams) == 4
    # A relay forwards the object it decoded: its cache is the received bytes.
    relayed = decode_datagram(encode_datagram(9, 1, _por(ack))).packet.payload
    assert relayed == ack and relayed._wire_cache == ack._wire_cache
    assert relayed.verify(pki)
    encode_datagram(1, 5, _por(relayed))
    assert compiled == [ack]
    # A modified copy starts cold and encodes its own fields.
    changed = dataclasses.replace(ack, stamp=5)
    assert changed._wire_cache is None
    assert decode_datagram(encode_datagram(9, 1, _por(changed))).packet.payload.stamp == 5


def test_signing_builds_one_equal_object():
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register(3)
    pki.register(9)
    fields = dict(source=3, dest=9, seq=1, semantics=Semantics.RELIABLE,
                  priority=4, expiration=9.5, size_bytes=12, flooding=False,
                  paths=((3, 5, 9),), sent_at=1.5, payload=b"data")
    unsigned = Message(**fields)
    signed = Message.create(pki, **fields)
    assert signed == dataclasses.replace(unsigned, signature=signed.signature)
    assert signed.signed_fields() == unsigned.signed_fields()
    assert signed.verify(pki)
    ack = E2eAck.create(pki, 9, 2, {3: 1})
    assert ack == E2eAck(9, 2, (("3", 1),), ack.signature)
    assert ack.signed_fields() == E2eAck(9, 2, (("3", 1),)).signed_fields()
    assert ack.verify(pki)
