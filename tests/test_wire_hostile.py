"""Hostile-input fuzzing for the live wire path (Hypothesis).

The live chaos engine corrupts real datagrams in flight, and an attacker
can spray a node's UDP port with anything at all.  These tests pin the
robustness contract end to end:

* ``decode_datagram`` raises the typed :class:`WireDecodeError` — never a
  primitive ``struct.error`` / ``IndexError`` / ``MemoryError`` — for
  truncated, bit-flipped, oversized, or arbitrary junk input;
* the CRC-32 integrity trailer makes rejection of *any* single bit flip
  a guarantee, not a likelihood — so a corrupted sequence number or
  epoch can never reach Proof-of-Receipt state (the failure mode behind
  an unbounded gap scan found by the live soak);
* :class:`AsyncioUdpTransport` counts every drop by reason and keeps
  serving;
* the PoR receive path bounds accepted sequence numbers, so even a
  well-formed datagram with a hostile seq cannot poison the reorder
  buffer.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pki import Pki, PkiMode
from repro.errors import WireDecodeError
from repro.link.por import WINDOW, PorData, _HelloWrapper, connect_por_pair
from repro.messaging.message import Hello, Message, Semantics
from repro.runtime.transport import AsyncioUdpTransport
from repro.runtime.wire import MAX_BODY, MessageMemo, decode_datagram, encode_datagram
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator


def make_link():
    sim = Simulator(seed=0)
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("a")
    pki.register("b")
    cfg = ChannelConfig(latency=0.01)
    ab = Channel(sim, cfg, name="a->b")
    ba = Channel(sim, cfg, name="b->a")
    end_a, end_b = connect_por_pair(sim, "a", "b", ab, ba, pki)
    delivered_b = []
    end_b.on_deliver = lambda payload, size: delivered_b.append(payload)
    return sim, end_a, end_b, delivered_b


def valid_datagram(stamp=1):
    return encode_datagram("peer", "n", _HelloWrapper(Hello("peer", stamp)))


# ----------------------------------------------------------------------
# Codec: every defect is the typed error, bit flips are always caught
# ----------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=300)
def test_any_single_bit_flip_is_rejected(data):
    encoded = bytearray(valid_datagram())
    position = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    bit = data.draw(st.integers(min_value=0, max_value=7))
    encoded[position] ^= 1 << bit
    # Not "never crashes" — *always rejected*: the CRC covers header and
    # body, so a flipped bit anywhere cannot decode successfully.
    with pytest.raises(WireDecodeError):
        decode_datagram(bytes(encoded))


@given(data=st.data())
@settings(max_examples=200)
def test_multi_byte_corruption_never_escapes_typed_error(data):
    encoded = bytearray(valid_datagram())
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        decoded = decode_datagram(bytes(encoded))
    except WireDecodeError:
        return
    # Astronomically unlikely (CRC collision), but if it decodes it must
    # at least be a structurally complete datagram.
    assert decoded.packet is not None


@given(junk=st.binary(max_size=2048))
@settings(max_examples=300)
def test_arbitrary_junk_raises_typed_error_or_nothing(junk):
    with pytest.raises(WireDecodeError):
        decode_datagram(junk)


@given(cut=st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_every_truncation_is_rejected(cut):
    encoded = valid_datagram()
    truncated = encoded[: min(cut, len(encoded) - 1)]
    with pytest.raises(WireDecodeError):
        decode_datagram(truncated)


@given(cut=st.integers(min_value=0, max_value=300))
@settings(max_examples=100)
def test_every_nack_truncation_is_rejected(cut):
    """The typed admission NACK (payload tag 8) is the newest wire
    payload; a truncated one must die in the codec as the typed error,
    never as a struct/index error inside the field readers."""
    from repro.link.por import PorData
    from repro.messaging.message import AdmissionNack

    packet = PorData(
        epoch=1, seq=2, nonce=b"n" * 8,
        payload=AdmissionNack(
            ingress=3, home=7, client="sessions:3/s0",
            key="sessions:3/s0#41", outcome="expired", seq=41,
        ),
        wire_size=AdmissionNack.WIRE_SIZE,
    )
    packet.mac = b"m" * 8
    encoded = encode_datagram("a", "b", packet)
    truncated = encoded[: min(cut, len(encoded) - 1)]
    with pytest.raises(WireDecodeError):
        decode_datagram(truncated)


def test_oversized_length_claim_rejected_without_allocation():
    import struct

    from repro.runtime.wire import MAGIC, VERSION

    header = MAGIC + struct.pack(">BBII", VERSION, 0, MAX_BODY + 1, 0)
    with pytest.raises(WireDecodeError, match="maximum"):
        decode_datagram(header + b"\x00" * 64)


def _forge_valid_crc(body: bytes) -> bytes:
    """A datagram whose header and CRC are valid over an arbitrary body,
    so decoding reaches the *field readers* — the layer whose hostile
    length-prefix guards these tests pin (the CRC only catches in-flight
    corruption, not a malicious sender who checksums their own junk)."""
    import struct
    import zlib

    from repro.runtime.wire import MAGIC, VERSION

    header = MAGIC + struct.pack(">BBI", VERSION, 0, len(body))
    return header + struct.pack(">I", zlib.crc32(header + body)) + body


@given(claim=st.integers(min_value=0, max_value=0xFFFF))
@settings(max_examples=200)
def test_hostile_string_length_prefix_rejected(claim):
    # The sender node id "peer" is the body's first field: a 1-byte
    # string tag then a u16 length prefix.  Replace the prefix with an
    # arbitrary claim (and re-checksum, as a hostile sender would): any
    # wrong claim must fail fast and typed — an over-long claim would
    # read past the body, a short one desynchronizes every later field.
    import struct

    from repro.runtime.wire import HEADER_SIZE

    body = bytearray(valid_datagram()[HEADER_SIZE:])
    true_len = struct.unpack_from(">H", body, 1)[0]
    if claim == true_len:
        return
    struct.pack_into(">H", body, 1, claim)
    with pytest.raises(WireDecodeError):
        decode_datagram(_forge_valid_crc(bytes(body)))


@given(body=st.binary(max_size=512))
@settings(max_examples=300)
def test_correctly_checksummed_junk_body_never_escapes_typed_error(body):
    # With the CRC neutralized, every interior length/count prefix guard
    # stands alone: arbitrary bodies must either decode (a structurally
    # complete datagram by pure chance) or raise the typed error.
    try:
        decoded = decode_datagram(_forge_valid_crc(body))
    except WireDecodeError:
        return
    assert decoded.packet is not None


# ----------------------------------------------------------------------
# Transport: hostile datagrams are counted and dropped, never raised
# ----------------------------------------------------------------------
def test_transport_counts_drops_by_reason():
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))
    hello = _HelloWrapper(Hello("peer", 1))
    source = ("127.0.0.1", 55_555)

    flipped = bytearray(valid_datagram())
    flipped[-1] ^= 0x01
    transport.datagram_received(bytes(flipped), source)          # corrupted
    transport.datagram_received(b"\x00" * 40, source)            # junk
    transport.datagram_received(
        encode_datagram("peer", "other", hello), source          # misdirected
    )
    transport.datagram_received(
        encode_datagram("mallory", "n", hello), source           # unknown
    )
    assert transport.decode_errors == 2
    assert transport.misdirected == 1
    assert transport.unknown_sender == 1
    assert transport.datagrams_received == 4

    # The valid path still works after the hostile barrage.
    received = []
    transport.receive_channel("peer").on_receive = received.append
    transport.datagram_received(encode_datagram("peer", "n", hello), source)
    assert len(received) == 1


@given(junk=st.binary(max_size=512))
@settings(max_examples=200)
def test_transport_survives_arbitrary_spray(junk):
    transport = AsyncioUdpTransport("n")
    before = transport.decode_errors
    transport.datagram_received(junk, ("127.0.0.1", 1))
    assert transport.decode_errors == before + 1


def test_dispatch_error_hook_swallows_poisoned_handler():
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))
    reported = []
    transport.on_dispatch_error = reported.append
    transport.receive_channel("peer").on_receive = lambda packet: 1 / 0
    transport.datagram_received(
        valid_datagram(), ("127.0.0.1", 55_555)
    )
    assert transport.dispatch_errors == 1
    assert len(reported) == 1
    assert isinstance(reported[0], ZeroDivisionError)


def test_dispatch_error_without_hook_propagates():
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))
    transport.receive_channel("peer").on_receive = lambda packet: 1 / 0
    with pytest.raises(ZeroDivisionError):
        transport.datagram_received(valid_datagram(), ("127.0.0.1", 5))
    assert transport.dispatch_errors == 1


# ----------------------------------------------------------------------
# PoR: hostile sequence numbers are bounded out, not buffered
# ----------------------------------------------------------------------
def test_por_rejects_sequence_numbers_beyond_reorder_horizon():
    sim, end_a, end_b, delivered_b = make_link()
    end_a.send(b"hi", 64)
    sim.run(until=1.0)
    assert delivered_b == [b"hi"]

    window = WINDOW
    expected = end_b._chain.next_seq
    hostile = PorData(
        end_b._rx_epoch, expected + 2**40, b"\x00" * 16, b"evil", 64
    )
    end_b._on_data(hostile)
    assert end_b.out_of_window_dropped == 1
    assert expected + 2**40 not in end_b._reorder

    # Just inside the horizon is still buffered (legitimate reordering).
    ahead = PorData(
        end_b._rx_epoch, expected + window, b"\x00" * 16, b"early", 64
    )
    end_b._on_data(ahead)
    assert end_b.out_of_window_dropped == 1
    assert expected + window in end_b._reorder


# ----------------------------------------------------------------------
# The per-node memo of decoded flooded messages
# ----------------------------------------------------------------------
def flooded(seq=1, payload=b"p" * 48, flooding=True, **fields):
    pki = fields.pop("pki", None)
    message = Message(
        source="src", dest="dst", seq=seq, semantics=Semantics.PRIORITY,
        priority=3, expiration=50.0, size_bytes=len(payload), flooding=flooding,
        paths=None if flooding else (("src", "n", "dst"),), sent_at=1.0,
        payload=payload, **fields,
    )
    return message.sign(pki) if pki is not None else message


def data_datagram(message, seq=0):
    packet = PorData(epoch=1, seq=seq, nonce=bytes(8), payload=message, wire_size=64)
    return encode_datagram("peer", "n", packet)


def payload_section_start(message):
    """Offset of the payload section: it is the datagram's tail."""
    head, body, tail = message._wire_cache
    return len(data_datagram(message)) - len(head) - len(body) - len(tail)


def with_crc(datagram: bytearray) -> bytes:
    """Re-seal a tampered datagram (an on-path attacker can)."""
    datagram[8:12] = zlib.crc32(datagram[12:], zlib.crc32(datagram[:8])).to_bytes(4, "big")
    return bytes(datagram)


def test_memo_hit_returns_the_identical_object_with_its_verdict():
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("src")
    message = flooded(pki=pki)
    memo = MessageMemo()
    # The same payload section arrives over two in-links (different PoR seq).
    first = decode_datagram(data_datagram(message, seq=4), memo).packet.payload
    assert first == message and first is not message
    assert first.verify(pki)
    second = decode_datagram(data_datagram(message, seq=9), memo).packet.payload
    assert second is first
    assert second._verify_cache == (pki, pki.epoch, True)
    # Without a memo (and with a fresh one) the fields are the same.
    assert decode_datagram(data_datagram(message)).packet.payload == first
    assert decode_datagram(data_datagram(message), MessageMemo()).packet.payload == first
    # Identical bytes share one verdict, but a key rotation still re-verifies.
    pki.rotate("src")
    assert not second.verify(pki)


@given(data=st.data())
@settings(max_examples=200)
def test_one_changed_byte_in_the_payload_section_misses_the_memo(data):
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("src")
    message = flooded(pki=pki)
    memo = MessageMemo()
    genuine = decode_datagram(data_datagram(message), memo).packet.payload
    assert genuine.verify(pki)
    tampered = bytearray(data_datagram(message))
    position = data.draw(st.integers(payload_section_start(message), len(tampered) - 1))
    tampered[position] ^= data.draw(st.integers(1, 255))
    try:
        decoded = decode_datagram(with_crc(tampered), memo).packet.payload
    except WireDecodeError:
        return  # no longer well-formed: rejected outright
    assert decoded is not genuine
    assert decoded._verify_cache is None  # starts cold: nothing inherited
    assert not decoded.verify(pki)
    # The genuine copy is still recognised afterwards.
    assert decode_datagram(data_datagram(message), memo).packet.payload == genuine


def _same_crc_payload(message, target_crc):
    """A payload that starts ``EVIL`` where ``message``'s does not, with
    the next four bytes chosen so that the payload section's CRC-32 is
    ``target_crc`` (CRC-32 is affine over GF(2): solve for the 32 free
    bits by elimination)."""
    def section_crc(free4: bytes) -> int:
        candidate = dataclasses.replace(
            message, payload=b"EVIL" + free4 + message.payload[8:]
        )
        datagram = data_datagram(candidate)
        return zlib.crc32(datagram[payload_section_start(candidate):])

    base = section_crc(bytes(4))
    want = target_crc ^ base
    rows = []  # (crc contribution, which free bit) per free bit
    for bit in range(32):
        rows.append((section_crc((1 << bit).to_bytes(4, "big")) ^ base, 1 << bit))
    solution = 0
    for column in range(32):
        mask = 1 << column
        pivot = next(i for i, (value, _) in enumerate(rows) if value & mask)
        value, combo = rows.pop(pivot)
        rows = [(v ^ value, c ^ combo) if v & mask else (v, c) for v, c in rows]
        if want & mask:
            want ^= value
            solution ^= combo
    assert want == 0
    return b"EVIL" + solution.to_bytes(4, "big") + message.payload[8:]


def test_a_checksum_collision_is_not_a_memo_hit():
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("src")
    message = flooded(pki=pki)
    datagram = data_datagram(message)
    key = zlib.crc32(datagram[payload_section_start(message):])
    forged = dataclasses.replace(message, payload=_same_crc_payload(message, key))
    forged_datagram = data_datagram(forged)
    assert forged.payload != message.payload
    assert zlib.crc32(forged_datagram[payload_section_start(forged):]) == key

    memo = MessageMemo()
    genuine = decode_datagram(datagram, memo).packet.payload
    assert genuine.verify(pki)
    decoded = decode_datagram(forged_datagram, memo).packet.payload
    assert decoded is not genuine and decoded == forged
    assert decoded._verify_cache is None
    assert not decoded.verify(pki)
    assert len(memo) == 1  # one key: the newest decode holds it
    again = decode_datagram(datagram, memo).packet.payload
    assert again is not genuine and again == genuine and again.verify(pki)


def test_memo_is_bounded_flooded_only_and_dies_with_the_transport():
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))
    received = []
    transport.receive_channel("peer").on_receive = received.append
    memo = transport._decode_memo
    for seq in range(1, 101):
        transport.datagram_received(data_datagram(flooded(seq)), ("127.0.0.1", 9))
        transport.datagram_received(
            data_datagram(flooded(seq, flooding=False)), ("127.0.0.1", 9)
        )
        assert len(memo) <= MessageMemo.SIZE == 64
    assert [m.seq for m in memo.messages()] == list(range(37, 101))
    assert all(m.flooding for m in memo.messages())
    # A repeat of a memoised flooded message is the same object; a K-paths
    # repeat is decoded afresh.
    transport.datagram_received(data_datagram(flooded(100)), ("127.0.0.1", 9))
    assert received[-1].payload is received[-3].payload
    transport.datagram_received(
        data_datagram(flooded(100, flooding=False)), ("127.0.0.1", 9)
    )
    assert received[-1].payload is not received[-3].payload
    assert received[-1].payload == received[-3].payload
    # Each node owns its memo; a supervised kill (close) empties it.
    assert AsyncioUdpTransport("m")._decode_memo is not memo
    transport.close()
    assert len(memo) == 0
