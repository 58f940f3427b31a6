"""Batched wire-path tests: the batch container codec and the batched
UDP send path.

The batch container (``FLAG_BATCH``) is the unit of the zero-copy live
transport: several link envelopes ride one datagram, so ACKs piggyback
with data and one socket wakeup moves a whole burst.  These tests pin:

* **Round trip** — ``decode(encode_batch(xs))`` reproduces every frame,
  in order, for arbitrary encodable envelopes (Hypothesis);
* **Degeneration** — a 1-frame batch is byte-identical to the classic
  layout, so batching never changes unbatched bytes on the wire;
* **Robustness** — truncation, bit flips, hostile frame counts, and
  hostile frame-length prefixes are all rejected with the typed
  :class:`WireDecodeError`, fast, and without attacker-sized allocation;
* **Send path** — a failed ``sendto`` is retried once and then counted
  as a drop, on the transport and on the originating channel, and the
  send channel's coalesced flush degrades per-packet when a batch cannot
  be encoded.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.simulated import SimulatedSignature
from repro.errors import WireDecodeError, WireEncodeError
from repro.link.por import PorData, _HelloWrapper
from repro.messaging.message import E2eAck, Hello, Message, NeighborAck, Semantics
from repro.routing.link_state import LinkStateUpdate
from repro.runtime.transport import AsyncioUdpTransport, UdpSendChannel
from repro.runtime.wire import (
    FLAG_BATCH,
    HEADER_SIZE,
    MAGIC,
    MAX_BODY,
    VERSION,
    decode_datagram,
    encode_batch_datagram,
    encode_datagram,
    split_batch,
)
from tests.test_runtime_wire import ENVELOPES, assert_packets_equal

# ----------------------------------------------------------------------
# Batch codec: round trip and degeneration
# ----------------------------------------------------------------------
@given(packets=st.lists(ENVELOPES, min_size=1, max_size=6))
@settings(max_examples=100)
def test_batch_round_trip(packets):
    datagram = decode_datagram(encode_batch_datagram("a", "b", packets))
    assert datagram.sender == "a"
    assert datagram.receiver == "b"
    frames = datagram.packets
    assert len(frames) == len(packets)
    for original, decoded in zip(packets, frames):
        assert_packets_equal(original, decoded)
    assert datagram.packet is frames[0]


def test_single_frame_batch_is_byte_identical_to_classic():
    packet = _HelloWrapper(Hello("a", 7))
    assert encode_batch_datagram("a", "b", [packet]) == encode_datagram(
        "a", "b", packet
    )


def test_empty_batch_rejected():
    with pytest.raises(WireEncodeError, match="empty"):
        encode_batch_datagram("a", "b", [])


# ----------------------------------------------------------------------
# Batch robustness: truncation, corruption, hostile internals
# ----------------------------------------------------------------------
def _two_frame_batch() -> bytes:
    return encode_batch_datagram(
        "a", "b", [_HelloWrapper(Hello("a", 1)), _HelloWrapper(Hello("a", 2))]
    )


@given(cut=st.integers(min_value=0, max_value=400))
@settings(max_examples=100)
def test_batch_truncation_rejected(cut):
    encoded = _two_frame_batch()
    truncated = encoded[: min(cut, len(encoded) - 1)]
    with pytest.raises(WireDecodeError):
        decode_datagram(truncated)


@given(data=st.data())
@settings(max_examples=200)
def test_batch_single_bit_flip_rejected(data):
    encoded = bytearray(_two_frame_batch())
    position = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    encoded[position] ^= 1 << bit
    with pytest.raises(WireDecodeError):
        decode_datagram(bytes(encoded))


def _forge(body: bytes, flags: int = FLAG_BATCH) -> bytes:
    """A datagram with a *valid* header and CRC over an arbitrary body,
    so decoding exercises the body parser rather than the checksum."""
    header = MAGIC + struct.pack(">BBI", VERSION, flags, len(body))
    return header + struct.pack(">I", zlib.crc32(header + body)) + body


def _batch_count_offset() -> int:
    """Byte offset of the u16 frame count inside a batch body for the
    sender/receiver pair ("a", "b"), derived from the wire layouts:
    classic body = prefix + envelope; batch body = prefix + 2 + 2*(4 +
    envelope)."""
    packet = _HelloWrapper(Hello("a", 1))
    classic_body = len(encode_datagram("a", "b", packet)) - HEADER_SIZE
    batch_body = len(encode_batch_datagram("a", "b", [packet, packet])) - HEADER_SIZE
    envelope = batch_body - classic_body - 10
    return classic_body - envelope


def test_batch_count_offset_derivation():
    body = bytearray(_two_frame_batch()[HEADER_SIZE:])
    assert struct.unpack_from(">H", body, _batch_count_offset())[0] == 2


def test_zero_frame_count_rejected():
    body = bytearray(_two_frame_batch()[HEADER_SIZE:])
    struct.pack_into(">H", body, _batch_count_offset(), 0)
    with pytest.raises(WireDecodeError, match="empty batch"):
        decode_datagram(_forge(bytes(body)))


def test_hostile_frame_count_fails_fast_without_allocation():
    # Claim 65535 frames in a body that holds two: the per-frame budget
    # check must reject before any frame-sized work happens.
    body = bytearray(_two_frame_batch()[HEADER_SIZE:])
    struct.pack_into(">H", body, _batch_count_offset(), 0xFFFF)
    with pytest.raises(WireDecodeError):
        decode_datagram(_forge(bytes(body)))


@given(claim=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_hostile_frame_length_prefix_rejected(claim):
    # Overwrite the first frame's u32 length with an arbitrary claim;
    # anything but the true length must be the typed error (an over-long
    # claim overruns the body; a short one leaves trailing bytes).
    body = bytearray(_two_frame_batch()[HEADER_SIZE:])
    offset = _batch_count_offset() + 2
    true_len = struct.unpack_from(">I", body, offset)[0]
    if claim == true_len:
        return
    struct.pack_into(">I", body, offset, claim)
    with pytest.raises(WireDecodeError):
        decode_datagram(_forge(bytes(body)))


# ----------------------------------------------------------------------
# Transport: retry/drop accounting, the coalesced channel flush
# ----------------------------------------------------------------------
class _FakeAsyncioTransport:
    """Stands in for asyncio's DatagramTransport: records sends, fails
    the first ``fail_first`` of them with OSError."""

    def __init__(self, fail_first: int = 0):
        self.sent = []
        self.fail_first = fail_first

    def sendto(self, data, address):
        if self.fail_first > 0:
            self.fail_first -= 1
            raise OSError("ENOBUFS")
        self.sent.append((bytes(data), address))


class _FakeLoop:
    """Records call_soon/call_later callbacks so tests fire flushes and
    retries explicitly."""

    def __init__(self):
        self.pending = []

    def call_soon(self, callback, *args):
        self.pending.append((0.0, callback, args))

    def call_later(self, delay, callback, *args):
        self.pending.append((delay, callback, args))

    def fire_all(self):
        pending, self.pending = self.pending, []
        for _, callback, args in pending:
            callback(*args)


def _wired_transport(fail_first=0):
    transport = AsyncioUdpTransport("n")
    transport._transport = _FakeAsyncioTransport(fail_first=fail_first)
    transport._loop = _FakeLoop()
    transport.register_peer("peer", ("127.0.0.1", 9))
    return transport


def test_send_retry_then_drop_is_accounted_on_transport_and_channel():
    transport = _wired_transport(fail_first=2)
    channel = UdpSendChannel(transport, "peer")
    transport.sendto("peer", b"payload", channel=channel)
    assert transport.send_errors == 1
    assert len(transport._loop.pending) == 1
    assert transport.send_drops == 0  # not lost yet: a retry is queued
    transport._loop.fire_all()
    assert transport.send_retries == 1
    assert channel.send_retries == 1
    # The retry failed too: the loss is definitive, on both ledgers.
    assert transport.send_errors == 2
    assert transport.send_drops == 1
    assert channel.send_drops == 1


def test_send_retry_success_is_not_a_drop():
    transport = _wired_transport(fail_first=1)
    channel = UdpSendChannel(transport, "peer")
    transport.sendto("peer", b"payload", channel=channel)
    transport._loop.fire_all()
    assert transport.send_retries == 1
    assert channel.send_retries == 1
    assert transport.send_drops == 0
    assert channel.send_drops == 0
    assert transport._transport.sent == [(b"payload", ("127.0.0.1", 9))]


def test_channel_batch_with_unencodable_packet_degrades_per_packet():
    transport = _wired_transport()
    channel = UdpSendChannel(transport, "peer")
    good = _HelloWrapper(Hello("n", 1))
    for packet in (good, object(), good):
        channel.send(packet, 64)
    transport._loop.fire_all()  # the coalesced flush
    # The poisoned batch container fell back to classic datagrams: both
    # good packets made it out, the bad one is counted, nothing raised.
    assert channel.encode_errors == 1
    assert transport.encode_errors == 1
    assert len(transport._transport.sent) == 2
    for data, _ in transport._transport.sent:
        assert_packets_equal(decode_datagram(data).packet, good)


def _message(**fields):
    base = dict(source=1, dest=2, seq=1, semantics=Semantics.PRIORITY,
                signature=SimulatedSignature(1, 5))
    base.update(fields)
    return Message(**base)


WRONGLY_TYPED = {
    "sent_at": _message(sent_at=None),
    "expiration": _message(expiration="soon"),
    "size_bytes": _message(size_bytes=None),
    "weight": LinkStateUpdate(1, 1, 2, None, 1),
    "str_id": _message(source="\ud800"),
    # The ACK shapes' text fields keep the contract on either path.
    "e2e_ack_surrogate_source": E2eAck(9, 1, (("\ud800", 1),), SimulatedSignature(9, 1)),
    "e2e_ack_int_source": E2eAck(9, 1, ((5, 1),), SimulatedSignature(9, 1)),
    "neighbor_ack_surrogate_source": NeighborAck(5, ((("\ud800", "9"), 1, 2),)),
    "neighbor_ack_int_dest": NeighborAck(5, ((("3", 9), 1, 2),)),
}


@pytest.mark.parametrize("payload", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED)
def test_channel_flush_keeps_the_good_frames_beside_a_wrongly_typed_one(payload):
    """The flush empties its queue before encoding and catches only
    WireEncodeError: a wrongly typed field must surface as one, so the
    healthy frames queued beside it still leave."""
    transport = _wired_transport()
    channel = UdpSendChannel(transport, "peer")
    good = _HelloWrapper(Hello("n", 1))
    bad = PorData(epoch=1, seq=1, nonce=bytes(8), payload=payload, wire_size=64)
    for packet in (good, bad, good):
        channel.send(packet, 64)
    transport._loop.fire_all()  # the coalesced flush
    assert channel.encode_errors == 1
    assert len(transport._transport.sent) == 2
    for data, _ in transport._transport.sent:
        assert_packets_equal(decode_datagram(data).packet, good)


def test_channel_batch_counts_one_datagram_for_many_packets():
    transport = _wired_transport()
    channel = UdpSendChannel(transport, "peer")
    for stamp in range(5):
        channel.send(_HelloWrapper(Hello("n", stamp)), 64)
    transport._loop.fire_all()  # the coalesced flush
    assert channel.packets_sent == 5
    assert channel.datagrams_sent == 1
    assert len(transport._transport.sent) == 1
    data, _ = transport._transport.sent[0]
    assert len(decode_datagram(data).packets) == 5


def test_channel_splits_an_oversized_queue_into_the_fewest_containers():
    """80 frames of 1 KB overflow one container (MAX_BODY): they leave as
    the fewest containers that fit, not as 80 classic datagrams."""
    transport = _wired_transport()
    channel = UdpSendChannel(transport, "peer")
    sent = []
    for seq in range(80):
        message = Message(source=1, dest=2, seq=seq, semantics=Semantics.PRIORITY,
                          payload=bytes([seq]) * 1000,
                          signature=SimulatedSignature(signer=1, tag=seq))
        packet = PorData(epoch=1, seq=seq, nonce=bytes(8), payload=message, wire_size=1064)
        sent.append(packet)
        channel.send(packet, 1064)
    transport._loop.fire_all()  # the coalesced flush
    datagrams = [data for data, _ in transport._transport.sent]
    assert channel.encode_errors == 0
    assert channel.packets_sent == 80
    assert channel.datagrams_sent == len(datagrams) == 2
    assert channel.bytes_sent == sum(map(len, datagrams))
    assert all(len(data) - HEADER_SIZE <= MAX_BODY for data in datagrams)
    frames = [frame for data in datagrams for frame in decode_datagram(data).packets]
    assert [frame.seq for frame in frames] == list(range(80))
    for got, want in zip(frames, sent):
        assert_packets_equal(got, want)


def test_split_batch_keeps_order_and_fills_each_container():
    packets = [
        PorData(epoch=1, seq=seq, nonce=bytes(8),
                payload=Message(source=1, dest=2, seq=seq, semantics=Semantics.PRIORITY,
                                payload=b"x" * size),
                wire_size=64)
        for seq, size in enumerate([30_000, 20_000, 9_000, 40_000, 100, 100, 59_000])
    ]
    runs = split_batch(1, 2, packets)
    assert [[packet.seq for packet in run] for run in runs] == [[0, 1, 2], [3, 4, 5], [6]]
    for run in runs:
        if len(run) > 1:
            encode_batch_datagram(1, 2, run)  # fits
    with pytest.raises(WireEncodeError):
        encode_batch_datagram(1, 2, runs[0] + runs[1][:1])
    with pytest.raises(WireEncodeError):
        split_batch(1, 2, packets[:2] + [object()])
