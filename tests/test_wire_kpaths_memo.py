"""What a node's :class:`MessageMemo` recognises of a K-paths message.

Every message of a flow carries its source's K paths, byte for byte, and
the destination receives K copies of each message.  The memo decodes the
compact paths field once per node and hands the same tuple to every later
message that carries the same bytes; and a K-paths message addressed to
the node over two or more paths is recognised on its later copies, byte
for byte, like a flooded one.  Neither changes a decoded value, and
nothing that differs by a byte is recognised.

The last section drives real overlay nodes over transports on an
in-memory socket (no event loop, no real socket), so the counts it pins
are exact: one cold decode and one signature verification per K=2
message at its destination, and one paths object per flow at a relay.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pki import Pki, PkiMode
from repro.errors import WireDecodeError, WireEncodeError
from repro.messaging.message import Message, Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.node import OverlayNode
from repro.runtime import wire
from repro.runtime.transport import AsyncioUdpTransport
from repro.runtime.wire import MessageMemo, decode_datagram, encode_datagram
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw
from tests.fixtures import connect_por_pair
from tests.test_wire_hostile import (
    _same_crc_payload,
    data_datagram,
    payload_section_start,
    with_crc,
)

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

#: The compact kind of a message's paths field.
PATHS = wire._MESSAGE.kinds[wire._MESSAGE.names.index("paths")]


def kpaths_message(seq=1, paths=(("src", "a", "n"), ("src", "b", "n")), dest="n",
                   pki=None, source="src"):
    fields = dict(
        source=source, dest=dest, seq=seq, semantics=Semantics.PRIORITY, priority=3,
        expiration=50.0, size_bytes=48, flooding=False, paths=paths, sent_at=1.0,
        payload=b"p" * 48,
    )
    return Message.create(pki, **fields) if pki is not None else Message(**fields)


def int_message(seq, paths):
    """A message whose ids are all ints: the compact decode reads it."""
    return kpaths_message(seq, paths, dest=9, source=1)


def typed(value):
    """``value`` with the type of every element, nested: equal only when
    the values and all their element types are equal."""
    if isinstance(value, tuple):
        return (tuple, tuple(typed(item) for item in value))
    return (type(value), value)


def paths_field(paths) -> bytes:
    """The compact bytes of a paths field (its count included)."""
    writer = wire._Writer()
    PATHS.pack(writer, paths)
    return bytes(writer.buf[:writer.pos])


# ----------------------------------------------------------------------
# Shared paths
# ----------------------------------------------------------------------
INT_IDS = st.integers(min_value=1, max_value=4)
STR_IDS = st.sampled_from(["a", "b", "c"])
PATH_SETS = st.one_of(
    st.none(),
    *(
        st.lists(st.lists(ids, min_size=1, max_size=5).map(tuple),
                 min_size=1, max_size=3).map(tuple)
        for ids in (INT_IDS, STR_IDS, st.one_of(INT_IDS, STR_IDS), I64)
    ),
)


@given(sets=st.lists(PATH_SETS, min_size=1, max_size=6), order=st.data())
@settings(max_examples=200)
def test_a_warm_paths_table_decodes_what_a_cold_decode_does(sets, order):
    """Int, str and mixed ids, K=1..3 and None: with the table warm, every
    decode equals a cold one, element types included; one paths object
    per repeated compact field."""
    memo = MessageMemo("n")
    stream = order.draw(st.lists(
        st.tuples(st.sampled_from(sets), st.sampled_from([1, "src"])), min_size=1, max_size=12
    ))
    seen = {}
    for seq, (paths, source) in enumerate(stream):
        datagram = data_datagram(kpaths_message(seq, paths, dest=9, source=source))
        warm = decode_datagram(datagram, memo).packet.payload
        cold = decode_datagram(datagram).packet.payload
        assert typed(warm.paths) == typed(cold.paths) == typed(paths)
        assert warm == cold
        compact = source == 1 and all(type(node) is int for path in paths or () for node in path)
        if paths and compact:
            assert seen.setdefault(paths_field(paths), warm.paths) is warm.paths
        elif paths:  # a general decode: the fields as they are
            assert warm.paths is not cold.paths
    assert not memo._by_checksum  # a relay memoises no K-paths message


def test_look_alike_ids_never_reach_the_table():
    """``(True, 2)`` and ``(1.0, 2)`` equal ``(1, 2)`` as keys, but they
    have no wire form, so the table only ever holds decoded ints."""
    memo = MessageMemo("n")
    genuine = decode_datagram(data_datagram(int_message(1, ((1, 2),))), memo)
    for look_alike in (((True, 2),), ((1.0, 2),)):
        with pytest.raises(WireEncodeError):
            data_datagram(int_message(1, look_alike))
    again = decode_datagram(data_datagram(int_message(2, ((1, 2),))), memo)
    assert again.packet.payload.paths is genuine.packet.payload.paths
    assert typed(again.packet.payload.paths) == typed(((1, 2),))
    assert list(memo._paths.values()) == [((1, 2),)]


@given(data=st.data())
@settings(max_examples=200)
def test_a_byte_flipped_in_the_paths_field_never_returns_another_flows_paths(data):
    flows = (((1, 2, 3, 4), (1, 5, 6, 4)), ((1, 2, 7, 4), (1, 8, 6, 4)))
    memo = MessageMemo("n")
    shared = [decode_datagram(data_datagram(int_message(1, paths)), memo)
              .packet.payload.paths for paths in flows]
    datagram = bytearray(data_datagram(int_message(2, flows[0])))
    start = bytes(datagram).index(paths_field(flows[0]))
    position = data.draw(st.integers(start, start + len(paths_field(flows[0])) - 1))
    datagram[position] ^= data.draw(st.integers(1, 255))
    tampered = with_crc(datagram)
    try:
        cold = decode_datagram(tampered).packet.payload
    except WireDecodeError:
        with pytest.raises(WireDecodeError):
            decode_datagram(tampered, memo)
        return
    warm = decode_datagram(tampered, memo).packet.payload
    assert typed(warm.paths) == typed(cold.paths)
    assert all(warm.paths is not paths for paths in shared)


def test_the_paths_table_is_bounded_and_dies_with_the_transport():
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))
    transport._inbound["peer"].on_receive = lambda packet: None
    memo = transport._decode_memo
    extra = 10
    for seq in range(MessageMemo.PATHS_SIZE + extra):
        paths = ((1, seq + 10, 2),)
        transport.datagram_received(
            data_datagram(int_message(seq, paths)), ("127.0.0.1", 9)
        )
        assert len(memo._paths) <= MessageMemo.PATHS_SIZE == 128
    # Oldest first out: the newest PATHS_SIZE path sets are the ones kept.
    assert [paths[0][1] for paths in memo._paths.values()] == list(
        range(extra + 10, MessageMemo.PATHS_SIZE + extra + 10)
    )
    transport.close()
    assert not memo._paths


# ----------------------------------------------------------------------
# The destination's later copies
# ----------------------------------------------------------------------
def signing_pki():
    pki = Pki(mode=PkiMode.SIMULATED, seed=0, rsa_bits=256)
    pki.register("src")
    return pki


def test_a_later_copy_for_this_node_is_the_identical_object_with_its_verdict():
    pki = signing_pki()
    message = kpaths_message(pki=pki)
    memo = MessageMemo("n")
    # The copies arrive over two in-links, under different PoR seqs.
    first = decode_datagram(data_datagram(message, seq=4), memo).packet.payload
    assert first == message and first is not message
    assert first.verify(pki)
    second = decode_datagram(data_datagram(message, seq=9), memo).packet.payload
    assert second is first
    assert second._verify_cache == (pki, pki.epoch, True)
    pki.rotate("src")
    assert not second.verify(pki)


@pytest.mark.parametrize("dest, paths", [
    ("n", (("src", "n"),)),                      # K=1 for this node
    ("other", (("src", "n", "other"), ("src", "b", "other"))),  # K=2 via it
    ("n", ()),
])
def test_k1_messages_and_messages_for_other_nodes_are_never_memoised(dest, paths):
    memo = MessageMemo("n")
    message = kpaths_message(paths=paths, dest=dest)
    first = decode_datagram(data_datagram(message, seq=1), memo).packet.payload
    second = decode_datagram(data_datagram(message, seq=2), memo).packet.payload
    assert second == first and second is not first
    assert not memo._by_checksum and not memo._copies_left


def test_a_memo_without_a_node_memoises_no_k_paths_message():
    memo = MessageMemo()
    message = kpaths_message()
    decode_datagram(data_datagram(message), memo)
    assert not memo._by_checksum


@pytest.mark.parametrize("k", [2, 3])
def test_the_entry_is_gone_after_its_len_paths_minus_one_hits(k):
    paths = tuple(("src", hop, "n") for hop in "abc"[:k])
    message = kpaths_message(paths=paths)
    memo = MessageMemo("n")
    first = decode_datagram(data_datagram(message, seq=0), memo).packet.payload
    assert memo._copies_left == {next(iter(memo._by_checksum)): k - 1}
    for seq in range(1, k):
        assert decode_datagram(data_datagram(message, seq=seq), memo).packet.payload is first
    assert not memo._by_checksum and not memo._copies_left
    extra = decode_datagram(data_datagram(message, seq=k), memo).packet.payload
    assert extra == first and extra is not first


def test_evicting_a_destination_entry_forgets_its_copy_count():
    memo = MessageMemo("n")
    decode_datagram(data_datagram(kpaths_message(seq=0)), memo)
    for seq in range(1, MessageMemo.SIZE + 1):
        decode_datagram(data_datagram(kpaths_message(seq=seq)), memo)
    assert len(memo._by_checksum) == MessageMemo.SIZE
    assert memo._copies_left.keys() == memo._by_checksum.keys()


@given(data=st.data())
@settings(max_examples=200)
def test_one_changed_byte_in_a_later_copy_misses_the_memo(data):
    pki = signing_pki()
    message = kpaths_message(pki=pki)
    memo = MessageMemo("n")
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
    # The genuine copy is still recognised afterwards.
    assert decode_datagram(data_datagram(message), memo).packet.payload is genuine


def test_a_checksum_collision_is_not_a_hit_for_a_later_copy():
    pki = signing_pki()
    message = kpaths_message(pki=pki)
    datagram = data_datagram(message)
    forged = dataclasses.replace(
        message, payload=_same_crc_payload(message, _section_crc(message, datagram))
    )
    forged_datagram = data_datagram(forged)
    assert _section_crc(forged, forged_datagram) == _section_crc(message, datagram)
    memo = MessageMemo("n")
    genuine = decode_datagram(datagram, memo).packet.payload
    assert genuine.verify(pki)
    decoded = decode_datagram(forged_datagram, memo).packet.payload
    assert decoded is not genuine and decoded == forged
    assert decoded._verify_cache is None
    assert not decoded.verify(pki)


def test_a_real_mode_message_is_decoded_in_one_pass(monkeypatch):
    """A ``bytes`` signature has a compact form: a REAL-mode K=2 message
    is read once, its paths through the node's table, and the next
    message of the flow shares the same paths object."""
    pki = Pki(mode=PkiMode.REAL, seed=0, rsa_bits=256)
    for node in (1, 2, 3, 9):
        pki.register(node)
    passes = {"paths": 0, "general": 0}
    unpack_blocks, read = wire._Seq._unpack_blocks, wire._Record.read

    def counted_unpack_blocks(kind, reader, pos, count):
        passes["paths"] += 1
        return unpack_blocks(kind, reader, pos, count)

    def counted_read(record, reader):
        if record is wire._MESSAGE:
            passes["general"] += 1
        return read(record, reader)

    monkeypatch.setattr(wire._Seq, "_unpack_blocks", counted_unpack_blocks)
    monkeypatch.setattr(wire._Record, "read", counted_read)
    memo = MessageMemo(5)  # a relay
    paths = ((1, 2, 9), (1, 3, 9))
    first = kpaths_message(1, paths, dest=9, pki=pki, source=1)
    assert isinstance(first.signature, bytes)
    decoded = decode_datagram(data_datagram(first), memo).packet.payload
    assert passes == {"paths": 1, "general": 0}
    assert decoded == first and decoded.verify(pki)
    assert list(memo._paths.values()) == [paths]
    assert decoded.paths is next(iter(memo._paths.values()))
    second = decode_datagram(data_datagram(kpaths_message(2, paths, dest=9, pki=pki, source=1)),
                             memo).packet.payload
    assert passes == {"paths": 2, "general": 0}
    assert second.paths is decoded.paths and second.verify(pki)


def _section_crc(message, datagram):
    return zlib.crc32(datagram[payload_section_start(message):])


def test_a_real_mode_hit_still_passes_the_por_mac_check():
    """REAL crypto: the later copy, on its own PoR seq and MAC, is the
    identical object and its link MAC verifies."""
    sim = Simulator(seed=0)
    pki = Pki(mode=PkiMode.REAL, seed=0, rsa_bits=256)
    for node in ("src", "a", "n"):
        pki.register(node)
    config = ChannelConfig(latency=0.01)
    a_to_n, n_to_a = Channel(sim, config, name="a->n"), Channel(sim, config, name="n->a")
    end_a, end_n = connect_por_pair(sim, "a", "n", a_to_n, n_to_a, pki)
    memo = MessageMemo("n")
    deliver = a_to_n.on_receive
    a_to_n.on_receive = lambda packet: deliver(
        decode_datagram(encode_datagram("a", "n", packet), memo).packet
    )
    delivered = []
    end_n.on_deliver = lambda payload, size: delivered.append(payload)
    message = kpaths_message(pki=pki)
    assert isinstance(message.signature, bytes)
    end_a.send(message, 64)
    end_a.send(message, 64)
    sim.run(until=1.0)
    assert len(delivered) == 2 and delivered[1] is delivered[0]
    assert delivered[0] == message and delivered[0].verify(pki)
    assert end_n.macs_rejected == 0


# ----------------------------------------------------------------------
# Exact counts on real nodes over in-memory sockets
# ----------------------------------------------------------------------
class _Wire:
    """Every node's socket: ``sendto`` queues the datagram, :meth:`run`
    hands each to the addressed node's ``datagram_received`` in order."""

    def __init__(self):
        self.queue = []
        self.transports = {}

    def socket(self, node):
        wire_ = self

        class Socket:
            def sendto(self, data, address):
                wire_.queue.append((node, address, bytes(data)))

            def close(self):
                pass

        return Socket()

    def run(self):
        while self.queue:
            node, address, data = self.queue.pop(0)
            self.transports[address[1]].datagram_received(data, ("127.0.0.1", node))


def diamond():
    """``1 - 2 - 4`` and ``1 - 3 - 4``, running nodes over :class:`_Wire`;
    node 1 sends to node 4 over K=2 node-disjoint paths.  Each node has its
    own PKI object (the same keys), as each site of a deployment does."""
    topology = Topology()
    for a, b in ((1, 2), (2, 4), (1, 3), (3, 4)):
        topology.add_edge(a, b, 0.001)
    sim = Simulator(seed=0)
    pkis = {}
    for node in sorted(topology.nodes):
        pkis[node] = Pki(mode=PkiMode.SIMULATED, seed=0)
        for member in sorted(topology.nodes):
            pkis[node].register(member)
    mtmw = Mtmw.create(topology, pkis[1])
    net = _Wire()
    nodes = {}
    for node in sorted(topology.nodes):
        stats = StatsRegistry(sim)
        transport = AsyncioUdpTransport(node, metrics=stats)
        transport._transport = net.socket(node)  # no loop: sends leave at once
        overlay = OverlayNode(sim, node, mtmw, pkis[node], OverlayConfig(), stats)
        transport.on_wakeup_start = overlay.begin_wakeup
        transport.on_wakeup_end = overlay.end_wakeup
        net.transports[node] = transport
        nodes[node] = overlay
    for a, b in topology.edges():
        for local, remote in ((a, b), (b, a)):
            transport = net.transports[local]
            rx = transport.register_peer(remote, ("127.0.0.1", remote))
            link = nodes[local].connect(remote, transport.send_channel(remote), rx)
            rx.on_datagram_start = link.por.begin_datagram
            rx.on_datagram_end = link.por.end_datagram
    return net, nodes


def test_a_k2_message_is_decoded_and_verified_once_at_its_destination(monkeypatch):
    net, nodes = diamond()
    node_of = {id(net.transports[node]._decode_memo): node for node in nodes}
    node_of.update({id(overlay.pki): node for node, overlay in nodes.items()})
    decodes = dict.fromkeys(nodes, 0)
    verifies = dict.fromkeys(nodes, 0)
    relay_paths = []
    decode = wire._Record.decode

    def counted_decode(record, reader):
        message = decode(record, reader)
        if record is wire._MESSAGE:
            node = node_of[id(reader.memo)]
            decodes[node] += 1
            if node == 2:
                relay_paths.append(message.paths)
        return message

    verify = Pki.verify

    def counted_verify(pki, signer, fields, signature):
        verifies[node_of[id(pki)]] += 1
        return verify(pki, signer, fields, signature)

    monkeypatch.setattr(wire._Record, "decode", counted_decode)
    monkeypatch.setattr(Pki, "verify", counted_verify)
    delivered = []
    nodes[4].on_deliver = delivered.append
    messages = 3
    for _ in range(messages):
        sent = nodes[1].send_priority(4, size_bytes=100, payload=b"x" * 100,
                                      method=DisseminationMethod.k_paths(2))
        assert sent.paths == ((1, 2, 4), (1, 3, 4))
        net.run()
    assert [message.seq for message in delivered] == [1, 2, 3]
    # Each relay decodes and verifies its copy; the destination its first
    # copy only, the second comes from its memo with the verdict.
    assert decodes == {1: 0, 2: messages, 3: messages, 4: messages}
    assert verifies == {1: 0, 2: messages, 3: messages, 4: messages}
    # A relay decodes a flow's paths into one object.
    assert len(relay_paths) == messages
    assert all(paths is relay_paths[0] for paths in relay_paths)
