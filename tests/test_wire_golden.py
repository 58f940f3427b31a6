"""The wire bytes, pinned: a fixed corpus and the datagrams it encodes to.

``tests/data/wire_golden_parent.json`` holds, for every corpus entry, the
hex datagram the codec produced before its heads were compiled into
``struct`` layouts.  The encoder must reproduce each entry byte for byte,
and decoding each entry must give back an equal object with an equal
``_wire_cache``.  Any change to the bytes therefore fails here unless it
comes with a ``VERSION`` bump and a regenerated file.

The corpus covers every envelope and payload type; int and str node ids;
expiration set and unset; flooding and K = 1..4 paths (and one path
longer than any compiled hop layout); ``None``, ``bytes`` and ``str``
application payloads; ``None``, SIMULATED, ``bytes`` and int signatures;
a ``PorAck`` with a NACK list; and batch containers.

Regenerate (only together with a ``VERSION`` bump)::

    PYTHONPATH=src:. python tests/test_wire_golden.py > tests/data/wire_golden_parent.json
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib
import sys
from typing import Any, List, Tuple

import pytest

from repro.crypto.simulated import SimulatedSignature
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
    VERSION,
    AddrAnnounce,
    AddrQuery,
    AddrReply,
    decode_datagram,
    encode_batch_datagram,
    encode_datagram,
)
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw

GOLDEN = pathlib.Path(__file__).parent / "data" / "wire_golden_parent.json"

NONCE = bytes(range(8))
PROOF = bytes(range(100, 116))


def _sim(signer: Any, tag: int = 0x1234_5678_9ABC) -> SimulatedSignature:
    return SimulatedSignature(signer=signer, tag=tag)


def _message(**fields: Any) -> Message:
    base = dict(
        source=3, dest=9, seq=41, semantics=Semantics.PRIORITY, priority=5,
        expiration=None, size_bytes=882, flooding=True, paths=None,
        sent_at=17.25, payload=None, signature=_sim(3),
    )
    base.update(fields)
    return Message(**base)


def _data(payload: Any, seq: int = 7, nonce: bytes = NONCE, mac: Any = None) -> PorData:
    packet = PorData(epoch=2, seq=seq, nonce=nonce, payload=payload, wire_size=946)
    packet.mac = mac
    return packet


def _ack(missing: Tuple[int, ...] = (), proof: bytes = PROOF, mac: Any = None) -> PorAck:
    packet = PorAck(epoch=2, cum_seq=40, proof=proof, missing=missing)
    packet.mac = mac
    return packet


def _mtmw() -> Mtmw:
    topology = Topology()
    for node in (1, 2, 3):
        topology.add_node(node)
    topology.add_edge(1, 2, 10.0)
    topology.add_edge(2, 3, 12.5)
    return Mtmw(topology, 4, b"admin-signature")


def corpus() -> List[Tuple[str, Any, Any, List[Any]]]:
    """``(name, sender, receiver, packets)`` per entry; fresh objects on
    every call, so each entry starts with cold caches."""
    k_paths = {
        1: ((3, 5, 9),),
        2: ((3, 5, 9), (3, 6, 7, 9)),
        3: ((3, 5, 9), (3, 6, 7, 9), (3, 1, 2, 4, 9)),
        4: ((3, 5, 9), (3, 6, 7, 9), (3, 1, 2, 4, 9), (3, 9)),
    }
    entries: List[Tuple[str, Any, Any, List[Any]]] = [
        ("message/int/flood/no-exp/none/sim", 3, 5, [_data(_message())]),
        ("message/int/flood/exp/bytes/sim", 3, 5,
         [_data(_message(expiration=19.5, payload=b"x" * 40))]),
        ("message/int/flood/exp/empty-bytes/sim", 3, 5,
         [_data(_message(expiration=0.0, payload=b""))]),
        ("message/int/reliable/bytes/sim", 3, 5,
         [_data(_message(semantics=Semantics.RELIABLE, payload=b"reliable"))]),
        ("message/int/negative-ids", -3, -5,
         [_data(_message(source=-3, dest=-(2**63), seq=-1, signature=_sim(-3, -7)))]),
        ("message/int/no-paths", 3, 5, [_data(_message(flooding=False, paths=()))]),
        ("message/int/long-path", 3, 5,
         [_data(_message(flooding=False, paths=(tuple(range(1, 41)),)))]),
        ("message/str/flood/str-payload/sim", "a", "b",
         [_data(_message(source="a", dest="b", payload="text", signature=_sim("a")))]),
        ("message/str/k2/bytes/sim", "a", "b",
         [_data(_message(source="a", dest="b", flooding=False,
                         paths=(("a", "c", "b"), ("a", "d", "b")),
                         payload=b"p" * 12, signature=_sim("a")))]),
        ("message/mixed-hops", 3, 5,
         [_data(_message(flooding=False, paths=((3, "x", 9),)))]),
        ("message/sig/none", 3, 5, [_data(_message(signature=None))]),
        ("message/sig/bytes", 3, 5, [_data(_message(signature=b"rsa" * 8))]),
        ("message/sig/int", 3, 5, [_data(_message(signature=-99))]),
        ("e2e-ack/int/sim", 9, 5,
         [_data(E2eAck(9, 12, (("1", 40), ("3", 7)), _sim(9)))]),
        ("e2e-ack/int/empty", 9, 5, [_data(E2eAck(9, 0, (), _sim(9)))]),
        ("e2e-ack/str/bytes-sig", "b", "a",
         [_data(E2eAck("b", 3, (("a", 1),), b"sig"))]),
        ("e2e-ack/int/none-sig", 9, 5, [_data(E2eAck(9, 1, (("é", 2),)))]),
        ("neighbor-ack/int", 5, 3,
         [_data(NeighborAck(5, ((("3", "9"), 40, 72), (("1", "9"), 2, 34))))]),
        ("neighbor-ack/int/empty", 5, 3, [_data(NeighborAck(5, ()))]),
        ("neighbor-ack/str", "b", "a", [_data(NeighborAck("b", ((("a", "b"), 1, 2),)))]),
        ("link-state", 1, 2, [_data(LinkStateUpdate(1, 1, 2, 10.5, 3, _sim(1)))]),
        ("state-request", 1, 2, [_data(StateRequest(1))]),
        ("hello-payload", "a", "b", [_data(Hello("a", 5))]),
        ("mtmw", 1, 2, [_data(_mtmw())]),
        ("admission-nack", 1, 2,
         [_data(AdmissionNack(1, 2, "sessions:1/s0", "sessions:1/s0#4", "expired", 4))]),
        ("por-data/mac-bytes", 3, 5, [_data(_message(), mac=b"m" * 32)]),
        ("por-data/mac-int", 3, 5, [_data(_message(), mac=77)]),
        ("por-data/long-nonce", 3, 5, [_data(_message(), nonce=bytes(16))]),
        ("por-data/empty-nonce", 3, 5, [_data(_message(), nonce=b"")]),
        ("por-ack", 5, 3, [_ack()]),
        ("por-ack/missing", 5, 3, [_ack(missing=(42, 44, 45))]),
        ("por-ack/mac", 5, 3, [_ack(mac=b"t" * 32)]),
        ("por-ack/short-proof", 5, 3, [_ack(proof=b"short")]),
        ("handshake", "a", "b", [PorHandshake("a", b"dh" * 16, b"sig")]),
        ("hello-envelope", 1, 2, [_HelloWrapper(Hello(1, 9))]),
        ("addr-query", "a", "seed", [AddrQuery("a", 5, ("b", 7))]),
        ("addr-reply", "seed", "a", [AddrReply(5, (("b", "127.0.0.1", 4000), (7, "::1", 1)))]),
        ("addr-announce", "a", "seed", [AddrAnnounce("a", "127.0.0.1", 4001)]),
        ("batch/mixed", 3, 5, [
            _data(_message(payload=b"y" * 30), seq=8),
            _ack(),
            _data(E2eAck(9, 12, (("3", 7),), _sim(9)), seq=9),
            _data(NeighborAck(5, ((("3", "9"), 40, 72),)), seq=10),
            _HelloWrapper(Hello(3, 2)),
            _ack(missing=(50,)),
        ]),
        ("batch/k-paths", 3, 5, [
            _data(_message(seq=seq, flooding=False, paths=k_paths[k], expiration=30.0,
                           payload=bytes([seq]) * 16), seq=seq)
            for seq, k in ((11, 1), (12, 2), (13, 3), (14, 4))
        ]),
        ("batch/str-and-macs", "a", "b", [
            _data(_message(source="a", dest="b", payload="t", signature=_sim("a")),
                  mac=b"m" * 32),
            _ack(mac=5),
        ]),
    ]
    for k, paths in k_paths.items():
        entries.append((
            f"message/int/k{k}/exp/bytes/sim", 3, 5,
            [_data(_message(flooding=False, paths=paths, expiration=30.0,
                            payload=b"k" * k))],
        ))
    return entries


def encode(sender: Any, receiver: Any, packets: List[Any]) -> bytes:
    if len(packets) == 1:
        return encode_datagram(sender, receiver, packets[0])
    return encode_batch_datagram(sender, receiver, packets)


def _fields(obj: Any) -> Any:
    """A comparable view of a decoded object: every field, typed, and
    every ``_wire_cache`` the object carries."""
    if isinstance(obj, (str, bytes, int, float)) or obj is None:
        return (type(obj).__name__, obj)
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if isinstance(obj, tuple):
        return tuple(_fields(item) for item in obj)
    if isinstance(obj, Mtmw):
        topology = obj.topology
        return ("Mtmw", obj.seqno, _fields(obj.signature),
                sorted(map(repr, topology.nodes)),
                sorted(repr((a, b, topology.weight(a, b))) for a, b in topology.edges()))
    if dataclasses.is_dataclass(obj):
        values = [(f.name, _fields(getattr(obj, f.name))) for f in dataclasses.fields(obj)
                  if f.compare]
        return (type(obj).__name__, values, getattr(obj, "_wire_cache", None))
    slots = getattr(type(obj), "__slots__", ())
    return (type(obj).__name__, [(name, _fields(getattr(obj, name))) for name in slots])


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


ENTRIES = corpus()


def test_golden_file_matches_the_corpus():
    golden = _load()
    assert golden["version"] == VERSION
    assert sorted(golden["datagrams"]) == sorted(name for name, *_ in ENTRIES)


def test_every_table_entry_has_pinned_bytes():
    """A wire type cannot ship without a corpus entry (and so pinned bytes
    and, in ``test_wire_hostile.py``, fuzzing)."""
    carried = set()
    for _, _, _, packets in ENTRIES:
        for packet in packets:
            carried |= {type(packet), type(getattr(packet, "payload", None))}
    unpinned = [
        (record.tag, record.cls.__name__)
        for record in wire._PAYLOADS + wire._ENVELOPES if record.cls not in carried
    ]
    assert not unpinned


@pytest.mark.parametrize("name,sender,receiver,packets", ENTRIES,
                         ids=[entry[0] for entry in ENTRIES])
def test_encoder_reproduces_the_pinned_bytes(name, sender, receiver, packets):
    expected = bytes.fromhex(_load()["datagrams"][name])
    assert encode(sender, receiver, packets) == expected
    # Warm caches (a second out-link, a relay) give the same bytes.
    assert encode(sender, receiver, packets) == expected


@pytest.mark.parametrize("name,sender,receiver,packets", ENTRIES,
                         ids=[entry[0] for entry in ENTRIES])
def test_decoding_the_pinned_bytes_gives_the_corpus_object(name, sender, receiver, packets):
    data = bytes.fromhex(_load()["datagrams"][name])
    decoded = decode_datagram(data)
    encode(sender, receiver, packets)  # fills the corpus objects' caches
    assert (_fields(decoded.sender), _fields(decoded.receiver)) == (
        _fields(sender), _fields(receiver))
    assert len(decoded.packets) == len(packets)
    for got, want in zip(decoded.packets, packets):
        assert _fields(got) == _fields(want)
    # The decoded objects re-encode to the pinned bytes.
    assert encode(decoded.sender, decoded.receiver, list(decoded.packets)) == data


if __name__ == "__main__":
    json.dump(
        {
            "version": VERSION,
            "datagrams": {
                name: encode(sender, receiver, packets).hex()
                for name, sender, receiver, packets in corpus()
            },
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
