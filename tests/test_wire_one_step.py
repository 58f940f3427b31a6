"""The codec builds a decoded object in one step, and it is exact.

A wire type whose class is a frozen slots dataclass without
``__post_init__`` is built by allocating the object and storing every
slot through its descriptor (``repro.messaging.message.one_step_code``)
instead of running the dataclass ``__init__``.  For every such table
entry, with the golden corpus's objects as examples, the result must be
the object ``cls(*args)`` builds: every slot set and equal, the
``init=False`` caches empty, the same ``==``, ``hash`` and ``repr``, cold
again after ``dataclasses.replace``, and picklable.  A class with a
``__post_init__`` keeps its constructor.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, Dict, Iterator, List

import pytest

from repro.crypto.pki import Pki, PkiMode
from repro.crypto.simulated import SimulatedSignature
from repro.link.por import PorData
from repro.messaging.message import E2eAck, Message, Semantics, one_step_builder
from repro.runtime import wire
from repro.runtime.wire import decode_datagram, encode_datagram
from tests.test_wire_golden import corpus


def _records() -> Iterator[wire._Record]:
    """Every record of the tables, nested ones (a SIMULATED signature, a
    path entry) included."""
    seen = set()
    stack: List[Any] = list(wire._PAYLOADS + wire._ENVELOPES)
    while stack:
        kind = stack.pop()
        if id(kind) in seen:
            continue
        seen.add(id(kind))
        if isinstance(kind, wire._Record):
            yield kind
            stack.extend(kind.kinds)
        elif isinstance(kind, wire._Seq):
            stack.append(kind.elem)
        elif isinstance(kind, wire._Union):
            stack.extend(variant for _, _, variant in kind.variants if variant is not None)


def _one_step(cls: type) -> bool:
    params = getattr(cls, "__dataclass_params__", None)
    return (params is not None and params.frozen and "__slots__" in cls.__dict__
            and not hasattr(cls, "__post_init__"))


ONE_STEP = {record.cls: record for record in _records() if _one_step(record.cls)}


def _objects(value: Any) -> Iterator[Any]:
    """``value`` and every object inside it."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _objects(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.init:
                yield from _objects(getattr(value, field.name))
    elif hasattr(type(value), "__slots__"):
        for name in type(value).__slots__:
            yield from _objects(getattr(value, name, None))


def _examples() -> Dict[type, List[Any]]:
    found: Dict[type, List[Any]] = {cls: [] for cls in ONE_STEP}
    for _, _, _, packets in corpus():
        for packet in packets:
            for obj in _objects(packet):
                if type(obj) in found:
                    found[type(obj)].append(obj)
    return found


EXAMPLES = _examples()
CASES = [
    pytest.param(cls, obj, id=f"{cls.__name__}-{n}")
    for cls, objs in EXAMPLES.items() for n, obj in enumerate(objs)
]


def _slots(cls: type) -> List[str]:
    return [field.name for field in dataclasses.fields(cls)]


def test_the_tables_hold_the_expected_one_step_classes():
    names = {cls.__name__ for cls in ONE_STEP}
    assert {"Message", "E2eAck", "SimulatedSignature", "NeighborAck", "Hello",
            "StateRequest", "AdmissionNack", "LinkStateUpdate"} <= names
    assert all(EXAMPLES[cls] for cls in ONE_STEP), "a class has no corpus example"


@pytest.mark.parametrize("cls,obj", CASES)
def test_make_builds_what_the_constructor_builds(cls, obj, monkeypatch):
    record = ONE_STEP[cls]
    values = record.get(obj)
    with monkeypatch.context() as patch:
        patch.setattr(cls, "__init__", None)  # make() must not call it
        made = record.make(list(values))
    reference = cls(**dict(zip(record.names, values)))
    assert type(made) is cls
    for name in _slots(cls):
        assert getattr(made, name) == getattr(reference, name), name  # none unbound
    for field in dataclasses.fields(cls):
        if not field.init:
            assert getattr(made, field.name) is None, field.name
    assert made == reference == obj
    assert hash(made) == hash(reference)
    assert repr(made) == repr(reference)


@pytest.mark.parametrize("cls,obj", CASES)
def test_pickling_round_trips(cls, obj):
    made = ONE_STEP[cls].make(list(ONE_STEP[cls].get(obj)))
    again = pickle.loads(pickle.dumps(made))
    assert again == made and type(again) is cls
    for name in _slots(cls):
        assert getattr(again, name) == getattr(made, name), name


def test_a_replaced_decoded_object_starts_cold():
    """A tamper is a ``replace`` of a decoded object: the copy has empty
    caches, whatever the decoded one had cached."""
    pki = Pki(mode=PkiMode.SIMULATED, seed=0)
    for node in (3, 5, 9):
        pki.register(node)
    sent = Message.create(pki, 3, 9, 4, Semantics.PRIORITY, 5, 30.0, 100, False,
                          ((3, 5, 9),), 1.0, b"x")
    ack = E2eAck.create(pki, 9, 2, {3: 4})
    for obj in (sent, ack):
        packet = PorData(1, 0, bytes(8), obj, 64)
        decoded = decode_datagram(encode_datagram(3, 5, packet)).packet.payload
        assert decoded == obj and decoded.verify(pki)
        decoded.signed_fields()
        if isinstance(decoded, Message):
            decoded.uid
            decoded.wire_size(256)
        caches = [f.name for f in dataclasses.fields(type(obj)) if not f.init]
        assert all(getattr(decoded, name) is not None for name in caches)
        tampered = dataclasses.replace(decoded, stamp=3) if isinstance(obj, E2eAck) else (
            dataclasses.replace(decoded, seq=5))
        assert all(getattr(tampered, name) is None for name in caches)
        assert not tampered.verify(pki)


def test_a_fresh_message_is_built_in_one_step_too():
    """``Message.create`` builds with the same one-step builder: the
    fresh message equals one built by its constructor, caches aside."""
    pki = Pki(mode=PkiMode.SIMULATED, seed=0)
    for node in (1, 2):
        pki.register(node)
    made = Message.create(pki, 1, 2, 7, Semantics.RELIABLE, 1, None, 10, True, None, 0.5, "t")
    reference = Message(1, 2, 7, Semantics.RELIABLE, 1, None, 10, True, None, 0.5, "t",
                        made.signature)
    assert made == reference and repr(made) == repr(reference)
    assert made.verify(pki)
    assert made._uid_cache is None and made._wire_cache is None
    assert made._signed_fields_cache == reference.signed_fields()


def test_simulated_signature_is_slotted():
    signature = SimulatedSignature(3, 7)
    assert not hasattr(signature, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        signature.tag = 8  # type: ignore[misc]


# ----------------------------------------------------------------------
# A class with __post_init__ keeps its constructor
# ----------------------------------------------------------------------
POST_INIT_CALLS: List[Any] = []


@dataclasses.dataclass(frozen=True, slots=True)
class _Checked:
    a: int
    b: int

    def __post_init__(self) -> None:
        POST_INIT_CALLS.append((self.a, self.b))


def test_a_class_with_post_init_is_built_through_its_constructor():
    record = wire._Record(None, _Checked, ("a", wire._I64), ("b", wire._I64))
    writer = wire._Writer()
    record.encode(writer, _Checked(3, 4))
    reader = wire._Reader(memoryview(bytes(writer.buf[:writer.pos])))
    POST_INIT_CALLS.clear()
    made = record.make([1, 2])
    decoded = record.decode(reader)
    assert POST_INIT_CALLS == [(1, 2), (3, 4)]
    assert (made, decoded) == (_Checked(1, 2), _Checked(3, 4))
    with pytest.raises(TypeError):
        one_step_builder(_Checked)
