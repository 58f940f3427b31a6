"""Message equality/hash consistency under the slot-cache design.

``Message`` carries per-object derived-value caches (canonical signed
tuple, uid, verify verdict) in ``compare=False`` slots.  Everything that
deduplicates messages — flooding duplicate suppression, the
InvariantMonitor's at-most-once check, per-link queue indexing — relies
on two objects with equal semantic fields staying equal and hash-equal
*regardless of which caches happen to be populated*.  These are the
regression tests for that contract.
"""

from __future__ import annotations

import dataclasses

from repro.faults.invariants import InvariantMonitor
from repro.messaging.message import Message, Semantics
from repro.messaging.priority import PriorityLinkQueue
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators


def _msg(pki=None, **overrides) -> Message:
    """A message, signed by its source when ``pki`` is given."""
    base = dict(
        source="s",
        dest="d",
        seq=7,
        semantics=Semantics.PRIORITY,
        priority=5,
        expiration=100.0,
        size_bytes=512,
        flooding=True,
        sent_at=1.0,
    )
    base.update(overrides)
    return Message.create(pki, **base) if pki is not None else Message(**base)


# ----------------------------------------------------------------------
# Equality / hash invariants of the cache slots themselves
# ----------------------------------------------------------------------
def test_equal_messages_stay_equal_when_caches_diverge():
    warm, cold = _msg(), _msg()
    # Populate every derived-value cache on one object only.
    warm.signed_fields()
    _ = warm.uid
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert warm.uid == cold.uid
    # Hash-based containers must treat them as the same message.
    assert cold in {warm}
    assert {warm: "first"}[cold] == "first"


def test_replace_preserves_identity_and_resets_caches():
    original = _msg()
    _ = original.uid
    copy = dataclasses.replace(original)
    # The cache slots are reinitialized, not copied.
    assert copy._uid_cache is None
    assert copy._signed_fields_cache is None
    assert copy == original
    assert hash(copy) == hash(original)
    assert copy.uid == original.uid


def test_wire_cache_slot_is_invisible_and_never_copied():
    from repro.link.por import PorData
    from repro.runtime.wire import decode_datagram, encode_datagram

    sent, cold = _msg(payload=b"bytes"), _msg(payload=b"bytes")
    datagram = encode_datagram("s", "d", PorData(0, 0, b"", sent, 64))
    received = decode_datagram(datagram).packet.payload
    # Filled by the encoder on one side and by the decoder on the other.
    assert sent._wire_cache is not None and sent._wire_cache == received._wire_cache
    assert cold._wire_cache is None
    assert sent == received == cold
    assert hash(sent) == hash(received) == hash(cold)
    # ``replace`` reinitialises the slot, tampering or not.
    assert dataclasses.replace(received)._wire_cache is None
    assert dataclasses.replace(received, payload=b"EVIL")._wire_cache is None


def test_tampered_copy_is_unequal_and_reverifies_cold():
    from repro.crypto.pki import Pki, PkiMode

    pki = Pki(mode=PkiMode.SIMULATED, seed=3)
    pki.register("s")
    signed = _msg(pki)
    assert signed.verify(pki) is True
    assert signed.verify(pki) is True  # cached verdict
    tampered = dataclasses.replace(signed, dest="evil")
    assert tampered != signed
    # The tampered copy starts with cold caches: it must re-verify in
    # full and fail, while the original's cached verdict stands.
    assert tampered.verify(pki) is False
    assert signed.verify(pki) is True
    # An unmodified replace-copy re-verifies cold and still passes.
    assert dataclasses.replace(signed).verify(pki) is True


# ----------------------------------------------------------------------
# Consumers of that contract
# ----------------------------------------------------------------------
def test_priority_queue_dedups_equal_but_distinct_objects():
    queue = PriorityLinkQueue(capacity=8)
    first = _msg()
    twin = dataclasses.replace(first)
    assert queue.offer(first, now=0.0) is True
    # Same uid, different object, cold caches: still a duplicate.
    assert queue.offer(twin, now=0.0) is False
    assert len(queue) == 1


def test_invariant_monitor_flags_equal_object_redelivery():
    net = OverlayNetwork.build(generators.clique(2), OverlayConfig(), seed=0)
    monitor = InvariantMonitor(net)
    monitor.arm()
    dest = sorted(net.topology.nodes)[0]
    message = _msg(source=sorted(net.topology.nodes)[1], dest=dest)
    node = net.node(dest)
    node.deliver_local(message)
    assert monitor.ok
    # A semantically equal copy with cold caches is the same delivery.
    node.deliver_local(dataclasses.replace(message))
    assert not monitor.ok
    assert [v.invariant for v in monitor.violations] == ["no-duplicate-delivery"]


def test_flooding_suppresses_duplicate_from_equal_copy():
    net = OverlayNetwork.build(generators.clique(3), OverlayConfig(), seed=0)
    a, b, c = sorted(net.topology.nodes)
    receiver = net.node(c)
    message = _msg(
        net.pki, source=a, dest=c, flooding=True, expiration=None, sent_at=0.0
    )
    delivered = []
    receiver.delivery_observers.append(lambda m, n: delivered.append(m.seq))
    receiver.priority.handle(message, from_neighbor=a)
    assert delivered == [message.seq]
    before = receiver.priority.duplicates_suppressed
    # The copy that floods in via the other neighbor is a new object with
    # empty caches; uid-based dedup must still suppress it.
    receiver.priority.handle(dataclasses.replace(message), from_neighbor=b)
    assert delivered == [message.seq]
    assert receiver.priority.duplicates_suppressed == before + 1
