"""A NaN in a signed float field verifies alike before and after the wire.

CPython >= 3.10 hashes a NaN by object identity, and a SIMULATED tag is
the builtin hash of the signed tuple, so a tuple holding the float NaN
made the tag depend on which NaN object was signed: the signer's own
object verified, a decoded copy did not.  The simulator (objects passed
by reference) and the live stack (decoded copies) then disagreed; the
signed tuples of ``Message``, ``LinkStateUpdate`` and ``Mtmw`` hold
``encoding.NAN_FIELD`` in place of a NaN.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math

import pytest

from repro.crypto.encoding import NAN_FIELD
from repro.crypto.pki import Pki, PkiMode
from repro.link.por import PorData
from repro.messaging.message import Message, Semantics
from repro.routing.link_state import LinkStateUpdate
from repro.routing.state import RoutingState
from repro.routing.validation import UpdateResult, validate_update
from repro.runtime.live import LiveConfig, LiveDeployment
from repro.runtime.wire import decode_datagram, encode_datagram
from repro.topology.generators import ring
from repro.topology.mtmw import Mtmw

NAN = float("nan")


@pytest.fixture
def pki():
    pki = Pki(mode=PkiMode.SIMULATED, seed=5)
    for node in range(1, 5):
        pki.register(node)
    return pki


def over_the_wire(payload):
    """``payload`` after an encode and a decode: a fresh copy, fresh NaNs."""
    packet = PorData(epoch=1, seq=0, nonce=bytes(8), payload=payload, wire_size=64)
    return decode_datagram(encode_datagram(1, 2, packet)).packet.payload


@pytest.mark.parametrize("field", ["sent_at", "expiration"])
def test_a_nan_message_field_verifies_after_the_wire(pki, field):
    message = Message.create(
        pki, 1, 3, 7, Semantics.PRIORITY, **{"expiration": 9.0, field: NAN}
    )
    assert message.verify(pki)
    assert NAN_FIELD in message.signed_fields()
    copy = over_the_wire(message)
    assert copy is not message and math.isnan(getattr(copy, field))
    assert copy.verify(pki)
    # The marker stands for NaN only: any other value still fails.
    assert not dataclasses.replace(copy, **{field: 1.0}).verify(pki)


def test_a_nan_weight_update_verifies_after_the_wire_and_proves_compromise(pki):
    mtmw = Mtmw.create(ring(4), pki)
    update = LinkStateUpdate.create(pki, 1, 1, 2, NAN, seqno=1)
    copy = over_the_wire(update)
    assert copy is not update and math.isnan(copy.weight)
    assert update.verify(pki) and copy.verify(pki)
    # The minimum-weight rule now fires on the live stack too, not only
    # in the simulator (where the update is passed by reference).
    result = validate_update(copy, mtmw, pki)
    assert result is UpdateResult.BELOW_MIN_WEIGHT
    assert result.proves_compromise
    state = RoutingState(mtmw, pki)
    assert state.apply_update(copy, now=0.0) is UpdateResult.BELOW_MIN_WEIGHT
    assert 1 in state.detected_compromised


def test_a_nan_weight_mtmw_verifies_after_the_wire(pki):
    topology = ring(4)
    topology.set_weight(1, 2, NAN)
    mtmw = Mtmw.create(topology, pki)
    copy = over_the_wire(mtmw)
    assert copy is not mtmw and math.isnan(copy.topology.weight(1, 2))
    assert mtmw.verify(pki) and copy.verify(pki)


def test_a_nan_sent_at_message_is_delivered_on_the_live_path():
    """Signed with a NaN timestamp, a message crosses real UDP sockets,
    verifies at the destination and is delivered without an error."""
    delivered = []

    async def drive():
        deployment = LiveDeployment(
            LiveConfig(nodes=2, duration=0.5, seed=4, flow_traffic=False)
        )
        await deployment.start()
        source, dest = sorted(deployment.nodes)
        deployment.node(dest).delivery_observers.append(
            lambda message, node: delivered.append(message)
        )
        node = deployment.node(source)
        message = Message.create(
            node.pki, source, dest, 1, Semantics.PRIORITY,
            expiration=deployment.sim.now + 5.0, size_bytes=16, sent_at=NAN,
        )
        node.priority.handle(message, None)
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        return deployment.report()

    report = asyncio.run(drive())
    assert not report.runtime_errors, report.runtime_errors
    assert len(delivered) == 1 and math.isnan(delivered[0].sent_at)
    assert all(
        snapshot["counters"].get("invalid_signatures", 0) == 0
        for snapshot in report.per_node.values()
    )
