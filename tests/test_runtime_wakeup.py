"""The receive wakeup as the live transport's unit of work.

One ``AsyncioUdpTransport.datagram_received`` call is bracketed: frames a
handler queues during it are on the socket before it returns (one batch
datagram per peer, the PoR ACK inside), frames queued from anywhere else
keep the ``call_soon`` flush, and whatever happens inside -- a raising
handler, a ``close()``, a supervisor kill -- nothing stays registered or
parked afterwards.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.crypto.pki import Pki
from repro.link.por import PorAck, PorData, PorEndpoint, _HelloWrapper
from repro.messaging.message import Hello
from repro.overlay.config import DisseminationMethod
from repro.runtime.chaos import ChaosUdpTransport, DatagramFaultInjector
from repro.runtime.live import LiveConfig, LiveDeployment
from repro.runtime.transport import AsyncioUdpTransport
from repro.runtime.wire import decode_datagram, encode_batch_datagram, encode_datagram
from repro.sim.engine import Simulator

PEER_ADDR = ("127.0.0.1", 9)


class _FakeSocket:
    """Records what the transport puts on the wire; nothing to drain."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, address):
        self.sent.append(bytes(data))

    def close(self):
        pass


class _FakeLoop:
    def __init__(self):
        self.soon = []

    def call_soon(self, callback, *args):
        self.soon.append((callback, args))

    def call_later(self, delay, callback, *args):  # pragma: no cover - unused
        raise AssertionError("no retry expected")


def _wired(cls=AsyncioUdpTransport, **kwargs):
    """A transport for node "n" with one peer and a coalescing send
    channel, on fakes: a wakeup is a plain ``datagram_received`` call."""
    transport = cls("n", **kwargs)
    transport._transport = _FakeSocket()
    transport._loop = _FakeLoop()
    rx = transport.register_peer("peer", PEER_ADDR)
    tx = transport.send_channel("peer", coalesce=True)
    return transport, tx, rx


def _hello(stamp):
    return _HelloWrapper(Hello("n", stamp))


def _idle(transport, tx):
    return (
        transport._wakeup_channels is None
        and not tx._pending
        and not tx._flush_scheduled
    )


@pytest.mark.parametrize("chaos", [False, True])
def test_frames_queued_in_a_wakeup_leave_before_it_returns_with_the_ack(chaos):
    if chaos:
        transport, tx, rx = _wired(
            ChaosUdpTransport, injector=DatagramFaultInjector(random.Random(1))
        )
    else:
        transport, tx, rx = _wired()
    sim = Simulator(seed=3)
    pki = Pki(seed=3)
    pki.register("n")
    pki.register("peer")
    por = PorEndpoint(sim, "n", "peer", tx, rx, pki)
    por.establish_out_of_band()
    rx.on_datagram_start = por.begin_datagram
    rx.on_datagram_end = por.end_datagram
    # The upper layer answers every delivered payload with one of its own.
    por.on_deliver = lambda payload, size: por.send(
        Hello("n", payload.stamp + 100), size
    )

    frames = [
        PorData(0, seq, bytes([seq]) * 8, Hello("peer", seq), 72) for seq in range(4)
    ]
    transport.datagram_received(
        encode_batch_datagram("peer", "n", frames), PEER_ADDR
    )

    sent = transport._transport.sent
    assert len(sent) == 1, "one batch datagram, already on the socket"
    assert transport._loop.soon == [], "no flush left for a later loop iteration"
    packets = decode_datagram(sent[0]).packets
    assert [type(p) for p in packets] == [PorData] * 4 + [PorAck]
    assert [p.payload.stamp for p in packets[:4]] == [100, 101, 102, 103]
    assert packets[4].cum_seq == 3
    assert por.acks_sent == 1
    assert _idle(transport, tx)


def test_a_frame_queued_outside_a_wakeup_still_flushes_via_call_soon():
    transport, tx, rx = _wired()
    tx.send(_hello(1), 24)  # e.g. from a timer
    tx.send(_hello(2), 24)
    assert transport._transport.sent == []
    assert len(transport._loop.soon) == 1
    callback, args = transport._loop.soon.pop()
    callback(*args)
    assert len(transport._transport.sent) == 1
    assert len(decode_datagram(transport._transport.sent[0]).packets) == 2
    assert _idle(transport, tx)


def test_wakeup_hooks_bracket_the_work_and_the_end_hook_sends_with_it():
    transport, tx, rx = _wired()
    events = []
    rx.on_receive = lambda packet: events.append("frame")
    transport.on_wakeup_start = lambda: events.append("start")

    def end():
        events.append("end")
        tx.send(_hello(9), 24)  # what an overlay node forwards at the end

    transport.on_wakeup_end = end
    transport.datagram_received(encode_datagram("peer", "n", _hello(1)), PEER_ADDR)
    assert events == ["start", "frame", "end"]
    assert len(transport._transport.sent) == 1
    assert transport._loop.soon == []
    assert _idle(transport, tx)


def test_a_raising_handler_leaves_nothing_registered():
    transport, tx, rx = _wired()
    ended = []
    transport.on_wakeup_end = lambda: ended.append(True)

    def handler(packet):
        tx.send(_hello(2), 24)
        raise RuntimeError("poisoned")

    rx.on_receive = handler
    datagram = encode_datagram("peer", "n", _hello(1))
    with pytest.raises(RuntimeError):  # standalone transport: it propagates
        transport.datagram_received(datagram, PEER_ADDR)
    assert ended == [True]
    assert len(transport._transport.sent) == 1  # queued before the raise: sent
    assert _idle(transport, tx)

    # With the deployment's error hook the wakeup completes normally.
    errors = []
    transport.on_dispatch_error = errors.append
    transport.datagram_received(datagram, PEER_ADDR)
    assert len(errors) == 1 and transport.dispatch_errors == 2
    assert len(transport._transport.sent) == 2
    assert _idle(transport, tx)


def test_a_raising_frame_still_closes_the_datagram_bracket():
    transport, tx, rx = _wired()
    transport.on_dispatch_error = lambda exc: None
    events = []
    rx.on_datagram_start = lambda: events.append("start")
    rx.on_datagram_end = lambda: events.append("end")

    def handler(packet):
        events.append("frame")
        raise RuntimeError("poisoned")

    rx.on_receive = handler
    transport.datagram_received(
        encode_batch_datagram("peer", "n", [_hello(1), _hello(2)]), PEER_ADDR
    )
    assert events == ["start", "frame", "frame", "end"]
    # A lone frame is not bracketed: nothing could be coalesced with it.
    del events[:]
    transport.datagram_received(encode_datagram("peer", "n", _hello(3)), PEER_ADDR)
    assert events == ["frame"]


def test_close_inside_a_wakeup_drops_the_frames_and_leaves_nothing_registered():
    transport, tx, rx = _wired()
    sock = transport._transport

    def handler(packet):
        tx.send(_hello(2), 24)
        transport.close()

    rx.on_receive = handler
    transport.datagram_received(encode_datagram("peer", "n", _hello(1)), PEER_ADDR)
    assert transport.closed
    assert sock.sent == []  # flushed into a closed transport: dropped
    assert _idle(transport, tx)


def test_supervisor_kill_inside_a_wakeup_leaves_no_channel_and_no_parked_message():
    async def check():
        deployment = LiveDeployment(
            LiveConfig(
                nodes=4, duration=1.0, seed=5, rate_msgs_per_sec=200.0,
                method=DisseminationMethod.flooding(),
            )
        )
        await deployment.start()
        victim = deployment.processes[2]
        killed = []
        for link in victim.overlay.links.values():
            rx = link.por.in_channel
            deliver = rx.on_receive

            def kill_on_data(packet, _deliver=deliver):
                _deliver(packet)
                if isinstance(packet, PorData) and not killed:
                    assert victim.transport._wakeup_channels is not None
                    assert victim.overlay.parked is not None
                    killed.append(True)
                    deployment.supervisor.kill(2, reason="test", hold=True)

            rx.on_receive = kill_on_data
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        assert killed
        assert victim.transport._wakeup_channels is None
        assert victim.overlay.parked is None
        for link in victim.overlay.links.values():
            assert not link.por.out_channel._pending
            assert not link.por.out_channel._flush_scheduled
        assert not deployment.report().runtime_errors

    asyncio.run(check())
