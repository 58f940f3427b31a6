"""Unit tests for live-runtime fault injection.

Covers the :class:`DatagramFaultInjector` decision table, the
:class:`ChaosUdpTransport` send-side interposition over real sockets, and
the :class:`LiveChaosEngine` crash refcounting against a fake supervisor.
The full schedule-driven run is covered by ``tests/test_live_chaos.py``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.faults.chaos import MAX_COMPOSED_LOSS
from repro.faults.schedule import FaultSchedule
from repro.link.por import _HelloWrapper
from repro.messaging.message import Hello
from repro.runtime.chaos import (
    DUPLICATE_LAG,
    REORDER_WINDOW,
    ChaosUdpTransport,
    DatagramFaultInjector,
    LiveChaosEngine,
)


def injector(seed=0):
    return DatagramFaultInjector(random.Random(seed))


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# DatagramFaultInjector decision table
# ----------------------------------------------------------------------
def test_clear_link_passes_datagrams_through_unchanged():
    inj = injector()
    assert inj.plan("a", "b", b"payload") == [(0.0, b"payload")]
    assert inj.summary() == {
        "partition_drops": 0, "losses": 0, "duplicates": 0,
        "reorders": 0, "corruptions": 0, "delayed": 0,
    }


def test_partition_drops_both_directions_and_is_refcounted():
    inj = injector()
    inj.fail_edge("a", "b")
    inj.fail_edge("a", "b")  # overlapping fault on the same edge
    assert inj.plan("a", "b", b"x") == []
    assert inj.plan("b", "a", b"x") == []
    inj.restore_edge("a", "b")
    assert inj.plan("a", "b", b"x") == []  # one fault still active
    inj.restore_edge("a", "b")
    assert inj.plan("a", "b", b"x") == [(0.0, b"x")]
    assert inj.plan("b", "a", b"x") == [(0.0, b"x")]
    assert inj.summary()["partition_drops"] == 3


def test_loss_drops_the_configured_fraction():
    inj = injector()
    inj.set_impairment("a", "b", loss=0.94)
    dropped = sum(not inj.plan("a", "b", b"x") for _ in range(1000))
    assert 880 <= dropped <= 990  # Bernoulli(0.94), seeded draw
    assert inj.summary()["losses"] == dropped


def test_loss_is_capped_at_composed_maximum():
    inj = injector()
    inj.set_impairment("a", "b", loss=1.0)
    assert inj.state("a", "b").loss == MAX_COMPOSED_LOSS
    survived = sum(bool(inj.plan("a", "b", b"x")) for _ in range(2000))
    assert survived > 0  # never a guaranteed black hole


def test_duplication_emits_trailing_copy():
    inj = injector()
    inj.set_impairment("a", "b", dup=1.0)
    actions = inj.plan("a", "b", b"x")
    assert len(actions) == 2
    (delay_a, payload_a), (delay_b, payload_b) = actions
    assert payload_a == payload_b == b"x"
    assert delay_b == pytest.approx(delay_a + DUPLICATE_LAG)
    assert inj.summary()["duplicates"] == 1


def test_reorder_draws_delay_inside_window():
    inj = injector()
    inj.set_impairment("a", "b", reorder=1.0)
    for _ in range(20):
        [(delay, _)] = inj.plan("a", "b", b"x")
        assert REORDER_WINDOW[0] <= delay <= REORDER_WINDOW[1]
    assert inj.summary()["reorders"] == 20


def test_extra_delay_applies_to_every_datagram():
    inj = injector()
    inj.set_impairment("a", "b", delay=0.02)
    [(delay, _)] = inj.plan("a", "b", b"x")
    assert delay == pytest.approx(0.02)
    assert inj.summary()["delayed"] == 1


def test_corruption_flips_bits_but_keeps_length():
    inj = injector()
    inj.set_impairment("a", "b", corrupt=1.0)
    original = bytes(range(64))
    [(_, payload)] = inj.plan("a", "b", original)
    assert payload != original
    assert len(payload) == len(original)
    # 1-4 bit flips: Hamming distance in bits is small and positive.
    distance = sum(
        bin(x ^ y).count("1") for x, y in zip(payload, original)
    )
    assert 1 <= distance <= 4
    assert inj.summary()["corruptions"] == 1


def test_impairment_is_directionless_and_replaceable():
    inj = injector()
    inj.set_impairment("a", "b", loss=0.5, delay=0.01)
    assert inj.state("b", "a").loss == 0.5
    assert inj.state("b", "a").delay == 0.01
    inj.set_impairment("a", "b")  # engine recomposed to "no impairment"
    assert inj.state("a", "b").clear
    assert inj.plan("a", "b", b"x") == [(0.0, b"x")]


# ----------------------------------------------------------------------
# ChaosUdpTransport: interposition on real sockets
# ----------------------------------------------------------------------
def test_chaos_transport_applies_partition_and_heals():
    async def check():
        inj = injector()
        a = await ChaosUdpTransport.open("a", injector=inj)
        b = await ChaosUdpTransport.open("b", injector=inj)
        a.register_peer("b", b.local_address)
        received = []
        b.register_peer("a", a.local_address).on_receive = received.append
        hello = _HelloWrapper(Hello("a", 1))

        inj.fail_edge("a", "b")
        a.send_channel("b").send(hello, 24)
        await asyncio.sleep(0.05)
        assert received == []
        assert inj.summary()["partition_drops"] == 1

        inj.restore_edge("a", "b")
        a.send_channel("b").send(hello, 24)
        await asyncio.sleep(0.05)
        assert len(received) == 1
        a.close()
        b.close()

    run(check())


def test_chaos_transport_delivers_delayed_and_duplicated_datagrams():
    async def check():
        inj = injector()
        a = await ChaosUdpTransport.open("a", injector=inj)
        b = await ChaosUdpTransport.open("b", injector=inj)
        a.register_peer("b", b.local_address)
        received = []
        b.register_peer("a", a.local_address).on_receive = received.append
        inj.set_impairment("a", "b", dup=1.0, delay=0.02)

        a.send_channel("b").send(_HelloWrapper(Hello("a", 2)), 24)
        await asyncio.sleep(0.005)
        assert received == []  # still inside the injected delay
        await asyncio.sleep(0.1)
        assert len(received) == 2  # original + trailing duplicate
        a.close()
        b.close()

    run(check())


def test_chaos_transport_without_injector_is_plain_udp():
    async def check():
        a = await ChaosUdpTransport.open("a")
        b = await ChaosUdpTransport.open("b")
        a.register_peer("b", b.local_address)
        received = []
        b.register_peer("a", a.local_address).on_receive = received.append
        a.send_channel("b").send(_HelloWrapper(Hello("a", 3)), 24)
        await asyncio.sleep(0.05)
        assert len(received) == 1
        a.close()
        b.close()

    run(check())


def test_delayed_send_after_close_is_dropped():
    async def check():
        inj = injector()
        a = await ChaosUdpTransport.open("a", injector=inj)
        b = await ChaosUdpTransport.open("b", injector=inj)
        a.register_peer("b", b.local_address)
        received = []
        b.register_peer("a", a.local_address).on_receive = received.append
        inj.set_impairment("a", "b", delay=0.03)
        a.send_channel("b").send(_HelloWrapper(Hello("a", 4)), 24)
        await asyncio.sleep(0)  # the channel's flush hands it to the injector
        a.close()  # closes before the delayed copy fires
        await asyncio.sleep(0.1)
        assert received == []
        b.close()

    run(check())


class _FlakySocket:
    """asyncio's datagram transport on a fake: the ``fail_at``-th send
    attempt raises a transient OSError, every other one is recorded."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.attempts = 0
        self.sent = []

    def sendto(self, data, address):
        self.attempts += 1
        if self.attempts - 1 == self.fail_at:
            raise OSError("ENOBUFS")
        self.sent.append(bytes(data))


class _ManualLoop:
    """Holds call_later callbacks until the test fires them."""

    def __init__(self):
        self.later = []

    def call_later(self, delay, callback, *args):
        self.later.append((delay, callback, args))

    def run_until_idle(self):
        while self.later:
            self.later.sort(key=lambda entry: entry[0])
            _, callback, args = self.later.pop(0)
            callback(*args)


@pytest.mark.parametrize("fail_at", [0, 1], ids=["original-fails", "copy-fails"])
def test_a_retried_datagram_is_not_faulted_again(fail_at):
    # One logical datagram on an edge that duplicates everything: the
    # original and its delayed copy reach the wire, one duplicate counted,
    # whichever of the two needs the transport's retry.
    inj = injector()
    inj.set_impairment("a", "b", dup=1.0)
    a = ChaosUdpTransport("a", injector=inj)
    a._transport = _FlakySocket(fail_at)
    a._loop = _ManualLoop()
    a.register_peer("b", ("127.0.0.1", 9))

    a.sendto("b", b"datagram")
    a._loop.run_until_idle()

    assert a.send_retries == 1
    assert a._transport.sent == [b"datagram", b"datagram"]
    assert inj.summary()["duplicates"] == 1


# ----------------------------------------------------------------------
# LiveChaosEngine: crash faults route to the supervisor, refcounted
# ----------------------------------------------------------------------
class FakeSupervisor:
    def __init__(self):
        self.calls = []

    def kill(self, node, reason="fault", hold=False):
        self.calls.append(("kill", node, hold))

    def release(self, node):
        self.calls.append(("release", node))


class FakeStats:
    def counter(self, name):
        class _C:
            def add(self, amount=1):
                pass

        return _C()


class FakeEngineDeployment:
    """Just enough of the network duck type for ChaosEngine.__init__."""

    def __init__(self):
        self.sim = None
        self.topology = None
        self.stats = FakeStats()


def make_engine():
    schedule = FaultSchedule(faults=(), seed=0, duration=1.0)
    inj = injector()
    supervisor = FakeSupervisor()
    engine = LiveChaosEngine(
        FakeEngineDeployment(), schedule, inj, supervisor
    )
    return engine, inj, supervisor


def test_engine_link_hooks_drive_the_injector():
    engine, inj, _ = make_engine()
    engine._take_edge_down(("a", "b"))
    assert inj.state("a", "b").down_refs == 1
    engine._install_impairment(("a", "b"), 0.2, 0.1, 0.3, 0.05, 0.01)
    state = inj.state("b", "a")
    assert (state.loss, state.dup, state.reorder) == (0.2, 0.1, 0.3)
    assert (state.corrupt, state.delay) == (0.05, 0.01)
    engine._bring_edge_up(("a", "b"))
    assert inj.state("a", "b").down_refs == 0


def test_engine_crash_refcounting_kills_once_releases_once():
    engine, _, supervisor = make_engine()
    engine._crash_node("n")
    engine._crash_node("n")  # overlapping crash faults
    assert supervisor.calls == [("kill", "n", True)]
    engine._recover_node("n")
    assert supervisor.calls == [("kill", "n", True)]  # still held
    engine._recover_node("n")
    assert supervisor.calls[-1] == ("release", "n")
    assert len(supervisor.calls) == 2
