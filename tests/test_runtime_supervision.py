"""Unit tests for the live runtime's node supervisor.

The supervisor is exercised against a fake deployment (no sockets, no
overlay) so the restart policy — exponential backoff with jitter, hold
semantics, the max-restart circuit breaker, watchdog detection of dead
sockets — is tested in isolation from the network stack.  The end-to-end
kill/restart path over real sockets is covered by
``tests/test_live_chaos.py``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import LiveRuntimeError
from repro.runtime import supervision
from repro.runtime.supervision import BROKEN, DOWN, RUNNING, NodeSupervisor


class FakeRngs:
    def stream(self, name):
        return random.Random(hash(name) & 0xFFFF)


class FakeSim:
    """Clock + rng surface of the scheduler, on real loop time."""

    def __init__(self):
        self.rngs = FakeRngs()

    @property
    def now(self):
        return asyncio.get_event_loop().time()


class FakePor:
    def __init__(self):
        self.resets = 0

    def reset(self):
        self.resets += 1


class FakeLink:
    def __init__(self):
        self.por = FakePor()


class FakeOverlay:
    def __init__(self, neighbors):
        self.links = {n: FakeLink() for n in neighbors}


class FakeCounter:
    def __init__(self):
        self.value = 0

    def add(self, amount=1):
        self.value += amount


class FakeStats:
    def __init__(self):
        self.counters = {}

    def counter(self, name):
        return self.counters.setdefault(name, FakeCounter())


class FakeTransport:
    def __init__(self):
        self._open = True
        self.reopens = 0
        self.fail_reopen = False
        self.peer_updates = []
        self.last_local_port = None
        #: Ports that fail to bind (simulating another process holding
        #: them); port 0 stands for a fresh ephemeral bind.
        self.busy_ports = set()
        self.reopen_ports = []  # every attempted bind, in order

    @property
    def closed(self):
        return not self._open

    def close(self):
        self._open = False

    async def reopen(self, port=0):
        self.reopen_ports.append(port)
        if self.fail_reopen or port in self.busy_ports:
            raise OSError("address in use")
        self._open = True
        self.reopens += 1
        bound = port if port else 40_000 + self.reopens
        self.last_local_port = bound
        return ("127.0.0.1", bound)

    def update_peer_address(self, peer_id, address):
        self.peer_updates.append((peer_id, address))


class FakeProcess:
    def __init__(self, neighbors):
        self.transport = FakeTransport()
        self.overlay = FakeOverlay(neighbors)
        self.stats = FakeStats()


class FakeTopology:
    """A triangle: every node neighbors the other two."""

    def __init__(self, nodes):
        self._nodes = list(nodes)

    def neighbors(self, node_id):
        return [n for n in self._nodes if n != node_id]


class FakeDeployment:
    def __init__(self, nodes=("a", "b", "c")):
        self.sim = FakeSim()
        self.topology = FakeTopology(nodes)
        self.processes = {
            n: FakeProcess([m for m in nodes if m != n]) for n in nodes
        }
        self.lifecycle = []  # interleaved crash/recover log

    def crash(self, node_id):
        self.lifecycle.append(("crash", node_id))

    def recover(self, node_id):
        self.lifecycle.append(("recover", node_id))


#: The production restart policy, read before any test patches it.
POLICY = {
    name: getattr(supervision, name)
    for name in (
        "BACKOFF_INITIAL", "BACKOFF_FACTOR", "BACKOFF_MAX", "BACKOFF_JITTER",
        "MAX_RESTARTS", "WATCHDOG_INTERVAL", "REBIND_ATTEMPTS",
    )
}


@pytest.fixture(autouse=True)
def fast_policy(monkeypatch):
    """Test-speed restart timings (the factor, jitter and restart cap
    keep their production values)."""
    monkeypatch.setattr(supervision, "BACKOFF_INITIAL", 0.05)
    monkeypatch.setattr(supervision, "BACKOFF_MAX", 1.0)
    monkeypatch.setattr(supervision, "WATCHDOG_INTERVAL", 0.01)
    return monkeypatch


def run(coro):
    return asyncio.run(coro)


async def eventually(predicate, timeout=3.0, interval=0.01):
    deadline = asyncio.get_event_loop().time() + timeout
    while asyncio.get_event_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Configuration and lifecycle guards
# ----------------------------------------------------------------------
def test_restart_policy_constants_keep_their_invariants():
    p = POLICY
    assert 0 < p["BACKOFF_INITIAL"] <= p["BACKOFF_MAX"]
    assert p["BACKOFF_FACTOR"] >= 1 and 0 <= p["BACKOFF_JITTER"] < 1
    assert p["MAX_RESTARTS"] >= 1 and p["REBIND_ATTEMPTS"] >= 1
    assert p["WATCHDOG_INTERVAL"] > 0


def test_double_arm_and_unknown_node_rejected():
    async def check():
        supervisor = NodeSupervisor(FakeDeployment())
        supervisor.arm()
        try:
            with pytest.raises(LiveRuntimeError):
                supervisor.arm()
            with pytest.raises(LiveRuntimeError):
                supervisor.kill("stranger")
        finally:
            supervisor.stop()

    run(check())


# ----------------------------------------------------------------------
# Kill -> backoff -> restart
# ----------------------------------------------------------------------
def test_kill_closes_socket_and_watchdog_restarts():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            supervisor.kill("a", reason="test")
            record = supervisor.records["a"]
            assert record.state == DOWN
            assert deployment.processes["a"].transport.closed
            assert deployment.lifecycle == [("crash", "a")]

            assert await eventually(lambda: record.state == RUNNING)
            assert record.restarts == 1
            assert deployment.lifecycle[-1] == ("recover", "a")
            transport = deployment.processes["a"].transport
            assert transport.reopens == 1
            # Both neighbors were re-pointed at the fresh address and
            # reset their node-facing PoR epoch.
            for neighbor in ("b", "c"):
                peer = deployment.processes[neighbor]
                assert peer.transport.peer_updates == [
                    ("a", ("127.0.0.1", 40_001))
                ]
                assert peer.overlay.links["a"].por.resets == 1
        finally:
            supervisor.stop()

    run(check())


def test_backoffs_grow_exponentially_within_jitter_bounds():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            record = supervisor.records["a"]
            for expected_restarts in (1, 2, 3):
                supervisor.kill("a")
                assert await eventually(
                    lambda: record.restarts == expected_restarts
                )
            backoffs = record.backoffs
            assert len(backoffs) == 3
            # Strictly increasing: with jitter 0.1 and factor 2 the
            # jitter bands (base * [0.9, 1.1]) never overlap.
            assert backoffs[0] < backoffs[1] < backoffs[2]
            for attempt, backoff in enumerate(backoffs):
                base = supervision.BACKOFF_INITIAL * supervision.BACKOFF_FACTOR ** attempt
                assert base * 0.9 <= backoff <= base * 1.1
        finally:
            supervisor.stop()

    run(check())


def test_backoff_caps_at_configured_maximum(fast_policy):
    fast_policy.setattr(supervision, "BACKOFF_INITIAL", 0.02)
    fast_policy.setattr(supervision, "BACKOFF_FACTOR", 10.0)
    fast_policy.setattr(supervision, "BACKOFF_MAX", 0.05)
    fast_policy.setattr(supervision, "BACKOFF_JITTER", 0.0)

    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            record = supervisor.records["a"]
            for expected_restarts in (1, 2):
                supervisor.kill("a")
                assert await eventually(
                    lambda: record.restarts == expected_restarts
                )
            assert record.backoffs[1] == supervision.BACKOFF_MAX
        finally:
            supervisor.stop()

    run(check())


def test_held_node_waits_for_release():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            supervisor.kill("b", reason="chaos", hold=True)
            record = supervisor.records["b"]
            # Well past the first backoff's jitter band: still held down.
            await asyncio.sleep(0.15)
            assert record.state == DOWN
            supervisor.release("b")
            assert await eventually(lambda: record.state == RUNNING)
        finally:
            supervisor.stop()

    run(check())


def test_overlapping_kill_extends_hold_without_double_counting():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            supervisor.kill("a")
            supervisor.kill("a", hold=True)  # overlapping fault
            record = supervisor.records["a"]
            assert record.kills == 1
            assert record.held  # the second fault's hold sticks
            assert deployment.lifecycle.count(("crash", "a")) == 1
            supervisor.release("a")
            assert await eventually(lambda: record.state == RUNNING)
        finally:
            supervisor.stop()

    run(check())


# ----------------------------------------------------------------------
# Watchdog and circuit breaker
# ----------------------------------------------------------------------
def test_watchdog_notices_silently_dead_socket():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            # The socket dies without anyone calling kill().
            deployment.processes["c"].transport.close()
            record = supervisor.records["c"]
            assert await eventually(lambda: record.kills == 1)
            assert "watchdog" in record.last_reason
            assert await eventually(lambda: record.state == RUNNING)
        finally:
            supervisor.stop()

    run(check())


def test_circuit_breaker_gives_up_after_max_restarts(fast_policy):
    fast_policy.setattr(supervision, "BACKOFF_INITIAL", 0.01)
    fast_policy.setattr(supervision, "BACKOFF_FACTOR", 1.0)
    fast_policy.setattr(supervision, "BACKOFF_MAX", 0.01)
    fast_policy.setattr(supervision, "BACKOFF_JITTER", 0.0)
    fast_policy.setattr(supervision, "MAX_RESTARTS", 3)

    async def check():
        deployment = FakeDeployment()
        deployment.processes["a"].transport.fail_reopen = True
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            supervisor.kill("a")
            record = supervisor.records["a"]
            assert await eventually(lambda: record.state == BROKEN)
            assert record.restarts == 0
            assert record.consecutive_failures == supervision.MAX_RESTARTS
            # Broken is terminal: further kills are no-ops...
            supervisor.kill("a")
            assert record.kills == 1
            # ...and the watchdog never touches it again.
            await asyncio.sleep(0.05)
            assert record.state == BROKEN
            summary = supervisor.summary()
            assert summary["broken"] == ["a"]
            stats = deployment.processes["a"].stats
            assert stats.counter("supervisor.broken").value == 1
            assert stats.counter("supervisor.restart_failures").value == 3
        finally:
            supervisor.stop()

    run(check())


def test_summary_shape_and_counters():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            supervisor.kill("a")
            assert await eventually(
                lambda: supervisor.records["a"].state == RUNNING
            )
            summary = supervisor.summary()
            assert summary["kills"] == 1
            assert summary["restarts"] == 1
            assert summary["crashed_nodes"] == ["a"]
            assert set(summary["nodes"]) == {"a", "b", "c"}
            node = summary["nodes"]["a"]
            assert node["state"] == RUNNING
            assert len(node["backoffs"]) == 1
            stats = deployment.processes["a"].stats
            assert stats.counter("supervisor.kills").value == 1
            assert stats.counter("supervisor.restarts").value == 1
        finally:
            supervisor.stop()

    run(check())


# ----------------------------------------------------------------------
# Port reclamation on restart (bounded rebind attempts)
# ----------------------------------------------------------------------
def test_rebind_reclaims_previous_port_first():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            transport = deployment.processes["a"].transport
            transport.last_local_port = 45_678
            supervisor.kill("a")
            assert await eventually(
                lambda: supervisor.records["a"].state == RUNNING
            )
            # One bind attempt, straight at the old port: peers'
            # registrations stay valid without any re-announce.
            assert transport.reopen_ports == [45_678]
            assert transport.last_local_port == 45_678
        finally:
            supervisor.stop()

    run(check())


def test_rebind_falls_back_to_ephemeral_when_port_taken():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        supervisor.arm()
        try:
            transport = deployment.processes["a"].transport
            transport.last_local_port = 45_678
            transport.busy_ports = {45_678}  # another process won the bind race
            supervisor.kill("a")
            assert await eventually(
                lambda: supervisor.records["a"].state == RUNNING
            )
            assert transport.reopen_ports == [45_678, 0]
            # Peers were re-pointed at the fresh ephemeral address.
            for other in ("b", "c"):
                peer = deployment.processes[other].transport
                assert ("a", ("127.0.0.1", transport.last_local_port)) \
                    in peer.peer_updates
        finally:
            supervisor.stop()

    run(check())


def test_rebind_attempts_are_bounded():
    async def check():
        deployment = FakeDeployment()
        supervisor = NodeSupervisor(deployment)
        transport = deployment.processes["a"].transport
        transport.last_local_port = 45_678
        transport.fail_reopen = True  # every bind fails
        with pytest.raises(OSError):
            await supervisor._rebind(transport)
        # Old port first, then exactly (attempts - 1) ephemeral retries.
        assert transport.reopen_ports == [45_678, 0, 0]

    run(check())


def test_rebind_against_real_prebound_socket():
    """Satellite regression: a real UDP socket squats the node's old
    port, so the reclaim attempt genuinely fails at the OS level and the
    bounded fallback must deliver a working ephemeral bind."""
    import socket

    from repro.runtime.transport import AsyncioUdpTransport

    async def check():
        transport = await AsyncioUdpTransport.open("n1")
        old_port = transport.local_address[1]
        transport.close()
        await asyncio.sleep(0.05)  # asyncio closes the fd on a later tick
        squatter = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        squatter.bind(("127.0.0.1", old_port))
        try:
            deployment = FakeDeployment()
            supervisor = NodeSupervisor(deployment)
            address = await supervisor._rebind(transport)
            assert address[1] != old_port  # fell back to an ephemeral port
            assert not transport.closed
        finally:
            squatter.close()
            transport.close()

    run(check())
