"""Tests for the live runtime: scheduler semantics, seam conformance,
UDP transport dispatch, and a real end-to-end localhost deployment.

The end-to-end cases boot actual UDP sockets on 127.0.0.1 and run the
unmodified protocol stack for about a second of wall clock — slow for a
unit test, but this is the only tier that proves the sim/live seam holds
on real sockets.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, LiveRuntimeError
from repro.link.por import _HelloWrapper
from repro.messaging.message import Hello, Semantics
from repro.runtime.interfaces import (
    CancellableHandle,
    ClockLike,
    SchedulerLike,
    TransportLike,
)
from repro.runtime.live import LiveConfig, LiveDeployment, live_topology, run_live
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.transport import AsyncioUdpTransport
from repro.runtime.wire import encode_datagram
from repro.sim.channel import Channel, ChannelConfig, SimTransport
from repro.sim.engine import PeriodicTimer, Simulator
from repro.topology.graph import Topology


#: Report key sets captured from the commit before ``ShardDeployment``
#: stopped forking ``LiveDeployment`` (shared with the cluster tests).
PARENT_REPORT_KEYS = json.loads(
    (Path(__file__).parent / "data" / "report_keys_parent.json").read_text()
)


def run(coro):
    """Run a coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Seam conformance: both substrates satisfy the runtime protocols
# ----------------------------------------------------------------------
def test_simulator_satisfies_scheduler_protocol():
    sim = Simulator(seed=1)
    assert isinstance(sim, SchedulerLike)
    assert isinstance(sim, ClockLike)
    handle = sim.schedule(1.0, lambda: None)
    assert isinstance(handle, CancellableHandle)


def test_asyncio_scheduler_satisfies_scheduler_protocol():
    async def check():
        scheduler = AsyncioScheduler(seed=1)
        assert isinstance(scheduler, SchedulerLike)
        assert isinstance(scheduler, ClockLike)
        handle = scheduler.schedule(1.0, lambda: None)
        assert isinstance(handle, CancellableHandle)
        handle.cancel()

    run(check())


def test_sim_channel_satisfies_transport_protocol():
    sim = Simulator()
    channel = Channel(sim, ChannelConfig(latency=0.01))
    assert isinstance(channel, TransportLike)
    assert SimTransport is Channel


def test_udp_channels_satisfy_transport_protocol():
    async def check():
        transport = await AsyncioUdpTransport.open("a")
        transport.register_peer("b", ("127.0.0.1", 9))
        assert isinstance(transport.send_channel("b"), TransportLike)
        assert isinstance(transport._inbound["b"], TransportLike)
        transport.close()

    run(check())


# ----------------------------------------------------------------------
# AsyncioScheduler semantics
# ----------------------------------------------------------------------
def test_scheduler_runs_callbacks_in_order():
    async def check():
        scheduler = AsyncioScheduler(seed=0)
        fired = []
        scheduler.schedule(0.03, fired.append, "late")
        scheduler.schedule(0.01, fired.append, "early")
        scheduler.call_soon(fired.append, "soon")
        await asyncio.sleep(0.08)
        assert fired == ["soon", "early", "late"]
        assert scheduler.events_run == 3
        assert scheduler.pending == 0

    run(check())


def test_scheduler_cancel_is_idempotent_and_counts():
    async def check():
        scheduler = AsyncioScheduler(seed=0)
        fired = []
        handle = scheduler.schedule(0.01, fired.append, "never")
        handle.cancel()
        handle.cancel()  # second cancel is a no-op
        await asyncio.sleep(0.03)
        assert fired == []
        assert scheduler.pending == 0
        assert scheduler.events_run == 0

    run(check())


def test_scheduler_clamps_past_deadlines_instead_of_raising():
    async def check():
        scheduler = AsyncioScheduler(seed=0)
        fired = []
        # The simulator raises on negative delays; wall clock clamps,
        # because "now" has already moved by the time a follow-up
        # computed from it is scheduled.
        scheduler.schedule(-1.0, fired.append, "past")
        scheduler.schedule_at(scheduler.now - 5.0, fired.append, "way past")
        await asyncio.sleep(0.03)
        assert sorted(fired) == ["past", "way past"]

    run(check())


def test_scheduler_shutdown_cancels_everything():
    async def check():
        scheduler = AsyncioScheduler(seed=0)
        fired = []
        for _ in range(5):
            scheduler.schedule(0.01, fired.append, "x")
        # Fire-and-forget callbacks hand out no handle, but teardown
        # still reaches them.
        scheduler.schedule_transient_at(scheduler.now + 0.01, fired.append, "y")
        assert scheduler.pending == 6
        assert scheduler.shutdown() == 6
        await asyncio.sleep(0.03)
        assert fired == []

    run(check())


def test_scheduler_seeds_named_rng_streams_deterministically():
    async def check():
        a = AsyncioScheduler(seed=42)
        b = AsyncioScheduler(seed=42)
        assert a.rngs.stream("x").random() == b.rngs.stream("x").random()

    run(check())


def test_periodic_timer_runs_on_asyncio_scheduler():
    async def check():
        scheduler = AsyncioScheduler(seed=0)
        ticks = []
        timer = PeriodicTimer(scheduler, 0.02, lambda: ticks.append(scheduler.now))
        timer.start()
        await asyncio.sleep(0.09)
        timer.stop()
        assert timer._handle is None
        count = len(ticks)
        await asyncio.sleep(0.03)
        assert len(ticks) == count  # stopped means stopped
        assert count >= 2

    run(check())


# ----------------------------------------------------------------------
# UDP transport dispatch and drop accounting
# ----------------------------------------------------------------------
def test_transport_delivers_between_two_sockets():
    async def check():
        a = await AsyncioUdpTransport.open("a")
        b = await AsyncioUdpTransport.open("b")
        a.register_peer("b", b.local_address)
        received = []
        channel = b.register_peer("a", a.local_address)
        channel.on_receive = received.append
        a.send_channel("b").send(_HelloWrapper(Hello("a", 7)), 24)
        await asyncio.sleep(0.05)
        assert len(received) == 1
        assert received[0].hello == Hello("a", 7)
        a.close()
        b.close()

    run(check())


def test_transport_drops_junk_misdirected_and_unknown():
    async def check():
        node = await AsyncioUdpTransport.open("n")
        peer = await AsyncioUdpTransport.open("peer")
        node.register_peer("peer", peer.local_address)
        received = []
        node._inbound["peer"].on_receive = received.append

        loop = asyncio.get_event_loop()
        spray, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=node.local_address
        )
        hello = _HelloWrapper(Hello("peer", 1))
        spray.sendto(b"not a datagram")                        # junk
        spray.sendto(encode_datagram("peer", "other", hello))  # misdirected
        spray.sendto(encode_datagram("mallory", "n", hello))   # unknown sender
        spray.sendto(encode_datagram("peer", "n", hello))      # valid
        await asyncio.sleep(0.05)

        assert received == [hello] or received[0].hello == hello.hello
        assert node.decode_errors == 1
        assert node.misdirected == 1
        assert node.unknown_sender == 1
        spray.close()
        node.close()
        peer.close()

    run(check())


def test_send_channel_drops_unencodable_payloads():
    async def check():
        a = await AsyncioUdpTransport.open("a")
        a.register_peer("b", ("127.0.0.1", 9))
        channel = a.send_channel("b")
        channel.send(object(), 100)  # not wire-encodable: counted, not raised
        await asyncio.sleep(0)  # the coalesced flush encodes it
        assert channel.encode_errors == 1
        assert a.encode_errors == 1
        a.close()

    run(check())


def test_receive_channel_refuses_to_send():
    async def check():
        a = await AsyncioUdpTransport.open("a")
        a.register_peer("b", ("127.0.0.1", 9))
        with pytest.raises(LiveRuntimeError):
            a._inbound["b"].send(object(), 1)
        with pytest.raises(LiveRuntimeError):
            a.send_channel("missing")
        a.close()

    run(check())


# ----------------------------------------------------------------------
# Live deployment end to end
# ----------------------------------------------------------------------
def test_live_config_validation():
    with pytest.raises(ConfigurationError):
        LiveConfig(nodes=1)
    with pytest.raises(ConfigurationError):
        LiveConfig(duration=0)
    with pytest.raises(ConfigurationError):
        LiveConfig(rate_msgs_per_sec=0)


def test_live_topology_shapes():
    assert live_topology(3).edge_count == 3  # clique
    ring = live_topology(8)                  # ring + chord offsets 2 and 3
    assert ring.edge_count == 24
    assert all(ring.degree(node) >= 4 for node in ring.nodes)
    for n in (2, 5, 9):
        topo = live_topology(n)
        assert topo.reachable_from(1) == set(topo.nodes)


def test_live_deployment_delivers_both_semantics():
    report = run_live(
        LiveConfig(nodes=4, duration=1.2, seed=3, rate_msgs_per_sec=30.0)
    )
    assert not report.runtime_errors, report.runtime_errors
    assert not report.interrupted
    semantics = {flow.semantics for flow in report.flows}
    assert semantics == {Semantics.PRIORITY.value, Semantics.RELIABLE.value}
    assert all(flow.sent > 0 for flow in report.flows)
    # Localhost, no loss, generous drain: everything should arrive.
    assert report.delivery_ratio == 1.0
    assert report.transport["decode_errors"] == 0
    assert report.transport["encode_errors"] == 0
    assert report.transport["misdirected"] == 0
    # The report serializes (this is what --output and CI consume).
    as_dict = report.to_dict()
    assert as_dict["nodes"] == 4
    assert len(as_dict["per_node"]) == 4
    assert as_dict["delivery_ratio"] == 1.0
    # The JSON shape is a contract (CI gates and artifacts read it).
    assert sorted(as_dict) == PARENT_REPORT_KEYS["live"]
    assert sorted(as_dict["flows"][0]) == PARENT_REPORT_KEYS["live_flow"]


def test_live_deployment_collects_per_node_telemetry():
    report = run_live(
        LiveConfig(nodes=2, duration=0.8, seed=1, rate_msgs_per_sec=10.0)
    )
    for snapshot in report.per_node.values():
        assert "counters" in snapshot
    # Each node owns its own registry: the transport counters must be
    # present on every node, not aggregated into one.
    rx = [
        snapshot["counters"].get("live.rx.datagrams", 0)
        for snapshot in report.per_node.values()
    ]
    assert all(count > 0 for count in rx)


def test_boot_hooks_run_between_bind_wire_and_traffic():
    """The two seams a cluster shard hangs its control-plane barrier on:
    after the local sockets are bound (nothing wired yet), and once
    everything is wired but before chaos arms and traffic starts."""
    seen = {}

    class Hooked(LiveDeployment):
        async def _after_bind(self):
            seen["bind"] = (
                sorted(self.addresses),
                [len(p.overlay.links) for p in self.processes.values()],
            )

        async def _before_traffic(self):
            seen["traffic"] = (
                [len(p.overlay.links) for p in self.processes.values()],
                self.supervisor is not None,
                self.chaos_engine._armed,
                list(self.traffic),
            )

    async def check():
        deployment = Hooked(
            LiveConfig(nodes=3, duration=1.0, chaos_preset="link", seed=2)
        )
        assert deployment.local_nodes is None  # resolved in start()
        await deployment.start()
        try:
            assert deployment.local_nodes == [1, 2, 3]
            assert deployment.chaos_engine._armed and deployment.traffic
        finally:
            await deployment.stop()

    run(check())
    assert seen["bind"] == ([1, 2, 3], [0, 0, 0])
    assert seen["traffic"] == ([2, 2, 2], True, False, [])


def test_deployment_registry_is_the_one_holding_the_pki_counters():
    """``deployment.stats`` (where chaos counters and trace events land)
    must be the registry the shared PKI's crypto counters were attached
    to — the first node *booted* — also when node ids sort differently
    as strings ('10' < '7'), as in a cluster shard hosting 7..12."""
    topology = Topology()
    ids = list(range(7, 13))
    for a, b in zip(ids, ids[1:] + ids[:1]):
        topology.add_edge(a, b, 0.001)

    async def check():
        deployment = LiveDeployment(
            LiveConfig(nodes=6, duration=1.0, flow_traffic=False)
        )
        deployment.topology = topology
        with pytest.raises(LiveRuntimeError):
            deployment.stats  # not started
        await deployment.start()
        try:
            assert deployment.stats is deployment.processes[7].stats
            assert deployment.pki._sign_ops is (
                deployment.stats.counter("crypto.sign")
            )
        finally:
            await deployment.stop()

    run(check())


def test_live_deployment_double_start_rejected():
    async def check():
        deployment = LiveDeployment(LiveConfig(nodes=2, duration=1.0))
        await deployment.start()
        try:
            with pytest.raises(LiveRuntimeError):
                await deployment.start()
        finally:
            await deployment.stop()
        # stop() is idempotent.
        await deployment.stop()

    run(check())


def test_live_start_partial_failure_closes_opened_sockets(monkeypatch):
    # If the third node's bind fails, the two sockets already bound must
    # be closed before the error propagates — a failed boot never leaks.
    async def check():
        opened = []
        real_open = AsyncioUdpTransport.open.__func__

        async def flaky_open(cls, node_id, **kwargs):
            if len(opened) == 2:
                raise OSError("bind failed")
            transport = await real_open(cls, node_id, **kwargs)
            opened.append(transport)
            return transport

        monkeypatch.setattr(AsyncioUdpTransport, "open", classmethod(flaky_open))
        deployment = LiveDeployment(LiveConfig(nodes=3, duration=1.0))
        with pytest.raises(OSError, match="bind failed"):
            await deployment.start()
        assert len(opened) == 2
        assert all(transport.closed for transport in opened)
        # stop() after the failed start stays a safe no-op.
        await deployment.stop()

    run(check())


def test_poisoned_receive_handler_is_attributed_and_fails_the_run():
    # A receive handler that raises must not kill the event loop; the
    # error is charged to the owning node and the run is marked failed —
    # delivery numbers from a node that throws on receive prove nothing.
    async def check():
        deployment = LiveDeployment(
            LiveConfig(nodes=2, duration=0.8, seed=2, rate_msgs_per_sec=30.0)
        )
        await deployment.start()

        def poisoned(packet):
            raise RuntimeError("poisoned handler")

        deployment.processes[1].transport._inbound[2].on_receive = poisoned
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        report = deployment.report()
        assert report.failed
        assert not report.ok
        assert any("receive dispatch failed" in e for e in report.runtime_errors)
        assert any("node 1" in e for e in report.runtime_errors)
        assert report.transport["dispatch_errors"] >= 1
        snapshot = deployment.processes[1].snapshot()
        assert snapshot["counters"].get("live.loop.exceptions", 0) >= 1

    run(check())
