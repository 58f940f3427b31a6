"""In-process shard-worker tests.

The integration suite (``test_cluster_live.py``) runs workers as real
spawned OS processes — faithful, but invisible to the coverage tracer
and expensive to iterate on.  Here the *same* worker code path
(:func:`repro.cluster.worker._worker` / :class:`ShardDeployment`) runs
inside the test's own event loop against a hand-rolled coordinator
endpoint, so every control-plane branch — boot barrier, hosted and
forged JOINs, LEAVE drain, peer updates, restart announces, lost
coordinator — is exercised and traced without crossing a process
boundary.  Seed-node bootstrap discovery gets the same treatment over
real loopback UDP sockets.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Tuple

import pytest

from repro.cluster import worker as worker_mod
from repro.cluster.control import control_key, read_frame, write_frame
from repro.cluster.discovery import SeedDirectory, query_addresses
from repro.cluster.membership import (
    LEAVE,
    MembershipRecord,
    membership_key,
    next_join_record,
)
from repro.cluster.worker import ShardDeployment, _node, _worker_live_config
from repro.errors import LiveRuntimeError
from repro.overlay.config import DisseminationMethod
from repro.runtime.live import LiveDeployment
from repro.runtime.transport import AsyncioUdpTransport
from repro.runtime.wire import AddrAnnounce, encode_datagram
from repro.topology.generators import large_overlay
from tests.test_runtime_live import PARENT_REPORT_KEYS

SEED = 29


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90.0))


def _payload(
    topology,
    control_port: int,
    *,
    duration: float = 3.0,
    drain: float = 1.0,
    kpaths: int = 2,
    flow_stride: int = 2,
    seed_nodes: Dict[int, Any] | None = None,
) -> Dict[str, Any]:
    """The spawn payload the coordinator would build for a single shard
    hosting the whole topology (mirrors ``ClusterDeployment.start``)."""
    nodes = sorted(topology.nodes)
    return {
        "shard_id": 0,
        "nodes": nodes,
        "all_nodes": nodes,
        "edges": [[a, b, topology.weight(a, b)] for a, b in topology.edges()],
        "seed": SEED,
        "total_nodes": len(nodes),
        "duration": duration,
        "rate_msgs_per_sec": 5.0,
        "size_bytes": 200,
        "host": "127.0.0.1",
        "drain": drain,
        "kpaths": kpaths,
        "flow_stride": flow_stride,
        "chaos": None,
        "epoch": 0.0,
        "control_host": "127.0.0.1",
        "control_port": control_port,
        "seed_nodes": seed_nodes or {"0": nodes[0]},
    }


class FakeCoordinator:
    """One-connection control-plane endpoint for driving a worker."""

    def __init__(self):
        self.key = control_key(SEED)
        self._accepted: asyncio.Future = asyncio.get_event_loop().create_future()
        self.server = None
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self._on_connect, "127.0.0.1", 0
        )
        return self

    async def __aexit__(self, *exc):
        if self.writer is not None:
            self.writer.close()
        self.server.close()
        await self.server.wait_closed()

    @property
    def port(self) -> int:
        return self.server.sockets[0].getsockname()[1]

    def _on_connect(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._accepted.set_result(None)

    async def accept(self):
        await asyncio.wait_for(self._accepted, timeout=10.0)

    async def send(self, body: Dict[str, Any]) -> None:
        await write_frame(self.writer, self.key, body)

    async def recv(self, kind: str, timeout: float = 30.0) -> Dict[str, Any]:
        """The next frame of ``kind``, skipping heartbeats/announces."""

        async def until():
            while True:
                frame = await read_frame(self.reader, self.key)
                if frame.get("kind") == kind:
                    return frame

        return await asyncio.wait_for(until(), timeout)

    async def boot_barrier(self) -> Dict[str, Any]:
        """hello -> addr_map -> ready -> start; returns the address map."""
        hello = await self.recv("hello")
        await self.send({"kind": "addr_map", "addresses": hello["addresses"]})
        await self.recv("ready")
        await self.send({"kind": "start"})
        return hello["addresses"]


def test_worker_end_to_end_with_membership_churn(monkeypatch):
    """The full worker lifecycle in one loop: boot barrier, traffic,
    heartbeats, a hosted JOIN (with UDP seed-node discovery), forged and
    stale JOIN rejections, a LEAVE drain, a peer update, STOP, report."""
    monkeypatch.setattr(worker_mod, "HEARTBEAT_INTERVAL", 0.1)
    topo = large_overlay(8, degree=4, seed=SEED)
    nodes = sorted(topo.nodes)
    mkey = membership_key(SEED)

    async def scenario():
        async with FakeCoordinator() as coord:
            payload = _payload(topo, coord.port)
            task = asyncio.get_event_loop().create_task(
                worker_mod._worker(payload)
            )
            await coord.accept()
            addresses = await coord.boot_barrier()
            assert set(addresses) == {str(n) for n in nodes}

            # Liveness: heartbeats flow from the worker unprompted.
            beat = await coord.recv("heartbeat")
            assert beat["shard"] == 0

            # Hosted JOIN: the worker boots the joiner, resolves anchors
            # through its seed node over UDP, and acks with the address.
            join = next_join_record(
                nodes, seqno=2,
                anchors=((nodes[0], 0.01), (nodes[1], 0.01)),
            ).signed(mkey)
            await coord.send(
                {"kind": "join", "record": join.to_dict(), "host_shard": 0}
            )
            ack = await coord.recv("join_ack")
            assert ack["ok"] is True
            assert _node(ack["node"]) == max(nodes) + 1
            assert len(ack["address"]) == 2

            # A forged record (bad signature) and a stale replay (old
            # seqno) are both rejected by the hosting shard with a NAK.
            forged = MembershipRecord(
                LEAVE, nodes[3], 3, (), signature="00" * 32
            )
            await coord.send(
                {"kind": "join", "record": forged.to_dict(), "host_shard": 0}
            )
            nak = await coord.recv("join_ack")
            assert nak["ok"] is False
            await coord.send(
                {"kind": "join", "record": join.to_dict(), "host_shard": 0}
            )
            stale = await coord.recv("join_ack")
            assert stale["ok"] is False

            # Signed LEAVE: flows touching the leaver stop, the node is
            # retired after the drain grace, the directory forgets it.
            leave = MembershipRecord(LEAVE, nodes[4], 3).signed(mkey)
            await coord.send({"kind": "leave", "record": leave.to_dict()})

            # Relayed restart announce from another shard: local peers
            # re-point and reset their PoR halves (no link -> skipped).
            await coord.send(
                {
                    "kind": "peer_update",
                    "node": nodes[1],
                    "address": list(addresses[str(nodes[1])]),
                }
            )

            await asyncio.sleep(0.8)  # past LEAVE_DRAIN_GRACE
            await coord.send({"kind": "stop"})
            frame = await coord.recv("report")
            await asyncio.wait_for(task, timeout=30.0)
            return frame["report"]

    report = run(scenario())
    assert report["shard"] == 0
    assert report["failed"] is False
    assert report["joined"] == [max(nodes) + 1]
    assert report["departed"] == [nodes[4]]
    ledger = report["membership"]
    assert ledger["last_seqno"] == 3
    assert [r["action"] for r in ledger["accepted"]] == ["join", "leave"]
    assert ledger["rejected_forged"] == 1
    assert ledger["rejected_stale"] == 1
    # Traffic ran: the stride-thinned flow plan plus the joiner's two
    # post-join flows, all with real sends.
    post_join = [f for f in report["flows"] if f["post_join"]]
    assert len(post_join) == 2
    assert all(f["source"] == max(nodes) + 1 for f in post_join)
    assert sum(f["sent"] for f in report["flows"]) > 0
    assert report["runtime_errors"] == []
    assert set(report["per_node"]) >= {str(n) for n in nodes if n != nodes[4]}


def test_worker_reports_boot_failure_to_coordinator():
    """A broken boot barrier (wrong frame kind) must tear the shard down
    and still ship a failed report — never hang or die silently."""
    topo = large_overlay(6, degree=4, seed=SEED)

    async def scenario():
        async with FakeCoordinator() as coord:
            payload = _payload(topo, coord.port, duration=2.0)
            task = asyncio.get_event_loop().create_task(
                worker_mod._worker(payload)
            )
            await coord.accept()
            await coord.recv("hello")
            await coord.send({"kind": "bogus"})
            frame = await coord.recv("report")
            await asyncio.wait_for(task, timeout=30.0)
            return frame["report"]

    report = run(scenario())
    assert report["failed"] is True
    assert any("addr_map" in err for err in report["runtime_errors"])


def test_worker_survives_lost_coordinator_and_announces_restarts():
    """Direct ShardDeployment handle: a supervised-restart announce goes
    up the control plane (and over UDP to other shards' seed nodes), and
    a dead coordinator connection stops the serve loop cleanly instead
    of wedging the shard."""
    topo = large_overlay(6, degree=4, seed=SEED)
    nodes = sorted(topo.nodes)

    async def scenario():
        async with FakeCoordinator() as coord:
            # Pretend a second shard exists whose seed node we host, so
            # the announce fast path has a UDP target to hit.
            payload = _payload(
                topo, coord.port, duration=2.0,
                seed_nodes={"0": nodes[0], "1": nodes[2]},
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coord.port
            )
            await coord.accept()
            deployment = ShardDeployment(payload, reader, writer)
            barrier = asyncio.get_event_loop().create_task(
                coord.boot_barrier()
            )
            await deployment.start()
            await barrier
            serve = asyncio.get_event_loop().create_task(
                deployment.serve_cluster()
            )

            deployment.announce_restart(nodes[1], ("127.0.0.1", 45999))
            announce = await coord.recv("announce")
            assert _node(announce["node"]) == nodes[1]
            assert announce["address"] == ["127.0.0.1", 45999]
            assert deployment.addresses[nodes[1]] == ("127.0.0.1", 45999)

            # Coordinator dies: the serve loop notices and returns.
            coord.writer.close()
            await asyncio.wait_for(serve, timeout=30.0)
            await deployment.stop()
            writer.close()
            return deployment

    deployment = run(scenario())
    errors = " ".join(deployment._runtime_errors)
    assert "connection lost" in errors
    report = deployment.shard_report()
    assert report["shard"] == 0
    assert report["failed"] is False
    assert report["transport"]["datagrams_received"] > 0
    # Shape contract: the parent commit's keys, with every section a
    # shard shares with a live report coming from the one builder.
    assert sorted(report) == PARENT_REPORT_KEYS["shard"]
    assert sorted(report["flows"][0]) == PARENT_REPORT_KEYS["shard_flow"]
    assert ShardDeployment._report_sections is LiveDeployment._report_sections
    shared = deployment._report_sections()
    assert set(shared) < set(report) and set(shared) < set(PARENT_REPORT_KEYS["live"])
    assert all(report[key] == shared[key] for key in shared)
    # A shard adds cluster mechanics only; assembly is LiveDeployment's.
    for name in ("_boot", "_boot_node", "_wire_half", "_launch_flow"):
        assert name not in vars(ShardDeployment)


def test_worker_live_config_flooding_and_node_coercion():
    topo = large_overlay(5, degree=2, seed=1)
    payload = _payload(topo, control_port=1, kpaths=0)
    config = _worker_live_config(payload)
    assert config.method == DisseminationMethod.flooding()
    assert config.nodes == 5
    assert _node("7") == 7
    assert _node("spine") == "spine"


def test_seed_directory_answers_queries_and_applies_announces():
    """Bootstrap discovery over real loopback UDP: queries resolve what
    the directory knows (silently omitting what it does not), announces
    update it, and an unreachable seed times out with a bounded retry."""

    async def scenario() -> Tuple[Dict[Any, Any], Dict[Any, Any], SeedDirectory, list]:
        seed_t = await AsyncioUdpTransport.open(1, host="127.0.0.1")
        joiner_t = await AsyncioUdpTransport.open(9, host="127.0.0.1")
        announced = []
        directory = SeedDirectory(
            seed_t,
            {1: seed_t.local_address, 3: ("127.0.0.1", 41000)},
            on_announce=lambda node, addr: announced.append((node, addr)),
        )
        try:
            resolved = await query_addresses(
                joiner_t, 1, seed_t.local_address, targets=(3, 5), nonce=70
            )
            # An announce folds a new binding in; re-query sees it.
            joiner_t.sendto_address(
                encode_datagram(9, 1, AddrAnnounce(9, "127.0.0.1", 42424)),
                seed_t.local_address,
            )
            await asyncio.sleep(0.1)
            directory.forget(3)
            second = await query_addresses(
                joiner_t, 1, seed_t.local_address, targets=(3, 9), nonce=71
            )
            return resolved, second, directory, announced
        finally:
            seed_t.close()
            joiner_t.close()

    resolved, second, directory, announced = run(scenario())
    assert resolved == {3: ("127.0.0.1", 41000)}
    assert second == {9: ("127.0.0.1", 42424)}
    assert directory.queries_answered == 2
    assert directory.announces_applied == 1
    assert announced == [(9, ("127.0.0.1", 42424))]


def test_query_addresses_times_out_against_dead_seed():
    async def scenario():
        transport = await AsyncioUdpTransport.open(2, host="127.0.0.1")
        try:
            with pytest.raises(LiveRuntimeError, match="timed out"):
                await query_addresses(
                    transport, 1, ("127.0.0.1", 1), targets=(3,),
                    nonce=5, timeout=0.05, attempts=2,
                )
        finally:
            transport.close()

    run(scenario())
