"""Unit tests for the sharded cluster runtime's process-free pieces.

Everything here runs in this process: spec validation and topology
partitioning, authenticated control-plane frames, signed membership
records and the replay ledger, the pure report rollup (satellite:
deterministic per-shard metrics), the large-topology generator, and the
shared scheduler epoch.  The multi-process paths are covered by
``tests/test_cluster_live.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster.control import (
    control_key,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cluster.deployment import ClusterReport, excluded_nodes, rollup
from repro.cluster.membership import (
    JOIN,
    LEAVE,
    MembershipLedger,
    MembershipRecord,
    membership_key,
    next_join_record,
)
from repro.cluster.spec import ClusterConfig, ShardSpec, partition_topology
from repro.errors import ConfigurationError, LiveRuntimeError
from repro.topology.generators import large_overlay
from repro.topology.mtmw import MtmwUpdateResult
from tests.test_runtime_live import PARENT_REPORT_KEYS


# ----------------------------------------------------------------------
# Spec / partitioning
# ----------------------------------------------------------------------
def test_cluster_config_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=3)
    with pytest.raises(ConfigurationError):
        ClusterConfig(shards=1)
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=8, shards=9)
    with pytest.raises(ConfigurationError):
        ClusterConfig(chaos_preset="nope")
    with pytest.raises(ConfigurationError):
        ClusterConfig(flow_stride=0)
    with pytest.raises(ConfigurationError):
        ShardSpec(shard_id=-1, nodes=(1,))
    with pytest.raises(ConfigurationError):
        ShardSpec(shard_id=0, nodes=())


def test_partition_topology_contiguous_and_complete():
    topo = large_overlay(23, seed=5)
    shards = partition_topology(topo, 4)
    assert [s.shard_id for s in shards] == [0, 1, 2, 3]
    sizes = [len(s.nodes) for s in shards]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1
    covered = [n for s in shards for n in s.nodes]
    assert covered == sorted(topo.nodes)  # complete, numerically contiguous
    for spec in shards:
        assert list(spec.nodes) == list(
            range(spec.nodes[0], spec.nodes[0] + len(spec.nodes))
        )
    # Contiguity is what keeps the circulant ring shard-internal: only
    # slice boundaries and chords cross processes (a lexicographic order
    # — 1, 10, 11, ... — cuts 21 of this overlay's 49 edges).
    home = {n: s.shard_id for s in shards for n in s.nodes}
    crossing = sum(home[a] != home[b] for a, b in topo.edges())
    assert crossing <= 16
    # Seed node = first node of each slice, stable across processes.
    for spec in shards:
        assert spec.seed_node == spec.nodes[0]


# ----------------------------------------------------------------------
# Control-plane frames
# ----------------------------------------------------------------------
def test_control_frame_roundtrip_and_forgery():
    key = control_key(42)
    body = {"kind": "heartbeat", "shard_id": 1, "now": 2.5}
    frame = encode_frame(key, body)
    assert decode_frame(key, frame[4:]) == body
    # A different run's key (or an attacker without the key) is rejected.
    with pytest.raises(LiveRuntimeError):
        decode_frame(control_key(43), frame[4:])
    # Bit-flipping the body without re-MACing is rejected.
    tampered = frame[4:].replace(b'"shard_id": 1', b'"shard_id": 2')
    assert tampered != frame[4:]  # the replace actually hit
    with pytest.raises(LiveRuntimeError):
        decode_frame(key, tampered)
    with pytest.raises(LiveRuntimeError):
        decode_frame(key, b"not json at all")


def test_deeply_nested_control_frame_is_malformed_not_a_crash():
    """Nesting deeper than the JSON parser's stack (200 kB, far below
    MAX_FRAME) is rejected like any other malformed frame, before the
    MAC is checked, instead of escaping as RecursionError."""
    key = control_key(42)
    nested = b"[" * 100_000 + b"]" * 100_000
    with pytest.raises(LiveRuntimeError, match="malformed"):
        decode_frame(key, nested)
    with pytest.raises(LiveRuntimeError, match="malformed"):
        decode_frame(key, b'{"mac": "00", "body": ' + nested + b"}")


@pytest.mark.parametrize("mac", ["\u00e9", "0" * 63 + "\u00e9", "\u2603" * 64])
def test_non_ascii_control_mac_is_malformed_not_a_crash(mac):
    """``hmac.compare_digest`` refuses a non-ASCII str with TypeError,
    which the connection and shard readers do not catch: an
    unauthenticated frame carrying one is rejected as malformed."""
    key = control_key(42)
    blob = json.dumps({"mac": mac, "body": {}}).encode()
    with pytest.raises(LiveRuntimeError, match="malformed"):
        decode_frame(key, blob)


def test_control_frames_over_real_stream():
    async def check():
        key = control_key(7)
        received = []
        done = asyncio.Event()

        async def on_connect(reader, writer):
            received.append(await read_frame(reader, key))
            received.append(await read_frame(reader, key))
            writer.close()
            done.set()

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        await write_frame(writer, key, {"kind": "hello", "shard_id": 0})
        await write_frame(writer, key, {"kind": "ready", "big": "x" * 5000})
        await asyncio.wait_for(done.wait(), 5.0)
        writer.close()
        server.close()
        await server.wait_closed()
        assert received[0] == {"kind": "hello", "shard_id": 0}
        assert received[1]["big"] == "x" * 5000

    asyncio.run(check())


# ----------------------------------------------------------------------
# Signed membership
# ----------------------------------------------------------------------
def test_membership_record_sign_verify_and_forgery():
    key = membership_key(3)
    record = MembershipRecord(JOIN, 25, 2, ((1, 0.01), (7, 0.02))).signed(key)
    assert record.verify(key)
    # Unsigned, wrong-key, and field-tampered records all fail.
    assert not MembershipRecord(JOIN, 25, 2, ((1, 0.01),)).verify(key)
    assert not record.verify(membership_key(4))
    tampered = MembershipRecord(
        record.action, 26, record.seqno, record.links, record.signature
    )
    assert not tampered.verify(key)
    # Wire round-trip preserves the signature bit-for-bit.
    again = MembershipRecord.from_dict(record.to_dict())
    assert again == record and again.verify(key)


def test_membership_record_validation():
    with pytest.raises(ConfigurationError):
        MembershipRecord("evict", 5, 2)
    with pytest.raises(ConfigurationError):
        MembershipRecord(LEAVE, 5, 1)  # seqno 1 is the boot MTMW
    with pytest.raises(ConfigurationError):
        MembershipRecord(JOIN, 5, 2)  # join without anchors


def test_membership_ledger_replay_protection():
    key = membership_key(9)
    ledger = MembershipLedger(key)
    join = next_join_record([1, 2, 3], 2, ((1, 0.01),)).signed(key)
    assert join.node == 4  # max(existing) + 1
    assert ledger.consider(join) is MtmwUpdateResult.ACCEPTED
    # Replay of the same (or any older) seqno is STALE.
    assert ledger.consider(join) is MtmwUpdateResult.STALE
    leave_forged = MembershipRecord(LEAVE, 2, 3).signed(membership_key(8))
    assert ledger.consider(leave_forged) is MtmwUpdateResult.BAD_SIGNATURE
    leave = MembershipRecord(LEAVE, 2, 3).signed(key)
    assert ledger.consider(leave) is MtmwUpdateResult.ACCEPTED
    summary = ledger.summary()
    assert summary["last_seqno"] == 3
    assert summary["rejected_stale"] == 1
    assert summary["rejected_forged"] == 1
    assert [r["node"] for r in summary["accepted"]] == [4, 2]


# ----------------------------------------------------------------------
# Report rollup (deterministic per-shard metrics)
# ----------------------------------------------------------------------
def _canned_shard_reports():
    """Two shards: shard 0 sources 1->3 (cross-shard) and 2->1 (local);
    shard 1 sources 3->2 and hosts the delivery recorders for dest 3."""
    return {
        0: {
            "flows": [
                {"source": 1, "dest": 3, "semantics": "priority",
                 "sent": 10, "post_join": False},
                {"source": 2, "dest": 1, "semantics": "reliable",
                 "sent": 4, "post_join": True},
            ],
            "per_node": {
                "1": {"latency": {"latency:2->1": {
                    "count": 4, "mean": 0.002, "p50": 0.0015, "p99": 0.004}}},
                "2": {"latency": {}},
            },
            "supervision": {"crashed_nodes": ["2"], "departed": []},
            "chaos": {"faulted_nodes": ["4"]},
            "invariants": {"violations": 1},
        },
        1: {
            "flows": [
                {"source": 3, "dest": 2, "semantics": "priority", "sent": 0},
            ],
            "per_node": {
                "3": {"latency": {"latency:1->3": {
                    "count": 9, "mean": 0.005, "p50": 0.004, "p99": 0.011}}},
                "4": {},
            },
            "departed": ["5"],
        },
    }


def test_rollup_joins_sent_and_delivered_across_shards():
    flows = rollup(_canned_shard_reports())
    # Deterministic: shard order, then the shard's own flow order, with
    # every flow tagged by its source shard id.
    assert json.dumps(flows, sort_keys=True) == json.dumps([
        {"source": 1, "dest": 3, "semantics": "priority", "post_join": False,
         "shard": 0, "sent": 10, "delivered": 9, "ratio": 0.9,
         "mean_latency": 0.005, "p50_latency": 0.004, "p99_latency": 0.011},
        {"source": 2, "dest": 1, "semantics": "reliable", "post_join": True,
         "shard": 0, "sent": 4, "delivered": 4, "ratio": 1.0,
         "mean_latency": 0.002, "p50_latency": 0.0015, "p99_latency": 0.004},
        {"source": 3, "dest": 2, "semantics": "priority", "post_join": False,
         "shard": 1, "sent": 0, "delivered": 0, "ratio": 1.0,
         "mean_latency": None, "p50_latency": None, "p99_latency": None},
    ], sort_keys=True)


def test_rollup_dead_destination_shard_counts_zero():
    reports = _canned_shard_reports()
    del reports[1]  # the shard hosting dest 3 died without reporting
    flows = rollup(reports)
    cross = next(f for f in flows if f["dest"] == 3)
    assert cross["delivered"] == 0 and cross["ratio"] == 0.0
    assert cross["mean_latency"] is None
    assert cross["p50_latency"] is None and cross["p99_latency"] is None


def test_excluded_nodes_union():
    excluded = excluded_nodes(_canned_shard_reports(), dead_nodes={"9"})
    assert excluded == {"2", "4", "5", "9"}


def test_cluster_report_gates_and_dict_shape():
    reports = _canned_shard_reports()
    report = ClusterReport(
        nodes=5, shards=2, duration=4.0, seed=0, topology_edges=7,
        wall_seconds=4.5, flows=rollup(reports),
        shard_reports={str(k): v for k, v in reports.items()},
        joined=[6], departed=[5], membership_events=[],
        excluded=sorted(excluded_nodes(reports)), failures=[],
    )
    assert report.delivery_ratio == pytest.approx(13 / 14)
    # Correct-flow gating drops every flow touching 2, 4, or 5: only
    # 1->3 remains.
    assert [f["source"] for f in report.correct_flows] == [1]
    assert report.correct_flow_ratio == pytest.approx(0.9)
    # Post-join flow 2->1 touches crashed node 2: excluded, so the
    # post-join gate has no accountable flows and reports 1.0.
    assert report.post_join_flows == []
    assert report.post_join_ratio == 1.0
    assert report.violations == 1
    assert not report.failed and not report.ok  # violations fail ok
    data = report.to_dict()
    assert sorted(data) == PARENT_REPORT_KEYS["cluster"]
    assert data["excluded_nodes"] == ["2", "4", "5"]
    json.dumps(data)  # JSON-serializable end to end


# ----------------------------------------------------------------------
# Generated large topologies
# ----------------------------------------------------------------------
def test_large_overlay_deterministic_and_mtmw_valid():
    from repro.crypto.pki import Pki, PkiMode
    from repro.topology.disjoint import max_node_disjoint_paths
    from repro.topology.mtmw import Mtmw

    topo = large_overlay(60, degree=4, chord_fraction=0.15, seed=11)
    again = large_overlay(60, degree=4, chord_fraction=0.15, seed=11)
    assert sorted(topo.edges()) == sorted(again.edges())
    assert sorted(large_overlay(60, seed=12).edges()) != sorted(topo.edges())
    assert len(topo.nodes) == 60
    # Circulant core: every node has at least ``degree`` neighbors.
    assert min(len(topo.neighbors(n)) for n in topo.nodes) >= 4
    pki = Pki(mode=PkiMode.SIMULATED, seed=11)
    for node in topo.nodes:
        pki.register(node)
    mtmw = Mtmw.create(topo, pki, seqno=1)
    assert mtmw.verify(pki)
    # Spot-check the k-connectivity the circulant construction promises.
    for a, b in [(1, 31), (5, 42), (17, 60)]:
        assert max_node_disjoint_paths(topo, a, b) >= 2

    with pytest.raises(Exception):
        large_overlay(4)
    with pytest.raises(Exception):
        large_overlay(20, degree=3)


# ----------------------------------------------------------------------
# Shared scheduler epoch
# ----------------------------------------------------------------------
def test_scheduler_epoch_is_shared_across_instances():
    from repro.runtime.scheduler import AsyncioScheduler

    async def check():
        loop = asyncio.get_event_loop()
        epoch = loop.time() - 10.0  # a coordinator started 10 s ago
        a = AsyncioScheduler(seed=1, loop=loop, epoch=epoch)
        b = AsyncioScheduler(seed=2, loop=loop, epoch=epoch)
        # Both clocks agree (same epoch), so a timestamp taken by a
        # sender in one process is comparable at the receiver in another.
        assert abs(a.now - b.now) < 0.05
        assert a.now >= 10.0
        # Default epoch rebases to "now" instead.
        fresh = AsyncioScheduler(seed=3, loop=loop)
        assert fresh.now < 1.0

    asyncio.run(check())
