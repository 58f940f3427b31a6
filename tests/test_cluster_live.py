"""Integration tests for the multi-process sharded cluster runtime.

Each test boots real worker OS processes (``multiprocessing`` spawn)
running real asyncio/UDP overlays, so these are the slowest tests in the
tier-1 suite — kept to small clusters and short durations.  Covered
here: end-to-end delivery across shard boundaries, signed mid-run
JOIN/LEAVE (the joiner's post-join delivery and the leaver's drain under
chaos), and the dead-worker regression (a killed child must be
attributed by exit code, never hang the coordinator's join).
"""

from __future__ import annotations

import asyncio

from repro.cluster.deployment import ClusterDeployment, run_cluster
from repro.cluster.spec import ClusterConfig


def test_cluster_two_shards_delivers_and_applies_membership():
    report = run_cluster(ClusterConfig(
        nodes=10, shards=2, duration=4.0, seed=21,
        rate_msgs_per_sec=8.0, joins=1, leaves=1,
    ))
    assert report.failures == []
    assert report.ok, report.to_dict()
    assert report.violations == 0
    # Every shard reported, every flow is tagged with its source shard,
    # and traffic crossed the process boundary in both directions.
    shards_seen = {f["shard"] for f in report.flows}
    assert shards_seen == {0, 1}
    assert report.correct_flow_ratio >= 0.95
    # One signed JOIN was applied: the joiner (11 = max + 1) sourced
    # post-join flows and delivered ≥ 99% on them.
    assert report.joined == [11]
    post_join = report.post_join_flows
    assert post_join and all(f["source"] == 11 for f in post_join)
    assert report.post_join_ratio >= 0.99
    # One signed LEAVE drained: the leaver is gone and excluded from the
    # delivery gate rather than counted as loss.
    assert len(report.departed) == 1
    assert str(report.departed[0]) in set(report.excluded)
    # Membership advanced the shared seqno ledger on every shard.
    for detail in report.shard_reports.values():
        ledger = detail["membership"]
        assert ledger["last_seqno"] == 3
        assert [r["action"] for r in ledger["accepted"]] == ["join", "leave"]


def test_cluster_leave_drains_under_soak_chaos():
    report = run_cluster(ClusterConfig(
        nodes=10, shards=2, duration=5.0, seed=3,
        rate_msgs_per_sec=8.0, chaos_preset="soak",
        joins=1, leaves=1,
    ))
    assert report.failures == []
    assert report.violations == 0
    assert report.ok
    # The departed node's flows are excluded, and the surviving correct
    # flows still clear the soak gate.
    assert len(report.departed) == 1
    assert str(report.departed[0]) in set(report.excluded)
    assert report.correct_flow_ratio >= 0.95
    # Chaos actually ran somewhere (the schedule is sliced per shard).
    injected = sum(
        sum(detail.get("chaos", {}).get("injector", {}).values())
        for detail in report.shard_reports.values()
        if isinstance(detail.get("chaos"), dict)
    )
    assert injected > 0


def test_cluster_churn_regression_sessions_survive():
    """Churn regression: >= 3 signed JOINs and >= 3 signed LEAVEs in one
    run, with the client session tier riding on top.  Gates: every shard
    applies the full membership timeline in lockstep (same last_seqno),
    post-churn delivery from the joiners clears 99%, and the session
    tier keeps its invariants (no double-processing, retry amplification
    within budget) while requests cross shard boundaries mid-churn."""
    joins, leaves = 3, 3
    report = run_cluster(ClusterConfig(
        nodes=12, shards=3, duration=9.0, drain=2.5, seed=29,
        rate_msgs_per_sec=8.0, joins=joins, leaves=leaves,
        session_rate=20.0,
    ))
    assert report.failures == []
    assert report.ok, report.to_dict()
    assert report.violations == 0
    # All churn events landed: three joiners sourced traffic, three
    # leavers drained and are excluded from the delivery gate.
    assert len(report.joined) == joins
    assert len(report.departed) == leaves
    excluded = set(report.excluded)
    assert {str(node) for node in report.departed} <= excluded
    # Ledger lockstep: every shard applied genesis + every churn event,
    # in the same order.
    expected_seqno = 1 + joins + leaves
    actions = None
    for detail in report.shard_reports.values():
        ledger = detail["membership"]
        assert ledger["last_seqno"] == expected_seqno
        shard_actions = [r["action"] for r in ledger["accepted"]]
        assert actions is None or shard_actions == actions
        actions = shard_actions
    assert actions == ["join"] * joins + ["leave"] * leaves
    # Post-churn delivery: the joiners' flows clear the 99% gate.
    post_join = report.post_join_flows
    assert post_join and {f["source"] for f in post_join} == set(report.joined)
    assert report.post_join_ratio >= 0.99
    # The session tier ran across every shard and kept its invariants
    # through the churn (requests to departed destinations fail cleanly;
    # they never double-process or blow the retry budget).
    sessions = report.sessions
    assert sessions is not None and sessions["requests"] > 0
    assert sessions["invariant_violations"] == 0
    assert sessions["double_processed"] == 0
    assert sessions["amplification"] <= 1.25 + 1e-9
    per_shard = [
        detail["sessions"] for detail in report.shard_reports.values()
    ]
    assert all(snap is not None for snap in per_shard)
    # The success gate is over requests that still had a destination:
    # one whose destination departed fails "unroutable" by design, and
    # how many those are depends only on how hot the leavers rank in the
    # Zipf fan-in (at this seed node 12, a leaver, is the hottest).
    unroutable = sum(
        snap["failure_signals"].get("unroutable", 0) for snap in per_shard
    )
    routable = sessions["requests"] - unroutable
    assert routable > 0
    assert sessions["succeeded"] / routable >= 0.9


def test_dead_worker_is_attributed_not_hung():
    """Regression: killing a worker mid-run must surface an exit-code
    attribution naming the shard's nodes — and never hang the
    coordinator's stop()/join path."""

    async def check():
        config = ClusterConfig(
            nodes=8, shards=2, duration=3.0, seed=13,
            rate_msgs_per_sec=5.0, joins=0, leaves=0,
            report_timeout=5.0,
        )
        deployment = ClusterDeployment(config)
        await deployment.start()
        victim = deployment.workers[1]
        victim.kill()  # SIGKILL: no goodbye frame, no report
        await deployment.serve()
        return await deployment.finish()

    report = asyncio.run(asyncio.wait_for(check(), timeout=60.0))
    assert report.failed and not report.ok
    [failure] = [f for f in report.failures if "exited with code" in f]
    assert "shard 1" in failure
    # The dead shard's nodes are attributed in the failure string and
    # excluded from the delivery gate.
    dead_shard = report.shard_reports["1"]
    assert dead_shard["failed"] is True
    for node in dead_shard["nodes"]:
        assert node in failure
        assert node in set(report.excluded)
    # The surviving shard still reported normally.
    assert report.shard_reports["0"].get("failed") is not True
