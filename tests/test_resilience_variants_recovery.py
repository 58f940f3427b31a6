"""Unit tests for variant assignment and proactive recovery (the
fixed rotation: ``AdaptiveDefense(..., adaptive=False)``)."""

import pytest

from repro.byzantine.behaviors import DroppingBehavior, HonestBehavior
from repro.errors import ConfigurationError
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.resilience.adaptive import AdaptiveDefense, SimRecoveryActuator
from repro.resilience.variants import (
    VariantPool,
    assign_variants,
    assignment_score,
    brute_force_assignment,
    connectivity_under_variant_failure,
)
from repro.topology.generators import clique, ring
from tests.fixtures import line

FAST = OverlayConfig(link_bandwidth_bps=None)


class TestConnectivityMetric:
    def test_no_failures_full_connectivity(self):
        topo = ring(5)
        assignment = {n: 0 for n in topo.nodes}
        assert connectivity_under_variant_failure(topo, assignment, 1) == 1.0

    def test_all_same_variant_fails_everything(self):
        topo = ring(5)
        assignment = {n: 0 for n in topo.nodes}
        # All nodes fail; no surviving pairs: vacuous 1.0 by convention.
        assert connectivity_under_variant_failure(topo, assignment, 0) == 1.0

    def test_line_cut_in_middle(self):
        topo = line(4)  # 1-2-3-4
        assignment = {1: 0, 2: 1, 3: 0, 4: 0}
        # Variant 1 fails: node 2 dies; survivors 1 | 3-4: 1 of 3 pairs.
        score = connectivity_under_variant_failure(topo, assignment, 1)
        assert score == pytest.approx(1 / 3)

    def test_clique_always_connected(self):
        topo = clique(5)
        assignment = {n: n % 2 for n in topo.nodes}
        assert connectivity_under_variant_failure(topo, assignment, 0) == 1.0
        assert connectivity_under_variant_failure(topo, assignment, 1) == 1.0


class TestAssignment:
    def test_greedy_matches_brute_force_on_ring(self):
        topo = ring(6)
        greedy = assign_variants(topo, variants=2)
        _, best_score = brute_force_assignment(topo, variants=2)
        greedy_score = assignment_score(topo, greedy, 2)
        assert greedy_score[0] == pytest.approx(best_score[0], abs=0.02)

    def test_ring_alternating_is_optimal_structure(self):
        """On an even ring, the optimum alternates variants so a variant
        failure leaves isolated-but-small fragments symmetric across
        variants; greedy should find something equally good."""
        topo = ring(6)
        assignment = assign_variants(topo, variants=2)
        expected, worst = assignment_score(topo, assignment, 2)
        naive = {n: 0 if n <= 3 else 1 for n in topo.nodes}  # contiguous halves
        naive_expected, _ = assignment_score(topo, naive, 2)
        assert expected >= naive_expected

    def test_more_variants_never_hurt(self):
        topo = ring(8)
        two = assignment_score(topo, assign_variants(topo, 2), 2)
        four = assignment_score(topo, assign_variants(topo, 4), 4)
        assert four[0] >= two[0] - 1e-9

    def test_single_variant_allowed(self):
        topo = ring(4)
        assignment = assign_variants(topo, variants=1)
        assert set(assignment.values()) == {0}

    def test_invalid_variants_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_variants(ring(4), variants=0)

    def test_global_cloud_assignment_quality(self):
        from repro.topology import global_cloud

        topo = global_cloud.topology()
        assignment = assign_variants(topo, variants=3)
        expected, worst = assignment_score(topo, assignment, 3)
        # The 3-connected cloud should stay fully connected when any one
        # of three well-assigned variants fails.
        assert worst == 1.0

    def test_brute_force_size_guard(self):
        with pytest.raises(ConfigurationError):
            brute_force_assignment(ring(12), 2)


class TestVariantPool:
    def test_fresh_builds_never_repeat(self):
        pool = VariantPool(families=3)
        builds = {pool.fresh(i % 3) for i in range(50)}
        assert len(builds) == 50

    def test_family_wraps(self):
        pool = VariantPool(families=2)
        family, _ = pool.fresh(5)
        assert family == 1

    def test_invalid_families(self):
        with pytest.raises(ConfigurationError):
            VariantPool(families=0)


def fixed_rotation(net, period, downtime):
    """The paper's open-loop proactive recovery on the simulator."""
    return AdaptiveDefense(
        net, SimRecoveryActuator(net), adaptive=False,
        period=period, downtime=downtime,
    )


class TestProactiveRecovery:
    def test_every_node_recovered_once_per_period(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.start()
        net.run(8.6)
        assert recovery.recoveries_completed == 4

    def test_recovery_cleans_compromise(self):
        net = OverlayNetwork.build(clique(4), FAST)
        net.compromise(2, DroppingBehavior())
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.start()
        net.run(8.6)
        assert recovery.actuator.compromises_cleaned == 1
        assert isinstance(net.node(2).behavior, HonestBehavior)

    def test_fresh_variant_each_recovery(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        before = dict(recovery.actuator.current_variant)
        recovery.start()
        net.run(8.6)
        after = recovery.actuator.current_variant
        assert all(before[n] != after[n] for n in before)

    def test_network_stays_live_during_staggered_recovery(self):
        """Flooding delivers even while one node at a time reboots."""
        net = OverlayNetwork.build(clique(5), FAST)
        recovery = fixed_rotation(net, period=10.0, downtime=0.5)
        recovery.start()
        delivered_expected = 0
        for i in range(20):
            source = net.node(1)
            if not source.crashed and not net.node(5).crashed:
                source.send_priority(5, expire_after=5.0)
                delivered_expected += 1
            net.run(0.5)
        net.run(5.0)
        assert net.delivered_count(1, 5) >= delivered_expected - 2

    def test_overlapping_downtime_rejected(self):
        """A rotation whose slots cannot fit the reinstalls (4 nodes,
        0.25 s slots, 0.5 s reinstalls) is refused outright, as is a
        period a single reinstall cannot fit in; an exactly-fitting
        cadence is accepted and never takes two nodes down at once."""
        net = OverlayNetwork.build(clique(4), FAST)
        with pytest.raises(ConfigurationError):
            fixed_rotation(net, period=1.0, downtime=0.5)
        with pytest.raises(ConfigurationError):
            fixed_rotation(net, period=0.5, downtime=0.5)
        recovery = fixed_rotation(net, period=2.0, downtime=0.5)
        recovery.start()
        for _ in range(40):
            net.run(0.25)
            assert sum(node.crashed for node in net.nodes.values()) <= 1
        assert recovery.budget.peak_down == 1
        assert recovery.recoveries_completed >= 4

    def test_stop_halts_schedule(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.start()
        net.run(2.5)
        recovery.stop()
        count = recovery.recoveries_completed
        net.run(10.0)
        assert recovery.recoveries_completed <= count + 1  # in-flight restore only

    def test_stop_cancels_queued_events(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.start()
        net.run(2.5)
        recovery.stop()
        # The control timer (and any queued restore) was cancelled, not
        # left in the heap as a latent no-op.
        assert recovery._timer is None
        assert recovery._restore_events == {}
        after_count = recovery.recoveries_completed
        net.run(20.0)
        assert recovery.recoveries_completed == after_count

    def test_stop_mid_downtime_restores_node_immediately(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=1.0)
        recovery.start()
        net.run(2.2)  # first node (id 1) was taken down at t=2.0
        assert net.node(1).crashed
        recovery.stop()
        # stop() must never strand a node in its reinstall downtime.
        assert not net.node(1).crashed
        assert recovery.recoveries_completed == 1
        # The cut-short reinstall is still accounted, per node.
        series = net.stats.series("recovery-downtime:1")
        assert [round(v, 6) for v in series.values()] == [0.2]

    def test_stop_before_start_is_harmless(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.stop()
        net.run(10.0)
        assert recovery.recoveries_completed == 0

    def test_restart_after_stop(self):
        net = OverlayNetwork.build(clique(4), FAST)
        recovery = fixed_rotation(net, period=8.0, downtime=0.5)
        recovery.start()
        net.run(2.5)
        recovery.stop()
        done = recovery.recoveries_completed
        recovery.start()
        net.run(8.5)
        assert recovery.recoveries_completed > done
