"""Tests for the feedback-controlled defense (repro.resilience.adaptive).

Property tests pin the belief estimator's contract (monotone in
anomalies, decaying to baseline, hysteresis that cannot oscillate within
one cooldown); deterministic sim runs pin the controller's: the global
budget is never exceeded under the ``full`` chaos preset, suspects get
advanced and tightened, healthy nodes get deferred (strictly less
downtime than the fixed rotation), and the unified config block rejects
out-of-range values.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults.schedule import ChaosSpec
from repro.overlay import node as node_module
from repro.overlay.config import DefenseConfig, OverlayConfig
from repro.resilience import adaptive
from repro.resilience.adaptive import (
    SIGNAL_WEIGHTS,
    AdaptiveDefense,
    BeliefEstimator,
    GlobalBudget,
    SimRecoveryActuator,
)
from repro.workloads.experiment import Deployment

FAST = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = sorted(SIGNAL_WEIGHTS)


# ----------------------------------------------------------------------
# Unified config block (satellite: one typed, range-validated block)
# ----------------------------------------------------------------------
class TestDefenseConfig:
    def test_defaults_valid(self):
        config = DefenseConfig()
        assert config.recovery_downtime < config.recovery_period

    def test_constants_keep_their_invariants(self):
        """The fixed thresholds satisfy the relations the controller and
        the quarantine prober rely on."""
        a = adaptive
        assert 0 <= a.BELIEF_LOW < a.BELIEF_HIGH <= a.ESCALATE_THRESHOLD <= 1
        assert a.DEFER_FACTOR_MAX >= 1
        assert 0 < a.TIGHTEN_TIMEOUT_SCALE <= 1 <= a.TIGHTEN_PROBATION_SCALE
        assert a.MAX_CONCURRENT_DOWN >= 1 and a.MAX_TIGHTENED_NODES >= 0
        n = node_module
        assert 0 < n.PROBE_BACKOFF_INITIAL <= n.PROBE_BACKOFF_MAX
        assert n.PROBE_BACKOFF_FACTOR >= 1 and 0 <= n.PROBE_JITTER < 1
        assert n.QUARANTINE_PROBATION >= 0

    def test_overlay_config_embeds_defense(self):
        assert isinstance(OverlayConfig().defense, DefenseConfig)

    @pytest.mark.parametrize(
        "kwargs",
        # Each remaining check at and past its boundary, alone and among
        # explicitly valid values.
        [
            {"recovery_period": 0.0},
            {"recovery_period": -1.0},
            {"belief_half_life": -1.0},
            {"belief_half_life": 0.0},
            {"action_cooldown": -1.0},
            {"control_interval": 0.0},
            {"control_interval": -0.5},
            {"action_cooldown": -1e-9},
            {"recovery_downtime": 0.0},
            {"recovery_downtime": -1.0},
            {"recovery_downtime": 120.0},
            {"recovery_period": 1.0},
            {"recovery_period": 0.5},
            {"recovery_period": 1.0, "recovery_downtime": 2.0},
            {"recovery_period": 10.0, "recovery_downtime": 10.0},
            {"recovery_period": -120.0, "recovery_downtime": -1.0},
            {"belief_half_life": -20.0, "action_cooldown": 10.0,
             "control_interval": 0.5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigurationError):
            DefenseConfig(**kwargs)


# ----------------------------------------------------------------------
# Belief estimator properties
# ----------------------------------------------------------------------
class TestBeliefProperties:
    @FAST
    @given(
        kind=st.sampled_from(KINDS),
        counts=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
    )
    def test_monotone_in_anomalies_at_fixed_time(self, kind, counts):
        """More anomalies at the same instant never lower the score."""
        estimator = BeliefEstimator()
        last = 0.0
        for count in counts:
            score = estimator.observe("n", kind, count, now=5.0)
            assert score >= last - 1e-12
            assert 0.0 <= score <= 1.0
            last = score

    @FAST
    @given(
        kind=st.sampled_from(KINDS),
        count=st.integers(min_value=1, max_value=50),
        threshold=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_decays_to_baseline(self, kind, count, threshold):
        """With no further signals the score falls below any positive
        threshold in finitely many half-lives."""
        estimator = BeliefEstimator()
        score = estimator.observe("n", kind, count, now=0.0)
        assert score > 0.0
        # 60 half-lives shrink any score in [0, 1] below 1e-6 * 2**40.
        halves = estimator.config.belief_half_life * 60
        decayed = estimator.score("n", now=halves)
        assert decayed < max(threshold, score * 2.0 ** -50)
        assert decayed <= score

    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=10, max_value=80),
    )
    def test_hysteresis_never_oscillates_within_cooldown(self, seed, steps):
        """Suspect/clear transitions are at least one action_cooldown
        apart, whatever the signal pattern."""
        config = DefenseConfig(belief_half_life=2.0, action_cooldown=5.0)
        estimator = BeliefEstimator(config)
        rng = random.Random(seed)
        now = 0.0
        for _ in range(steps):
            now += rng.uniform(0.1, 3.0)
            if rng.random() < 0.5:
                estimator.observe("n", rng.choice(KINDS), rng.randrange(0, 8), now)
            else:
                estimator.score("n", now)
        transitions = estimator.transitions("n")
        for (t_prev, _), (t_next, _) in zip(transitions, transitions[1:]):
            assert t_next - t_prev >= config.action_cooldown - 1e-9

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            BeliefEstimator().observe("n", "msg.invalid", -1, now=0.0)

    def test_unknown_kind_uses_default_weight(self):
        estimator = BeliefEstimator()
        assert estimator.observe("n", "never-heard-of-it", 1, now=0.0) > 0.0


# ----------------------------------------------------------------------
# Global budget
# ----------------------------------------------------------------------
class TestGlobalBudget:
    def test_caps_and_priorities(self):
        budget = GlobalBudget(max_down=2, max_tightened=1)
        assert budget.acquire_down("a")
        assert budget.acquire_down("a")  # idempotent re-acquire
        assert budget.acquire_down("b")
        assert not budget.acquire_down("c")
        assert budget.down_denied == 1
        budget.release_down("a")
        assert budget.acquire_down("c")
        assert budget.peak_down == 2

    def test_external_downs_count_against_budget(self):
        budget = GlobalBudget(max_down=2, max_tightened=0)
        assert not budget.acquire_down("a", external=2)
        assert budget.acquire_down("a", external=1)
        assert budget.peak_total_down == 2
        assert not budget.acquire_tighten("a")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GlobalBudget(max_down=0, max_tightened=1)
        with pytest.raises(ConfigurationError):
            GlobalBudget(max_down=1, max_tightened=-1)


# ----------------------------------------------------------------------
# Controller on the simulated substrate
# ----------------------------------------------------------------------
def chaos_deployment(seed=0, seconds=40.0, adaptive=True):
    deployment = Deployment(seed=seed)
    deployment.add_chaos(ChaosSpec.full(duration=seconds, intensity=1.0))
    deployment.add_defense(adaptive=adaptive, period=8.0, downtime=0.5)
    for source, dest in [(7, 9), (9, 11)]:
        deployment.add_flow(source, dest, rate_fraction=0.2)
    deployment.run(seconds + 5.0)
    return deployment


class TestBudgetUnderChaos:
    def test_budget_never_exceeded_under_full_preset(self):
        """The acceptance bound: under the full chaos preset the defense
        never holds more than MAX_CONCURRENT_DOWN nodes down, the armed
        invariant monitor confirms it, and recoveries still happen."""
        deployment = chaos_deployment(seed=0)
        defense = deployment.defense
        limit = adaptive.MAX_CONCURRENT_DOWN
        assert defense.budget.peak_down <= limit
        assert defense.budget.peak_total_down <= limit
        assert defense.recoveries_completed > 0
        by_invariant = deployment.monitor.summary()["by_invariant"]
        assert "defense-budget" not in by_invariant

    def test_deterministic_across_same_seed_runs(self):
        first = chaos_deployment(seed=3).defense.summary()
        second = chaos_deployment(seed=3).defense.summary()
        assert first == second


class TestLocalController:
    def test_anomalies_raise_belief_and_tighten(self):
        """Telemetry attributed to a node (neighbors' PoR rejections
        facing it) drives its belief over the suspect threshold; the
        controller then tightens vigilance and advances its slot."""
        deployment = Deployment(seed=1)
        monitor_target = 6
        defense = deployment.add_defense(adaptive=True, period=60.0, downtime=0.5)
        network = deployment.network
        for other_id, other in network.nodes.items():
            link = other.links.get(monitor_target)
            if link is not None:
                link.por.macs_rejected += 40
                link.invalid_rx += 10
        deployment.run(5.0)
        assert defense.estimator.score(monitor_target, network.sim.now) > 0.5
        assert defense.estimator.is_suspect(monitor_target)
        assert monitor_target in defense.budget.tightened
        assert defense.advances + defense.escalations >= 1
        # Tightening scaled every neighbor's thresholds toward the node.
        scaled = [
            other.links[monitor_target].timeout_scale
            for other_id, other in network.nodes.items()
            if monitor_target in other.links and other_id != monitor_target
        ]
        assert scaled and all(s < 1.0 for s in scaled)

    def test_vigilance_relaxes_after_decay(self):
        deployment = Deployment(seed=1)
        config = DefenseConfig(
            recovery_period=300.0, belief_half_life=2.0, action_cooldown=1.0
        )
        defense = deployment.add_defense(adaptive=True, config=config)
        network = deployment.network
        for other in network.nodes.values():
            link = other.links.get(6)
            if link is not None:
                link.por.macs_rejected += 40
        deployment.run(3.0)
        assert 6 in defense.budget.tightened
        deployment.run(60.0)  # many half-lives with no new signals
        assert 6 not in defense.budget.tightened
        assert defense.relaxations >= 1

    def test_healthy_nodes_deferred_less_downtime_than_fixed(self):
        """On a quiet network the adaptive controller defers rotations:
        strictly fewer recoveries and strictly less downtime than the
        fixed baseline over the same horizon."""

        def downtime(adaptive):
            deployment = Deployment(seed=2)
            deployment.add_defense(adaptive=adaptive, period=10.0, downtime=0.5)
            deployment.run(60.0)
            summary = deployment.defense.summary()
            return (
                summary["recoveries_completed"],
                summary["total_downtime_seconds"],
            )

        fixed_count, fixed_seconds = downtime(adaptive=False)
        adaptive_count, adaptive_seconds = downtime(adaptive=True)
        assert fixed_count > 0
        assert adaptive_count < fixed_count
        assert adaptive_seconds < fixed_seconds

    def test_defer_bounded_by_stretched_period(self, monkeypatch):
        """A healthy node is never deferred past period * DEFER_FACTOR_MAX
        since its last recovery: even an all-quiet run still rotates."""
        monkeypatch.setattr(adaptive, "DEFER_FACTOR_MAX", 2.0)
        deployment = Deployment(seed=4)
        config = DefenseConfig(recovery_period=10.0, recovery_downtime=0.5)
        defense = deployment.add_defense(adaptive=True, config=config)
        deployment.run(65.0)
        # Horizon of 65 s with a 20 s stretched period: every node must
        # have completed at least two rotations.
        assert defense.recoveries_completed >= 2 * len(deployment.network.nodes)

    def test_fixed_baseline_never_defers_or_tightens(self):
        deployment = Deployment(seed=5)
        defense = deployment.add_defense(adaptive=False, period=10.0, downtime=0.5)
        deployment.run(30.0)
        summary = defense.summary()
        assert summary["deferrals"] == 0
        assert summary["tightenings"] == 0
        assert summary["advances"] == 0
        assert summary["recoveries_completed"] > 0

    def test_stop_restores_down_nodes_and_relaxes(self):
        deployment = Deployment(seed=6)
        defense = deployment.add_defense(adaptive=True, period=5.0, downtime=2.0)
        network = deployment.network
        # Run until some node is mid-recovery (down).
        ran = 0.0
        while not defense.budget.down and ran < 20.0:
            deployment.run(0.5)
            ran += 0.5
        assert defense.budget.down, "no recovery started within the horizon"
        defense.stop()
        assert not defense.budget.down
        assert not defense.budget.tightened
        assert all(not node.crashed for node in network.nodes.values())

    def test_recovery_downtime_telemetry_recorded(self):
        deployment = Deployment(seed=7)
        defense = deployment.add_defense(adaptive=False, period=6.0, downtime=0.5)
        deployment.run(20.0)
        stats = deployment.network.stats
        family = stats.series_by_prefix("recovery-downtime:")
        assert family, "no per-node downtime series recorded"
        total = sum(sum(ts.values()) for ts in family.values())
        assert total == pytest.approx(defense.total_downtime_seconds)
        assert stats.gauge("recovery.downtime_seconds_total").value == (
            pytest.approx(total)
        )


# ----------------------------------------------------------------------
# Variant hygiene on reinstall
# ----------------------------------------------------------------------
class TestSimActuator:
    def test_fresh_variant_and_clean_behavior_per_reinstall(self):
        from repro.byzantine.behaviors import DroppingBehavior

        deployment = Deployment(seed=8)
        network = deployment.network
        network.compromise(10, DroppingBehavior())
        actuator = SimRecoveryActuator(network)
        before = actuator.current_variant[10]
        actuator.take_down(10)
        actuator.restore(10)
        after = actuator.current_variant[10]
        assert after != before
        assert actuator.compromises_cleaned == 1
        from repro.byzantine.behaviors import HonestBehavior

        assert isinstance(network.node(10).behavior, HonestBehavior)


# ----------------------------------------------------------------------
# The live substrate (real asyncio/UDP sockets)
# ----------------------------------------------------------------------
def run_live_with_recovery(recovery: str, duration: float = 3.0):
    import dataclasses

    from repro.runtime.live import LiveConfig, run_live

    defense = DefenseConfig(
        recovery_period=1.5, recovery_downtime=0.2, control_interval=0.1,
        action_cooldown=0.5, belief_half_life=2.0,
    )
    overlay = dataclasses.replace(LiveConfig().overlay, defense=defense)
    return run_live(LiveConfig(
        nodes=4, duration=duration, seed=5, rate_msgs_per_sec=10.0,
        overlay=overlay, recovery=recovery,
    ))


class TestLiveSubstrate:
    def test_fixed_rotation_recovers_through_supervisor(self):
        """recovery="fixed" rotates every node through a supervised
        kill/hold/release reinstall, within budget, zero violations."""
        report = run_live_with_recovery("fixed")
        assert not report.runtime_errors, report.runtime_errors
        summary = report.adaptive
        assert summary is not None and summary["adaptive"] is False
        assert summary["recoveries_completed"] > 0
        assert summary["budget"]["peak_down"] <= summary["budget"]["max_down"]
        assert report.violations == 0
        assert report.supervision["kills"] >= summary["recoveries_completed"]
        assert report.to_dict()["adaptive"] == summary

    def test_adaptive_defers_healthy_live_nodes(self):
        """On a clean localhost run the adaptive controller defers:
        (almost) no reinstalls, strictly less downtime than fixed pays."""
        report = run_live_with_recovery("adaptive")
        assert not report.runtime_errors, report.runtime_errors
        summary = report.adaptive
        assert summary is not None and summary["adaptive"] is True
        assert summary["deferrals"] > 0
        assert summary["recoveries_completed"] <= 1
        assert report.violations == 0


# ----------------------------------------------------------------------
# Satellite: per-node supervision jitter streams
# ----------------------------------------------------------------------
class TestSupervisionJitterSeeding:
    def test_backoff_jitter_is_per_node_deterministic(self):
        """A node's backoff sequence is a pure function of the run seed
        and its own kill count — independent of other nodes' kills."""
        from repro.sim.rng import RngRegistry
        from repro.runtime.supervision import NodeRecord, NodeSupervisor

        class FakeSim:
            def __init__(self, seed):
                self.rngs = RngRegistry(seed)
                self.now = 0.0

        class FakeDeployment:
            def __init__(self, seed):
                self.sim = FakeSim(seed)
                self.processes = {}

        def backoffs(kill_order):
            supervisor = NodeSupervisor(FakeDeployment(seed=42))
            out = {}
            for node in kill_order:
                record = NodeRecord()
                out.setdefault(node, [])
                out[node].append(supervisor._next_backoff(node, record))
            return out

        interleaved = backoffs(["a", "b", "a", "b", "a"])
        solo = backoffs(["a", "a", "a"])
        assert interleaved["a"] == solo["a"]
