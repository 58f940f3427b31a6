"""Unit and small-integration tests for the client session layer.

Covers the pieces of :mod:`repro.clients.session` individually — budget
bucket, circuit breaker, config validation — then the integrated state
machine on small simulated overlays: clean-network delivery, failover
around a crashed home ingress, typed admission NACK consumption (both
the local short-circuit and the flooded cross-overlay path), the
destination-side idempotency window, the degradation ladder, and the
sessions-off baseline semantics.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.clients import session as session_module
from repro.clients.session import (
    ACK_PREFIX,
    PRIORITY_FLOOR,
    REQUEST_PREFIX,
    REQUEST_PRIORITY,
    CircuitBreaker,
    RetryBudget,
    ScriptedSessionRequest,
    SessionConfig,
    SessionTier,
    SessionWorkloadConfig,
)
from repro.errors import ConfigurationError
from repro.messaging.admission import AdmissionConfig, AdmissionState
from repro.messaging.priority import MAX_PRIORITY, MIN_PRIORITY
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators


def build_net(nodes=6, admission=None, seed=0):
    topology = generators.chordal_ring(nodes, chords=2, weight=0.001)
    config = OverlayConfig(admission=admission)
    return OverlayNetwork.build(topology, config, seed=seed)


def build_tier(net, session=None, rate=10.0, **kwargs):
    nodes = sorted(net.nodes)
    workload = SessionWorkloadConfig(
        arrival_rate=rate, session=session or SessionConfig()
    )
    return SessionTier(net, nodes, list(nodes), workload=workload, **kwargs)


# ----------------------------------------------------------------------
# Mechanics: budget bucket, breaker, config validation
# ----------------------------------------------------------------------
def test_retry_budget_starts_empty_and_accrues_per_base_offer():
    budget = RetryBudget(0.25, 32.0)
    assert not budget.try_spend()  # cold start: no free retries
    for _ in range(3):
        budget.accrue()
    assert not budget.try_spend()  # 0.75 tokens: still short of one
    budget.accrue()
    assert budget.try_spend()  # 4 base offers -> exactly 1 retry
    assert not budget.try_spend()
    assert budget.spent == 1


def test_retry_budget_burst_caps_banked_tokens():
    budget = RetryBudget(1.0, 2.0)
    for _ in range(50):
        budget.accrue()
    spends = sum(1 for _ in range(50) if budget.try_spend())
    assert spends == 2  # burst depth, not 50


def test_circuit_breaker_full_cycle():
    breaker = CircuitBreaker(threshold=3, cooloff=1.0)
    assert breaker.state == "closed" and breaker.allow(0.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.1)
    assert breaker.state == "closed"
    breaker.record_failure(0.2)
    assert breaker.state == "open" and breaker.opens == 1
    assert not breaker.allow(0.5)  # still cooling off
    assert breaker.allow(1.3)  # cooloff elapsed: one half-open trial
    assert breaker.state == "half_open"
    assert not breaker.allow(1.3)  # second trial denied while in flight
    breaker.record_failure(1.4)  # trial failed: straight back to open
    assert breaker.state == "open"
    assert breaker.allow(2.5)
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow(2.6)


# Each remaining check at and past its boundary, alone and among
# explicitly valid values.
@pytest.mark.parametrize("kwargs", [
    {"max_attempts": -1},
    {"max_attempts": 0, "retry_budget": 0.25, "backups": 2},
    {"max_attempts": 0},
    {"retry_budget": -0.1},
    {"retry_budget": -1.0},
    {"retry_budget": -1e-9},
    {"retry_budget": -0.5, "max_attempts": 5},
    {"backups": -5},
    {"backups": -1, "max_attempts": 1},
    {"max_attempts": -100, "backups": 0},
    {"backups": -1},
])
def test_session_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SessionConfig(**kwargs)


def test_session_constants_keep_their_invariants():
    """The fixed timers, priorities and breaker settings satisfy the
    relations the session machinery relies on."""
    m = session_module
    assert 0 < m.ATTEMPT_TIMEOUT <= m.DEADLINE <= m.DEDUP_WINDOW
    assert 0 < m.BACKOFF_BASE <= m.BACKOFF_CAP
    assert MIN_PRIORITY <= m.PRIORITY_FLOOR <= m.REQUEST_PRIORITY <= MAX_PRIORITY
    assert MIN_PRIORITY <= m.ACK_PRIORITY <= MAX_PRIORITY
    assert m.BREAKER_THRESHOLD >= 1 and m.BREAKER_COOLOFF > 0
    assert m.RETRY_BURST >= 0 and m.REQUEST_EXPIRE > 0


# ----------------------------------------------------------------------
# Integrated: clean network
# ----------------------------------------------------------------------
def test_clean_network_every_request_acked_without_retries():
    net = build_net()
    tier = build_tier(net, rate=20.0)
    tier.start()
    net.run(5.0)
    tier.stop()
    net.run(3.0)
    tier.finalize()
    assert tier.requests > 50
    assert tier.succeeded == tier.requests
    assert tier.amplification == 1.0
    assert tier.failovers == 0
    assert tier.downgraded == 0
    assert tier.invariant_violations() == 0


def test_scripted_plan_is_deterministic_across_runs():
    def run_once():
        net = build_net(seed=42)
        tier = build_tier(net)
        nodes = sorted(net.nodes)
        plan = [
            ScriptedSessionRequest(at=0.1 * i, home=nodes[i % 3], dest=nodes[3 + i % 3])
            for i in range(12)
        ]
        tier.arm(plan)
        net.run(6.0)
        tier.finalize()
        return sorted(tier.resolve_log)

    first, second = run_once(), run_once()
    assert first == second
    assert len(first) == 12
    assert all(outcome == "ok" for _, outcome, _ in first)


# ----------------------------------------------------------------------
# Failover and breaker integration
# ----------------------------------------------------------------------
def test_crashed_home_ingress_fails_over_to_backup():
    net = build_net()
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    tier._install_observers()
    session = tier.sessions[0]
    net.crash(session.home)
    session.submit(nodes[3])
    net.run(3.0)
    tier.finalize()
    assert tier.succeeded == 1
    assert tier.failovers >= 1
    # The request went out through a backup, not the crashed home.
    [(key, outcome, attempts)] = sorted(tier.resolve_log)
    assert outcome == "ok"


def test_open_breaker_diverts_attempts_to_backup():
    net = build_net()
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    tier._install_observers()
    session = tier.sessions[0]
    breaker = tier.breaker(session.home)
    for _ in range(3):
        breaker.record_failure(net.sim.now)
    assert breaker.state == "open"
    session.submit(nodes[3])
    net.run(3.0)
    tier.finalize()
    assert tier.succeeded == 1
    assert tier.failovers >= 1


# ----------------------------------------------------------------------
# Typed admission NACKs
# ----------------------------------------------------------------------
# park_timeout is deliberately shorter than the admission tick interval:
# the expiry sweep runs before the release drain at each tick, so a
# parked offer always dies into a typed NACK instead of being released.
NACK_ADMISSION = AdmissionConfig(
    capacity_rate=0.5, floor_min=0.5, floor_max=0.5, burst_tokens=1.0,
    surge_max=1.0, park_capacity=4, park_timeout=0.01,
)


def test_parked_request_that_expires_yields_local_nack_and_retry():
    net = build_net(admission=NACK_ADMISSION)
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    tier._install_observers()
    session = tier.sessions[0]
    # Two immediate submissions: one token in the bucket, so the second
    # offer parks and expires at the next tick -> typed NACK (home ==
    # ingress: the local short-circuit path) -> the session retries.
    for _ in range(4):
        tier.budget.accrue()  # bank a retry token so the NACK can retry
    session.submit(nodes[3])
    session.submit(nodes[3])
    net.run(6.0)
    tier.finalize()
    assert tier.nacks_consumed >= 1
    assert tier.retry_offers >= 1


def test_remote_nack_floods_back_to_home_ingress():
    net = build_net(admission=NACK_ADMISSION)
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    tier._install_observers()
    session = tier.sessions[0]
    # Force the home breaker open so attempts go out via a backup; NACKs
    # for parked-then-expired offers are emitted at the *backup* with
    # home = the session's home, so they must cross the overlay.
    breaker = tier.breaker(session.home)
    for _ in range(3):
        breaker.record_failure(net.sim.now)
    for _ in range(4):
        tier.budget.accrue()
    session.submit(nodes[3])
    session.submit(nodes[3])
    net.run(6.0)
    tier.finalize()
    assert tier.failovers >= 1
    assert tier.nacks_consumed >= 1


# ----------------------------------------------------------------------
# Destination-side idempotency
# ----------------------------------------------------------------------
def test_duplicate_deliveries_suppressed_but_reacked():
    net = build_net()
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    dest = net.node(nodes[3])
    message = SimpleNamespace(payload=REQUEST_PREFIX + "k1", source=nodes[0])
    tier._observe_delivery(message, dest)
    tier._observe_delivery(message, dest)  # a retry's duplicate copy
    assert tier.duplicates_suppressed == 1
    assert tier.double_processed == 0
    assert tier.acks_sent == 2  # every copy is (re-)acked
    assert tier.invariant_violations() == 0


def test_ack_payloads_resolve_only_known_keys():
    net = build_net()
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    home = net.node(nodes[0])
    # An ack for a key nobody is waiting on is ignored, not a crash
    # (e.g. the request already resolved, or a Byzantine fabrication).
    tier._observe_delivery(
        SimpleNamespace(payload=ACK_PREFIX + "ghost", source=nodes[3]), home
    )
    assert tier.succeeded == 0


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def test_priority_downgrades_under_pressure_never_below_floor():
    net = build_net()
    tier = build_tier(net)
    session = tier.sessions[0]
    node = net.node(session.home)
    assert session._effective_priority(node) == REQUEST_PRIORITY
    node.admission = SimpleNamespace(state=AdmissionState.PARK)
    assert session._effective_priority(node) == REQUEST_PRIORITY - 1
    node.admission = SimpleNamespace(state=AdmissionState.REJECT)
    assert session._effective_priority(node) == REQUEST_PRIORITY - 2
    # Budget-dry pressure stacks, but only once real accrual happened
    # (the bucket starts empty by design — no cold-start downgrade).
    tier.budget.accrued = 5.0
    tier.budget.tokens = 0.0
    assert session._effective_priority(node) == max(
        PRIORITY_FLOOR, REQUEST_PRIORITY - 3
    )


def test_requests_shed_when_budget_dry_and_ingress_rejecting():
    net = build_net()
    tier = build_tier(net)
    nodes = sorted(net.nodes)
    session = tier.sessions[0]
    net.node(session.home).admission = SimpleNamespace(
        state=AdmissionState.REJECT
    )
    assert session.submit(nodes[3]) is None
    assert tier.shed == 1 and tier.requests == 1
    assert tier.base_offers == 0  # shed = zero interior load
    [(key, outcome, attempts)] = sorted(tier.resolve_log)
    assert outcome == "shed" and attempts == 0


# ----------------------------------------------------------------------
# Sessions-off baseline semantics
# ----------------------------------------------------------------------
def test_sessions_off_never_retries_or_fails_over():
    from repro.clients.slo import SESSIONS_OFF

    net = build_net()
    tier = build_tier(net, session=SESSIONS_OFF)
    nodes = sorted(net.nodes)
    tier._install_observers()
    session = tier.sessions[0]
    net.crash(nodes[3])  # the destination: no responder, no ack
    session.submit(nodes[3])
    net.run(6.0)
    tier.finalize()
    assert tier.failed == 1 and tier.succeeded == 0
    assert tier.retry_offers == 0 and tier.failovers == 0
    assert tier.amplification == 1.0
