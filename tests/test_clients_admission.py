"""Unit tests for the client tier and its admission stage.

The property tests in ``test_property_admission.py`` pin the
controller's invariants over arbitrary operation sequences; here we pin
the concrete behaviors — bucket arithmetic, the hysteresis state
machine, park/release/expire flows, the node wiring, and the client
workload generators — on hand-built scenarios.
"""

from __future__ import annotations

import pytest

from repro.clients import generators as client_generators
from repro.clients.generators import (
    ClientTier,
    ClientWorkloadConfig,
    ScriptedBurst,
    ScriptedOverload,
)
from repro.errors import ConfigurationError
from repro.messaging.admission import (
    SOURCE_IDLE_TIMEOUT,
    AdmissionConfig,
    AdmissionController,
    AdmissionOutcome,
    AdmissionState,
)
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators


class StubClock:
    """A bare ``.now`` — the controller needs nothing else."""

    def __init__(self) -> None:
        self.now = 0.0


def make_controller(load=0.0, **overrides):
    clock = StubClock()
    state = {"load": load}
    config = AdmissionConfig(**overrides)
    controller = AdmissionController(
        config, clock, load_fn=lambda: state["load"]
    )
    return controller, clock, state


def offer(controller, source="s", priority=5):
    sent = []
    outcome = controller.offer(source, priority, lambda: sent.append(1))
    return outcome, sent


# ----------------------------------------------------------------------
# Token bucket + allowance
# ----------------------------------------------------------------------
def test_burst_admitted_then_out_of_allowance():
    controller, clock, _ = make_controller(burst_tokens=3.0, park_capacity=0)
    outcomes = [offer(controller)[0] for _ in range(5)]
    assert outcomes[:3] == [AdmissionOutcome.ADMITTED] * 3
    assert outcomes[3:] == [AdmissionOutcome.REJECTED] * 2
    # Tokens refill with time at the allowance rate.
    clock.now += 1.0
    assert offer(controller)[0] is AdmissionOutcome.ADMITTED


def test_admitted_offer_invokes_send_rejected_does_not():
    controller, _, _ = make_controller(burst_tokens=1.0, park_capacity=0)
    outcome, sent = offer(controller)
    assert outcome is AdmissionOutcome.ADMITTED and sent == [1]
    outcome, sent = offer(controller)
    assert outcome is AdmissionOutcome.REJECTED and sent == []


def test_allowance_rate_clamps_to_floor_bounds():
    controller, clock, _ = make_controller(
        capacity_rate=100.0, floor_min=5.0, floor_max=20.0, surge_max=1.0
    )
    # One source: fair share 100/s clamps to floor_max.
    offer(controller, source="a")
    assert controller.allowance_rate() == pytest.approx(20.0)
    # Fifty sources: fair share 2/s clamps up to floor_min.
    for index in range(50):
        offer(controller, source=f"s{index}")
    assert controller.allowance_rate() == pytest.approx(5.0)


def test_surge_multiplier_decays_across_park_band():
    controller, _, _ = make_controller(
        surge_max=4.0, park_low=0.2, park_high=0.6
    )
    assert controller.surge_multiplier(0.0) == pytest.approx(4.0)
    assert controller.surge_multiplier(0.2) == pytest.approx(4.0)
    assert controller.surge_multiplier(0.4) == pytest.approx(2.5)
    assert controller.surge_multiplier(0.6) == pytest.approx(1.0)
    assert controller.surge_multiplier(1.0) == pytest.approx(1.0)


def test_idle_sources_are_pruned():
    controller, clock, _ = make_controller()
    offer(controller, source="a")
    offer(controller, source="b")
    assert controller.active_sources == 2
    clock.now += 0.6 * SOURCE_IDLE_TIMEOUT
    offer(controller, source="b")
    # "a" last offered 1.2 idle timeouts ago, "b" 0.6.
    clock.now += 0.6 * SOURCE_IDLE_TIMEOUT
    controller.tick()
    assert controller.active_sources == 1
    assert controller.source_tokens("a") is None
    assert controller.source_tokens("b") is not None


# ----------------------------------------------------------------------
# Park / release / expire
# ----------------------------------------------------------------------
def test_out_of_allowance_offer_parks_and_releases_on_drain():
    controller, clock, state = make_controller(burst_tokens=1.0)
    offer(controller)
    outcome, sent = offer(controller)
    assert outcome is AdmissionOutcome.PARKED and sent == []
    assert controller.parked_live == 1
    # Load stays below park_low → next tick drains the park buffer.
    clock.now += 0.05
    controller.tick()
    assert controller.parked_live == 0
    assert controller.released == 1


def test_release_order_is_priority_then_fifo():
    controller, clock, _ = make_controller(burst_tokens=1.0, release_batch=10)
    released = []
    controller.offer("s", 5, lambda: released.append("admitted"))
    for tag, priority in (("low-1", 2), ("high-1", 8), ("low-2", 2), ("high-2", 8)):
        controller.offer("s", priority, lambda tag=tag: released.append(tag))
    clock.now += 0.05
    controller.tick()
    assert released == ["admitted", "high-1", "high-2", "low-1", "low-2"]


def test_parked_entries_expire_after_timeout():
    controller, clock, state = make_controller(
        burst_tokens=1.0, park_timeout=1.0
    )
    state["load"] = 0.55  # inside the park band: no drain, no reject
    offer(controller)
    assert offer(controller)[0] is AdmissionOutcome.PARKED
    clock.now += 1.5
    controller.tick()
    assert controller.parked_live == 0
    assert controller.expired == 1
    assert controller.released == 0


def test_replace_by_priority_evicts_only_strictly_lower():
    controller, clock, state = make_controller(
        burst_tokens=1.0, park_capacity=2
    )
    state["load"] = 0.55
    controller.tick()
    offer(controller)  # consume the bucket
    assert offer(controller, priority=3)[0] is AdmissionOutcome.PARKED
    assert offer(controller, priority=5)[0] is AdmissionOutcome.PARKED
    # Equal priority: rejected, the buffer is full.
    assert offer(controller, priority=3)[0] is AdmissionOutcome.REJECTED
    # Strictly higher: evicts the oldest lowest (the priority-3 entry).
    assert offer(controller, priority=7)[0] is AdmissionOutcome.PARKED
    assert controller.evicted == 1
    assert sorted(p for p, _, _ in controller.parked_items()) == [5, 7]


def test_clear_accounts_parked_entries_and_resets():
    controller, clock, state = make_controller(burst_tokens=1.0)
    state["load"] = 0.55
    controller.tick()
    offer(controller)
    offer(controller)
    offer(controller)
    assert controller.parked_live == 2
    controller.clear()
    assert controller.parked_live == 0
    assert controller.cleared == 2
    assert controller.state is AdmissionState.OPEN
    offered, accounted = controller.balance()
    assert offered == accounted == 3


# ----------------------------------------------------------------------
# Watermark state machine
# ----------------------------------------------------------------------
def test_hysteresis_transitions():
    controller, clock, state = make_controller(
        park_low=0.25, park_high=0.50, reject_low=0.60, reject_high=0.85
    )
    assert controller.state is AdmissionState.OPEN
    state["load"] = 0.55
    controller.tick()
    assert controller.state is AdmissionState.PARK
    # Falling back inside the band does not reopen (hysteresis)...
    state["load"] = 0.30
    controller.tick()
    assert controller.state is AdmissionState.PARK
    # ...only falling through park_low does.
    state["load"] = 0.20
    controller.tick()
    assert controller.state is AdmissionState.OPEN
    # Straight to REJECT at reject_high, and REJECT exits into PARK,
    # never directly to OPEN.
    state["load"] = 0.90
    controller.tick()
    assert controller.state is AdmissionState.REJECT
    state["load"] = 0.55
    controller.tick()
    assert controller.state is AdmissionState.PARK


def test_reject_state_rejects_out_of_allowance_offers():
    controller, clock, state = make_controller(burst_tokens=1.0)
    state["load"] = 0.90
    controller.tick()
    offer(controller)  # within bucket: still admitted even under REJECT
    outcome, _ = offer(controller)
    assert outcome is AdmissionOutcome.REJECTED
    assert controller.parked_live == 0


def test_invalid_watermark_configs_raise():
    with pytest.raises(ConfigurationError):
        AdmissionConfig(park_low=0.5, park_high=0.4)
    with pytest.raises(ConfigurationError):
        AdmissionConfig(park_high=0.7, reject_low=0.6)
    with pytest.raises(ConfigurationError):
        AdmissionConfig(reject_low=0.9, reject_high=0.8)
    with pytest.raises(ConfigurationError):
        AdmissionConfig(reject_high=1.5)


# ----------------------------------------------------------------------
# Node wiring
# ----------------------------------------------------------------------
def build_net(admission=None, nodes=4, seed=0):
    return OverlayNetwork.build(
        generators.chordal_ring(nodes, chords=2, weight=0.001),
        OverlayConfig(admission=admission),
        seed=seed,
    )


def test_offer_priority_without_admission_is_passthrough():
    net = build_net(admission=None)
    node = net.node(1)
    assert node.admission is None
    outcome = node.offer_priority(3, priority=5)
    assert outcome is AdmissionOutcome.ADMITTED
    net.run(1.0)
    assert net.delivered_count(1, 3) == 1


def test_offer_priority_meters_per_client_source():
    net = build_net(admission=AdmissionConfig(burst_tokens=2.0, park_capacity=0))
    node = net.node(1)
    outcomes = [
        node.offer_priority(3, priority=5, client="1/c0").value for _ in range(4)
    ]
    assert outcomes == ["admitted", "admitted", "rejected", "rejected"]
    # A different client of the same node has its own untouched bucket.
    assert node.offer_priority(3, priority=5, client="1/c1").value == "admitted"
    net.run(1.0)
    assert net.delivered_count(1, 3) == 3


def test_crash_clears_admission_state():
    net = build_net(admission=AdmissionConfig(burst_tokens=1.0))
    node = net.node(1)
    node.offer_priority(3, priority=5, client="1/c0")
    node.offer_priority(3, priority=5, client="1/c0")  # parked
    assert node.admission.parked_live == 1
    node.crash()
    assert node.admission.parked_live == 0
    assert node.admission.cleared == 1
    offered, accounted = node.admission.balance()
    assert offered == accounted


# ----------------------------------------------------------------------
# Client workload generators
# ----------------------------------------------------------------------
def run_tier(seed=0, seconds=5.0, admission=None):
    net = build_net(admission=admission, seed=seed)
    nodes = sorted(net.nodes)
    tier = ClientTier(
        net, nodes, nodes, config=ClientWorkloadConfig(arrival_rate=30.0)
    )
    tier.start()
    net.run(seconds)
    tier.stop()
    net.run(1.0)
    return tier, net


def offer_accounting(tier):
    return (
        tier.bursts_started, tier.offered, dict(tier.outcomes),
        tier.skipped_crashed, tier.unroutable,
    )


def test_client_tier_offers_accounted_and_delivered():
    tier, net = run_tier()
    assert tier.offered > 0
    accounted = (
        sum(tier.outcomes.values()) + tier.skipped_crashed + tier.unroutable
    )
    assert accounted == tier.offered
    # No admission stage: everything was admitted.
    assert tier.outcomes["admitted"] == tier.offered


def test_client_tier_is_deterministic_per_seed():
    first, _ = run_tier(seed=7)
    second, _ = run_tier(seed=7)
    third, _ = run_tier(seed=8)
    assert offer_accounting(first) == offer_accounting(second)
    assert offer_accounting(first) != offer_accounting(third)


def test_client_tier_respects_admission_stage(monkeypatch):
    monkeypatch.setattr(client_generators, "BURST_MAX", 32)
    tier, net = run_tier(
        admission=AdmissionConfig(
            capacity_rate=20.0, floor_min=1.0, floor_max=2.0,
            burst_tokens=1.0, surge_max=1.0,
        ),
    )
    outcomes = tier.outcomes
    assert outcomes["admitted"] < tier.offered
    assert outcomes["parked"] + outcomes["rejected"] > 0
    # Conservation across the whole deployment's controllers.
    for node in net.nodes.values():
        offered, accounted = node.admission.balance()
        assert offered == accounted


def test_diurnal_rate_swings_between_bounds():
    net = build_net()
    tier = ClientTier(
        net, [1, 2], [1, 2],
        config=ClientWorkloadConfig(arrival_rate=40.0),
    )
    assert client_generators.DIURNAL_AMPLITUDE == 0.5
    assert client_generators.DIURNAL_PERIOD == 40.0
    tier.start()
    assert tier.rate_at(0.0) == pytest.approx(40.0)
    assert tier.rate_at(10.0) == pytest.approx(60.0)  # peak at T/4
    assert tier.rate_at(30.0) == pytest.approx(20.0)  # trough at 3T/4
    assert tier.peak_rate == pytest.approx(60.0)


def test_scripted_overload_replays_plan_exactly():
    net = build_net(admission=AdmissionConfig(burst_tokens=4.0, park_capacity=0))
    plan = [
        ScriptedBurst(at=0.1, source=1, client="1/a", dest=3, count=6, priority=5),
        ScriptedBurst(at=0.2, source=2, client="2/a", dest=4, count=2, priority=7),
    ]
    driver = ScriptedOverload(net, plan)
    driver.arm(epoch=0.0)
    net.run(2.0)
    # First 4 offers of burst 0 fit the bucket; the rest are rejected.
    assert driver.outcomes == [
        (0, 0, "admitted"), (0, 1, "admitted"), (0, 2, "admitted"),
        (0, 3, "admitted"), (0, 4, "rejected"), (0, 5, "rejected"),
        (1, 0, "admitted"), (1, 1, "admitted"),
    ]
    assert driver.admitted_ids() == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1),
    ]
