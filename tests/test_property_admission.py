"""Hypothesis property tests for the admission controller.

Four laws, asserted over arbitrary generated scenarios rather than
hand-picked ones:

1. **Watermark monotonicity** — a constructible config always satisfies
   ``park_low < park_high <= reject_low < reject_high``; any ordering
   that violates it is rejected at construction.  Behaviorally, the
   surge multiplier is non-increasing in load.
2. **No starvation** — a conforming source that offers at or below
   ``floor_min`` is admitted on every offer, no matter what aggressor
   load, load-signal values, or tick timings surround it.
3. **Replace-by-priority never downgrades** — an eviction from the park
   buffer only ever discards an entry of *strictly lower* priority than
   the incoming offer; the minimum parked priority never decreases as a
   result of an eviction.
4. **Conservation** — after every operation,
   ``offered == admitted + released + rejected + evicted + expired +
   cleared + parked`` (``parked`` as ``snapshot()`` reports it).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ConfigurationError
from repro.messaging.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionOutcome,
)


class StubClock:
    def __init__(self) -> None:
        self.now = 0.0


def make(config: AdmissionConfig, load: float = 0.0):
    clock = StubClock()
    state = {"load": load}
    controller = AdmissionController(
        config, clock, load_fn=lambda: state["load"]
    )
    return controller, clock, state


def parked_priorities(controller: AdmissionController):
    """Sorted priorities of the live entries in the park buffer."""
    return sorted(
        entry.priority for level in controller._park.values() for entry in level
    )


# ----------------------------------------------------------------------
# 1. Watermark monotonicity
# ----------------------------------------------------------------------
fractions = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@given(park_low=fractions, park_high=fractions,
       reject_low=fractions, reject_high=fractions)
def test_watermark_ordering_is_enforced_at_construction(
    park_low, park_high, reject_low, reject_high
):
    ordered = (
        0.0 <= park_low < park_high <= reject_low < reject_high <= 1.0
    )
    if ordered:
        config = AdmissionConfig(
            park_low=park_low, park_high=park_high,
            reject_low=reject_low, reject_high=reject_high,
        )
        # The park band sits strictly below the reject band: the
        # controller can never reject without first having parked.
        assert config.park_low < config.park_high
        assert config.park_high <= config.reject_low < config.reject_high
    else:
        with pytest.raises(ConfigurationError):
            AdmissionConfig(
                park_low=park_low, park_high=park_high,
                reject_low=reject_low, reject_high=reject_high,
            )


@given(loads=st.lists(fractions, min_size=2, max_size=20),
       surge_max=st.floats(min_value=1.0, max_value=10.0))
def test_surge_multiplier_is_non_increasing_in_load(loads, surge_max):
    controller, _, _ = make(AdmissionConfig(surge_max=surge_max))
    for low, high in zip(sorted(loads), sorted(loads)[1:]):
        assert (
            controller.surge_multiplier(low)
            >= controller.surge_multiplier(high)
        )
    assert controller.surge_multiplier(0.0) == surge_max
    assert controller.surge_multiplier(1.0) == 1.0


# ----------------------------------------------------------------------
# 2. No starvation below the floor
# ----------------------------------------------------------------------
aggressor_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),    # aggressor source id
        st.integers(min_value=1, max_value=10),   # priority
        st.integers(min_value=1, max_value=30),   # offers in this batch
    ),
    max_size=25,
)


@given(
    loads=st.lists(fractions, min_size=1, max_size=25),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
        min_size=10, max_size=10,
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_conforming_source_below_floor_is_never_rejected(loads, gaps, data):
    config = AdmissionConfig(
        capacity_rate=100.0, floor_min=4.0, floor_max=40.0,
        burst_tokens=2.0, park_capacity=8, surge_max=2.0,
    )
    controller, clock, state = make(config)
    conforming_period = 1.0 / config.floor_min

    def hostile_churn():
        """Arbitrary aggressor traffic, load swings, and ticks."""
        for source, priority, count in data.draw(aggressor_ops):
            for _ in range(count):
                controller.offer(f"aggressor-{source}", priority, lambda: None)
        state["load"] = data.draw(st.sampled_from(loads))
        controller.tick()

    for gap in gaps:
        hostile_churn()
        # The conforming source offers at most once per floor-min period.
        clock.now += conforming_period + gap
        outcome = controller.offer("conforming", 1, lambda: None)
        assert outcome is AdmissionOutcome.ADMITTED


# ----------------------------------------------------------------------
# 3. Replace-by-priority never downgrades
# ----------------------------------------------------------------------
@given(
    priorities=st.lists(
        st.integers(min_value=1, max_value=10), min_size=1, max_size=80
    ),
    park_capacity=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_eviction_never_discards_equal_or_higher_priority(
    priorities, park_capacity
):
    config = AdmissionConfig(
        burst_tokens=1.0, park_capacity=park_capacity, park_timeout=1e9
    )
    controller, clock, state = make(config, load=0.55)
    controller.tick()  # PARK state: no release drain interferes
    controller.offer("s", 5, lambda: None)  # exhaust the bucket
    for priority in priorities:
        parked_before = parked_priorities(controller)
        evicted_before = controller.evicted
        outcome = controller.offer("s", priority, lambda: None)
        parked_after = parked_priorities(controller)
        if controller.evicted > evicted_before:
            # An eviction happened: the buffer was full, the discarded
            # entry had strictly lower priority than the incoming one,
            # and the incoming offer was parked in its place.
            assert len(parked_before) == park_capacity
            assert min(parked_before) < priority
            assert outcome is AdmissionOutcome.PARKED
            assert min(parked_after) >= min(parked_before)
        elif outcome is AdmissionOutcome.REJECTED:
            # Full buffer with nothing strictly lower to evict.
            assert len(parked_before) == park_capacity
            assert min(parked_before) >= priority
        assert len(parked_after) <= park_capacity


# ----------------------------------------------------------------------
# 4. Conservation
# ----------------------------------------------------------------------
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.integers(min_value=0, max_value=5),   # source
            st.integers(min_value=1, max_value=10),  # priority
        ),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False),
            st.just(0),
        ),
        st.tuples(st.just("tick"), fractions, st.just(0)),
        st.tuples(st.just("clear"), st.just(0.0), st.just(0)),
    ),
    max_size=120,
)


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_every_offer_is_accounted_exactly_once(ops):
    config = AdmissionConfig(
        capacity_rate=20.0, floor_min=2.0, floor_max=10.0,
        burst_tokens=2.0, park_capacity=4, park_timeout=0.5,
        release_batch=2,
    )
    controller, clock, state = make(config)
    for kind, a, b in ops:
        if kind == "offer":
            controller.offer(f"s{a}", b, lambda: None)
        elif kind == "advance":
            clock.now += a
        elif kind == "tick":
            state["load"] = a
            controller.tick()
        else:
            controller.clear()
        offered, accounted = controller.balance()
        assert offered == accounted
        assert controller.snapshot()["parked"] >= 0
        assert controller.snapshot()["parked"] <= config.park_capacity


# ----------------------------------------------------------------------
# 5. Two-key (per-destination) metering
# ----------------------------------------------------------------------
two_key_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.integers(min_value=0, max_value=5),   # source
            st.integers(min_value=0, max_value=5),   # dest
            st.integers(min_value=1, max_value=10),  # priority
        ),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False),
            st.just(0), st.just(0),
        ),
        st.tuples(st.just("tick"), fractions, st.just(0), st.just(0)),
        st.tuples(st.just("clear"), st.just(0.0), st.just(0), st.just(0)),
    ),
    max_size=120,
)


@given(ops=two_key_operations)
@settings(max_examples=100, deadline=None)
def test_two_key_conservation_and_nonnegative_dest_buckets(ops):
    """Conservation holds verbatim with the second (destination) key
    armed, and neither key's bucket ever goes negative: an offer only
    debits both meters when *both* hold a token, so double-counting an
    admit against one bucket is structurally impossible."""
    config = AdmissionConfig(
        capacity_rate=20.0, floor_min=2.0, floor_max=10.0,
        burst_tokens=2.0, park_capacity=4, park_timeout=0.5,
        release_batch=2, per_destination=True,
    )
    controller, clock, state = make(config)
    dests_seen = set()
    for kind, a, b, c in ops:
        if kind == "offer":
            dest = f"d{b}"
            dests_seen.add(dest)
            controller.offer(f"s{a}", c, lambda: None, dest=dest)
        elif kind == "advance":
            clock.now += a
        elif kind == "tick":
            state["load"] = a
            controller.tick()
        else:
            controller.clear()
            dests_seen.clear()
        offered, accounted = controller.balance()
        assert offered == accounted
        assert controller.snapshot()["parked"] >= 0
        for dest in dests_seen:
            meter = controller._dests.get(dest)
            assert meter is None or meter.tokens >= 0.0
        meter = controller._sources.get("s0")
        assert meter is None or meter.tokens >= 0.0


@given(
    loads=st.lists(fractions, min_size=1, max_size=25),
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=0.5,
                  allow_nan=False, allow_infinity=False),
        min_size=10, max_size=10,
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_two_key_conforming_pair_below_floor_is_never_rejected(
    loads, gaps, data
):
    """No starvation under the two-key meter: a conforming
    (source, destination) pair offering at or below ``floor_min`` on
    both keys is admitted on every offer, no matter how hard aggressor
    sources hammer *other* destinations (and their own buckets)."""
    config = AdmissionConfig(
        capacity_rate=100.0, floor_min=4.0, floor_max=40.0,
        burst_tokens=2.0, park_capacity=8, surge_max=2.0,
        per_destination=True,
    )
    controller, clock, state = make(config)
    conforming_period = 1.0 / config.floor_min

    def hostile_churn():
        for source, priority, count in data.draw(aggressor_ops):
            for _ in range(count):
                controller.offer(
                    f"aggressor-{source}", priority, lambda: None,
                    dest=f"hot-{source % 3}",
                )
        state["load"] = data.draw(st.sampled_from(loads))
        controller.tick()

    for gap in gaps:
        hostile_churn()
        clock.now += conforming_period + gap
        outcome = controller.offer(
            "conforming", 1, lambda: None, dest="quiet-dest"
        )
        assert outcome is AdmissionOutcome.ADMITTED
