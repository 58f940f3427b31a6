"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import PeriodicTimer, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock advanced to the horizon
        sim.run(until=6.0)
        assert fired == [1, 5]

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert fired == [0, 1, 2]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_step_runs_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_run_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_run == 4

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
    def test_property_execution_order_is_sorted(self, delays):
        sim = Simulator()
        executed = []
        for d in delays:
            sim.schedule(d, lambda t=d: executed.append(t))
        sim.run()
        assert executed == sorted(delays)


class TestPendingAndCompaction:
    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        assert sim.pending == 6
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending == 4

    def test_pending_after_cancelled_head_pops(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        sim.run(until=1.5)  # pops the cancelled head without running it
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_compaction_drops_cancelled_events(self):
        sim = Simulator()
        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        doomed = [sim.schedule(100.0 + i, lambda: None) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        # Compaction swept the heap (repeatedly) while cancelled entries
        # dominated; it stops once the queue shrinks below the floor, so a
        # few dead entries may legitimately remain.
        assert len(sim._queue) < sim.COMPACT_MIN_QUEUE
        assert sim.pending == len(keep)
        executed = sim.run()
        assert executed == len(keep)

    def test_small_queues_not_compacted(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        doomed = [sim.schedule(2.0 + i, lambda: None) for i in range(5)]
        for handle in doomed:
            handle.cancel()
        # Below COMPACT_MIN_QUEUE the lazy-deletion heap is left alone.
        assert len(sim._queue) == 6
        assert sim.pending == 1

    def test_execution_order_survives_compaction(self):
        sim = Simulator()
        order = []
        for i in range(40):
            sim.schedule(float(i), order.append, i)
        doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(100)]
        for handle in doomed:
            handle.cancel()
        sim.run()
        assert order == list(range(40))

    def test_cancel_after_execution_does_not_drift_accounting(self):
        # Regression: cancelling an already-executed handle used to fire
        # on_cancel and inflate _cancelled, making `pending` undercount
        # live events (and eventually assert).
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # stale cancel: the event already ran
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 1
        assert sim.run() == 1
        assert sim.pending == 0

    def test_stale_cancel_soak_keeps_accounting_exact(self):
        # A protocol-timer pattern: every event reschedules itself and
        # cancels its predecessor's (already executed) handle.  Accounting
        # must stay exact over many iterations.
        sim = Simulator()
        state = {}

        def tick(step):
            old = state.get("handle")
            if old is not None:
                old.cancel()  # always stale: old ran to schedule us
            if step < 500:
                state["handle"] = sim.schedule(1.0, tick, step + 1)

        state["handle"] = sim.schedule(1.0, tick, 0)
        sim.run()
        assert sim.pending == 0
        assert sim._cancelled == 0

    def test_cancelled_head_pop_decrements_cancelled_count(self):
        sim = Simulator()
        doomed = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        survivor = sim.schedule(100.0, lambda: None)
        for handle in doomed:
            handle.cancel()
        sim.run()  # pops every cancelled head on its way to the survivor
        assert sim._cancelled == 0
        assert sim.pending == 0
        assert survivor.cancelled is False


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not timer.running

    def test_phase_offsets_first_firing(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start(phase=0.25)
        sim.run(until=3.0)
        assert ticks == [1.25, 2.25]

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_no_phase_drift_over_long_soak(self):
        # Regression: rescheduling at now + interval accumulates binary
        # floating-point error for intervals like 0.1; firings must stay
        # bit-exactly on the grid epoch + n * interval instead.
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.1, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=100.0)
        assert len(ticks) == 1000
        assert all(t == (i + 1) * 0.1 for i, t in enumerate(ticks))

    def test_restart_rebases_the_grid(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=2.5)
        timer.start()  # restart at t=2.5: new epoch
        sim.run(until=5.0)
        assert ticks == [1.0, 2.0, 3.5, 4.5]


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        sim = Simulator(seed=7)
        assert sim.rngs.stream("a") is sim.rngs.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        sim1 = Simulator(seed=7)
        a_first = [sim1.rngs.stream("a").random() for _ in range(5)]
        sim2 = Simulator(seed=7)
        sim2.rngs.stream("b").random()  # interleave another stream
        a_second = [sim2.rngs.stream("a").random() for _ in range(5)]
        assert a_first == a_second

    def test_different_seeds_differ(self):
        r1 = Simulator(seed=1).rngs.stream("a").random()
        r2 = Simulator(seed=2).rngs.stream("a").random()
        assert r1 != r2
