"""The discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Components schedule callbacks with :meth:`Simulator.schedule` (a
relative delay) or :meth:`Simulator.schedule_at` (an absolute time) and the
engine executes them in timestamp order.  Ties are broken by scheduling
order, which keeps runs fully deterministic.

The engine is intentionally minimal: no processes, no coroutines — just
callbacks.  Higher layers (links, CPU models, protocol timers) build their
own abstractions on top.

:class:`Simulator` is the simulated implementation of the
:class:`repro.runtime.interfaces.SchedulerLike` seam (``now``,
``schedule``, ``schedule_at``, ``schedule_transient_at``, ``call_soon``,
``rngs``); the live runtime's :class:`repro.runtime.scheduler.
AsyncioScheduler` implements the same surface over a real event loop.
:class:`PeriodicTimer` is written against the seam, so protocol
heartbeats run unchanged on both.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.runtime.interfaces import CancellableHandle, SchedulerLike


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: "Simulator"):
        self.cancelled = False
        #: The simulator whose heap still holds this event; None once the
        #: event has run or been cancelled, so only the first cancel of a
        #: queued event counts toward the simulator's dead-entry tally.
        self._sim: Optional[Simulator] = sim

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped by the engine."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventHandle({'cancelled' if self.cancelled else 'pending'})"


#: A heap entry: ``(time, seq, callback, args, handle)``.  ``seq`` is unique,
#: so ``heapq`` orders entries by ``(time, seq)`` with C tuple comparison and
#: never looks further.  ``handle`` is None for fire-and-forget events.
_Entry = Tuple[float, int, Callable[..., None], tuple, Optional[EventHandle]]


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`RngRegistry`.  Every
        stochastic component derives a named substream from this seed, so
        two simulators built with the same seed and workload produce
        byte-identical histories.
    """

    #: Don't bother compacting tiny queues: below this size a sweep costs
    #: more bookkeeping than the dead entries do.
    COMPACT_MIN_QUEUE = 64

    def __init__(self, seed: int = 0):
        #: Current simulated time in seconds.
        self.now = 0.0
        self._queue: List[_Entry] = []
        # One sequence number per scheduled event, on every path: it is the
        # tie-break that makes same-time events run in scheduling order.
        self._next_seq = itertools.count(1).__next__
        self._events_run = 0
        #: Cancelled entries still in the heap (they leave it by being
        #: popped at the head or swept by _compact).
        self._cancelled = 0
        self._running = False
        self._profiler: Optional[Any] = None
        self.rngs = RngRegistry(seed)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        handle = EventHandle(self)
        heapq.heappush(self._queue, (time, self._next_seq(), callback, args, handle))
        return handle

    def schedule_transient_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a fire-and-forget ``callback(*args)`` at ``time``.

        No handle is created or returned, so the event cannot be
        cancelled.  It takes its sequence number exactly as
        :meth:`schedule_at` would, so moving a never-cancelled timer onto
        this path leaves event order unchanged.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._queue, (time, self._next_seq(), callback, args, None))

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, callback, *args)

    def _note_cancel(self) -> None:
        self._cancelled += 1
        # Long soaks (chaos schedules, probe backoff timers) cancel far
        # more events than they run; once dead entries dominate the heap,
        # sweep them so memory and pop costs stay proportional to live work.
        if (
            self._cancelled * 2 > len(self._queue)
            and len(self._queue) >= self.COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify."""
        self._queue[:] = [
            entry for entry in self._queue
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.  When ``until``
        is given and no event at or before it is left, the clock is
        advanced to ``until`` even if the queue drained earlier, so
        back-to-back ``run`` calls observe a continuous timeline.  A run
        stopped by ``max_events`` leaves the clock at its last event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # Function-local bindings: the loop below runs once per event.
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        profiler = self._profiler
        executed = 0
        try:
            while queue and executed < budget:
                entry = pop(queue)
                when, _, callback, args, handle = entry
                if when > horizon:
                    heapq.heappush(queue, entry)
                    break
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    # The event has left the heap: a later cancel() must
                    # not count it as a dead entry.
                    handle._sim = None
                self.now = when
                if profiler is None:
                    callback(*args)
                else:
                    started = time.perf_counter()
                    callback(*args)
                    profiler.record(
                        getattr(callback, "__qualname__", None)
                        or type(callback).__name__,
                        time.perf_counter() - started,
                    )
                executed += 1
        finally:
            self._running = False
            self._events_run += executed
        if until is not None and self.now < until and not (queue and queue[0][0] <= until):
            self.now = until
        return executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) queued events."""
        live = len(self._queue) - self._cancelled
        assert live >= 0, (
            f"event accounting drifted: queue={len(self._queue)} "
            f"cancelled={self._cancelled}"
        )
        return live

    @property
    def events_run(self) -> int:
        """Total number of events executed by completed :meth:`run` calls."""
        return self._events_run

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def enable_profiling(self, profiler: Optional[Any] = None):
        """Install (and return) an event-loop profiler.

        From the next :meth:`run` call on, every executed event is timed
        with ``time.perf_counter`` and recorded under its callback's
        qualified name (see
        :class:`repro.telemetry.profiling.EventLoopProfiler`).  When no
        profiler is installed the run loop pays a single ``is None``
        check per event, which is unmeasurable.
        """
        if profiler is None:
            from repro.telemetry.profiling import EventLoopProfiler

            profiler = EventLoopProfiler()
        self._profiler = profiler
        return profiler

    @property
    def profiler(self) -> Optional[Any]:
        """The installed event-loop profiler, if any."""
        return self._profiler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={len(self._queue)})"


class PeriodicTimer:
    """A repeating timer that fires ``callback()`` every ``interval`` seconds.

    The first firing happens ``interval`` seconds after :meth:`start` (or
    after an optional phase offset).  Used for protocol heartbeats such as
    E2E ACK generation and link-state refresh.

    Firings stay on the absolute grid ``start + phase + n * interval``:
    each next firing is computed by multiplication from the epoch rather
    than by adding ``interval`` to the previous firing time, so
    floating-point error cannot accumulate into phase drift over long
    soaks (adding 0.1 to itself thousands of times walks off the grid;
    ``n * 0.1`` does not).
    """

    def __init__(self, sim: SchedulerLike, interval: float, callback: Callable[[], None]):
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive (got {interval})")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._handle: Optional[CancellableHandle] = None
        self._epoch = 0.0
        self._ticks = 0

    def start(self, phase: float = 0.0) -> None:
        """Arm the timer; the first firing is ``interval + phase`` from now."""
        self.stop()
        self._epoch = self._sim.now + phase
        self._ticks = 0
        self._handle = self._sim.schedule_at(self._epoch + self._interval, self._fire)

    def stop(self) -> None:
        """Disarm the timer."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._ticks += 1
        next_time = self._epoch + (self._ticks + 1) * self._interval
        now = self._sim.now
        while next_time <= now:
            # The grid point already passed (a callback re-entered the
            # clock); skip forward rather than scheduling into the past.
            self._ticks += 1
            next_time = self._epoch + (self._ticks + 1) * self._interval
        self._handle = self._sim.schedule_at(next_time, self._fire)
        self._callback()
