"""Wall-clock implementation of the scheduler interface over asyncio.

:class:`AsyncioScheduler` gives the protocol stack the exact API surface
it uses on :class:`repro.sim.engine.Simulator` — ``now``, ``schedule``,
``schedule_at``, ``schedule_transient_at``, ``call_soon``, and the seeded
``rngs`` registry — but backed by a real :mod:`asyncio` event loop, so
every protocol timer (hello beacons, retransmission timeouts, E2E ACK
generation, probe backoff) fires in real time.

Differences from the simulator, by design:

* ``now`` is wall-clock seconds since the scheduler was created (the
  epoch is rebased to 0.0 so configuration timeouts and stats windows
  read the same in both substrates);
* scheduling "into the past" clamps to "as soon as possible" instead of
  raising — wall-clock callbacks routinely run a few microseconds after
  their nominal deadline, so a follow-up computed from ``now`` can land
  marginally behind it (the simulator's strictness stays intact for
  simulated runs);
* there is no run loop to drive: asyncio owns execution, and
  :meth:`shutdown` cancels every outstanding callback for graceful
  teardown.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Set

from repro.sim.rng import RngRegistry


class AsyncioHandle:
    """Cancellable wrapper around an asyncio timer, API-compatible with
    :class:`repro.sim.engine.EventHandle` (``cancel()``, ``cancelled``)."""

    __slots__ = ("_timer", "_scheduler", "cancelled")

    def __init__(self, scheduler: "AsyncioScheduler") -> None:
        self._scheduler = scheduler
        self._timer: Optional[asyncio.TimerHandle] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the callback; cancelling twice (or after it ran) is a no-op."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._scheduler._forget(self)


class AsyncioScheduler:
    """The live runtime's clock + scheduler (see module docstring).

    Must be constructed while an asyncio event loop is running (the
    :class:`~repro.runtime.live.LiveDeployment` does this inside
    ``asyncio.run``).
    """

    def __init__(
        self,
        seed: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        epoch: Optional[float] = None,
    ):
        self._loop = loop or asyncio.get_event_loop()
        # A cluster coordinator distributes one shared ``epoch`` (a
        # CLOCK_MONOTONIC reading, which asyncio's clock also uses) to
        # every shard process so cross-shard latency stamps share a time
        # base; a standalone deployment rebases to its own creation time.
        self._epoch = self._loop.time() if epoch is None else epoch
        self._handles: Set[AsyncioHandle] = set()
        self._callbacks_run = 0
        self.rngs = RngRegistry(seed)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since this scheduler was created."""
        return self._loop.time() - self._epoch

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> AsyncioHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now (clamped >= 0)."""
        handle = AsyncioHandle(self)
        handle._timer = self._loop.call_later(
            max(0.0, delay), self._run, handle, callback, args
        )
        self._handles.add(handle)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> AsyncioHandle:
        """Run ``callback(*args)`` at absolute scheduler time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> AsyncioHandle:
        """Run ``callback(*args)`` on the next loop iteration."""
        return self.schedule(0.0, callback, *args)

    def schedule_transient_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`schedule_at` without returning the handle; it stays
        tracked, so :meth:`shutdown` still cancels the callback."""
        self.schedule_at(time, callback, *args)

    def _run(self, handle: AsyncioHandle, callback: Callable[..., None], args: tuple) -> None:
        self._handles.discard(handle)
        if handle.cancelled:
            return
        handle.cancelled = True  # the handle is spent; a late cancel is a no-op
        self._callbacks_run += 1
        callback(*args)

    def _forget(self, handle: AsyncioHandle) -> None:
        self._handles.discard(handle)

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (not yet run, not cancelled) callbacks."""
        return len(self._handles)

    @property
    def events_run(self) -> int:
        """Total callbacks executed over the scheduler's lifetime."""
        return self._callbacks_run

    def shutdown(self) -> int:
        """Cancel every outstanding callback; returns how many were cancelled."""
        outstanding = list(self._handles)
        for handle in outstanding:
            handle.cancel()
        self._handles.clear()
        return len(outstanding)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncioScheduler(now={self.now:.3f}, pending={self.pending})"
