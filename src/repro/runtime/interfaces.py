"""The Clock / Scheduler / Transport seam between protocols and substrates.

The overlay protocol stack (:class:`repro.overlay.node.OverlayNode`, the
Proof-of-Receipt link, the messaging engines, every protocol timer) never
needs a *simulator* — it needs three narrow capabilities:

* a **clock** (``now``),
* a **scheduler** for deferred callbacks (``schedule`` / ``schedule_at`` /
  ``call_soon``) plus named deterministic RNG streams (``rngs``),
* a **transport** per directed link (``send`` a payload of a declared wire
  size, register ``on_receive``, and ask ``time_until_idle`` for pacing).

These protocols name that seam.  Two substrates implement it:

* the discrete-event simulator — :class:`repro.sim.engine.Simulator` is a
  ``SchedulerLike`` and :class:`repro.sim.channel.Channel` (aliased
  ``SimTransport``) is a ``TransportLike``; behaviour is bit-for-bit what
  it was before the seam existed, and seeded runs stay byte-identical;
* the live asyncio/UDP runtime — :class:`repro.runtime.scheduler.
  AsyncioScheduler` schedules on a real event loop and
  :class:`repro.runtime.transport.UdpSendChannel` puts real datagrams on
  127.0.0.1 sockets.

Typing is structural (:class:`typing.Protocol`): protocol modules annotate
against these interfaces under ``TYPE_CHECKING`` and neither substrate
imports the other.  The contract each implementation must honour:

* ``now`` is seconds, monotonically non-decreasing, starting at 0.0;
* ``schedule(delay, cb, *args)`` runs ``cb(*args)`` no earlier than
  ``now + delay``; same-time callbacks run in scheduling order;
* the handle returned by every scheduling call has an idempotent
  ``cancel()``; ``schedule_transient_at`` returns none, for callbacks
  nobody cancels;
* ``rngs`` is a :class:`repro.sim.rng.RngRegistry` so every component's
  named stream is deterministic given the master seed.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.rng import RngRegistry


@runtime_checkable
class CancellableHandle(Protocol):
    """A cancellable reference to a scheduled callback."""

    def cancel(self) -> None:
        """Cancel the callback; cancelling twice is a no-op."""


@runtime_checkable
class ClockLike(Protocol):
    """Read-only time source (seconds since the run started)."""

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock-relative)."""


@runtime_checkable
class SchedulerLike(Protocol):
    """Clock + deferred-callback scheduling + named RNG streams.

    :class:`repro.sim.engine.Simulator` and
    :class:`repro.runtime.scheduler.AsyncioScheduler` both satisfy this.
    """

    rngs: RngRegistry

    @property
    def now(self) -> float:
        """Current time in seconds."""

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> CancellableHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now."""

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> CancellableHandle:
        """Run ``callback(*args)`` at absolute time ``time``."""

    def call_soon(
        self, callback: Callable[..., None], *args: Any
    ) -> CancellableHandle:
        """Run ``callback(*args)`` as soon as possible (after pending work)."""

    def schedule_transient_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at absolute time ``time``; no handle.

        For hot timers that are never cancelled (packet delivery, the PoR
        ACK flush, a link's pump retry).  It orders exactly like
        :meth:`schedule_at`: same-time callbacks from either method run in
        the order they were scheduled.  A substrate-wide teardown (such as
        ``AsyncioScheduler.shutdown``) still cancels it.
        """


@runtime_checkable
class TransportLike(Protocol):
    """One directed link's datagram transport.

    The sender half: :meth:`send` transmits a payload object whose wire
    size is declared by the caller (the simulator charges serialization
    time for it; the UDP transport encodes and sends a real datagram).
    The receiver half: the owner of the receiving end registers
    ``on_receive(payload)``.  ``time_until_idle`` supports pacing senders;
    substrates without a serialization model return 0.0.
    """

    on_receive: Optional[Callable[[Any], None]]

    def send(self, packet: Any, size_bytes: int) -> None:
        """Transmit ``packet``; delivery (or loss) is asynchronous."""

    def time_until_idle(self) -> float:
        """Seconds until the transport can accept another packet (0.0 = now)."""
