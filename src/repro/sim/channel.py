"""Point-to-point datagram channels.

A :class:`Channel` is a unidirectional pipe with the four properties that
matter to the paper's evaluation:

* **propagation latency** (plus optional jitter),
* **bandwidth** — packets are serialized at the configured rate, so a
  saturated channel paces senders exactly like a real 10 Mbps overlay link,
* **loss** — independent Bernoulli loss per packet (Figure 8 sweeps this
  from 0% to 50%),
* **availability** — a channel can be taken down and restored, which is how
  the resilient-underlay model (BGP hijacking, Crossfire/Coremelt) and the
  crash/partition experiments (Figure 9) act on the overlay.

Channels deliver packets FIFO.  Reordering and duplication adversaries are
modeled above this layer (see :mod:`repro.byzantine`), and the
Proof-of-Receipt link tolerates both anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.runtime.interfaces import SchedulerLike


@dataclass(frozen=True)
class ChannelConfig:
    """Static properties of a channel.

    Attributes
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth_bps:
        Serialization rate in bits per second.  ``None`` means infinite
        (no pacing), which is useful in unit tests.
    loss_rate:
        Probability in [0, 1) that a packet is dropped in flight.
    jitter:
        Maximum additional random delay in seconds, drawn uniformly.
        Deliveries remain FIFO (delays are clamped to preserve order).
    """

    latency: float = 0.0
    bandwidth_bps: Optional[float] = None
    loss_rate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError(f"latency must be >= 0 (got {self.latency})")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ConfigurationError(
                f"bandwidth_bps must be positive (got {self.bandwidth_bps})"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1) (got {self.loss_rate})")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0 (got {self.jitter})")


class Channel:
    """A unidirectional lossy, paced, delayed datagram channel.

    The receiver registers ``on_receive(packet)``.  Senders call
    :meth:`send` with the packet object and its wire size in bytes; the
    channel serializes it (advancing ``busy_until``), applies loss, and
    schedules delivery.  :meth:`time_until_idle` lets a pacing sender ask
    how long until the channel can accept the next packet without queueing.

    ``(send, time_until_idle, on_receive)`` is exactly the
    :class:`repro.runtime.interfaces.TransportLike` seam; the live
    runtime's UDP channels implement the same surface, so the protocol
    stack runs unmodified over either substrate (``SimTransport`` below
    names this role explicitly).
    """

    def __init__(
        self,
        sim: SchedulerLike,
        config: ChannelConfig,
        name: str = "channel",
    ):
        self._sim = sim
        self.config = config
        self.name = name
        # ChannelConfig is frozen; bind the per-packet fields once so the
        # send fast path does plain attribute loads.
        self._latency = config.latency
        self._bandwidth_bps = config.bandwidth_bps
        self._loss_rate = config.loss_rate
        self._jitter = config.jitter
        self.on_receive: Optional[Callable[[Any], None]] = None
        self._busy_until = 0.0
        self._last_delivery = 0.0
        self._rng = sim.rngs.stream(f"channel:{name}")
        # Engine-specific fast path: delivery handles never escape the
        # channel and are never cancelled, so the simulated engine may pool
        # them.  Other SchedulerLike substrates fall back to schedule_at.
        self._schedule_transient = getattr(sim, "schedule_transient_at", None)
        self._up = True
        # Gray-failure impairment: silent extra loss/delay while nominally up.
        self._extra_loss = 0.0
        self._extra_delay = 0.0
        # Observability counters.
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_delivered = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Availability (used by the underlay / failure models)
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    def take_down(self) -> None:
        """Fail the channel: all packets sent while down are lost."""
        self._up = False

    def restore(self) -> None:
        """Restore a failed channel."""
        self._up = True

    # ------------------------------------------------------------------
    # Gray failures (used by the chaos fault-injection engine)
    # ------------------------------------------------------------------
    @property
    def impaired(self) -> bool:
        return self._extra_loss > 0.0 or self._extra_delay > 0.0

    @property
    def extra_loss(self) -> float:
        return self._extra_loss

    @property
    def extra_delay(self) -> float:
        return self._extra_delay

    def set_impairment(self, extra_loss: float = 0.0, extra_delay: float = 0.0) -> None:
        """Install a gray failure: the channel stays *up* but silently
        drops an extra ``extra_loss`` fraction of packets and adds
        ``extra_delay`` seconds of propagation.  Replaces any previous
        impairment; use :meth:`clear_impairment` to heal."""
        if not 0.0 <= extra_loss < 1.0:
            raise ConfigurationError(f"extra_loss must be in [0, 1) (got {extra_loss})")
        if extra_delay < 0:
            raise ConfigurationError(f"extra_delay must be >= 0 (got {extra_delay})")
        self._extra_loss = extra_loss
        self._extra_delay = extra_delay

    def clear_impairment(self) -> None:
        """Heal a gray failure."""
        self._extra_loss = 0.0
        self._extra_delay = 0.0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def time_until_idle(self) -> float:
        """Seconds until the serializer is free (0.0 if idle now)."""
        return max(0.0, self._busy_until - self._sim.now)

    def send(self, packet: Any, size_bytes: int) -> None:
        """Transmit ``packet``; delivery (or silent loss) is asynchronous."""
        now = self._sim.now
        start = max(now, self._busy_until)
        if self._bandwidth_bps is not None:
            serialization = (size_bytes * 8.0) / self._bandwidth_bps
        else:
            serialization = 0.0
        self._busy_until = start + serialization
        self.packets_sent += 1
        self.bytes_sent += size_bytes

        lost = not self._up
        if not lost and self._loss_rate > 0.0:
            lost = self._rng.random() < self._loss_rate
        if not lost and self._extra_loss > 0.0:
            lost = self._rng.random() < self._extra_loss
        if lost:
            self.packets_lost += 1
            return

        delay = self._latency + self._extra_delay
        if self._jitter > 0.0:
            delay += self._rng.random() * self._jitter
        arrival = self._busy_until + delay
        # FIFO: never deliver before a previously sent packet.
        arrival = max(arrival, self._last_delivery)
        self._last_delivery = arrival
        if self._schedule_transient is not None:
            self._schedule_transient(arrival, self._deliver, packet)
        else:
            self._sim.schedule_at(arrival, self._deliver, packet)

    def _deliver(self, packet: Any) -> None:
        if not self._up:
            # The channel failed while the packet was in flight.
            self.packets_lost += 1
            return
        self.packets_delivered += 1
        if self.on_receive is not None:
            self.on_receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "down"
        return f"Channel({self.name}, {state}, sent={self.packets_sent})"


#: The simulated substrate's implementation of the Transport seam
#: (:class:`repro.runtime.interfaces.TransportLike`); the live runtime's
#: counterpart is :class:`repro.runtime.transport.UdpSendChannel` /
#: :class:`~repro.runtime.transport.UdpReceiveChannel`.
SimTransport = Channel
