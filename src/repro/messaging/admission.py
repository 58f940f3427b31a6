"""DoS-resistant admission control in front of Priority Messaging.

The overlay's source-fairness eviction (Section V-C1) protects the
*network interior*, but a node that signs and forwards every message its
clients offer still wastes its own egress capacity under overload — and
a Byzantine client tier can offer unbounded load.  This module puts an
admission stage between the client tier and :meth:`OverlayNode.
send_priority`, modeled on DoS-resistant transaction mempools:

* **Dynamic per-source floor** — each client source is metered by a
  token bucket refilled at ``clamp(capacity_rate / active_sources,
  floor_min, floor_max)`` messages/second.  A conforming source that
  offers at or below ``floor_min`` is therefore *never* rejected, no
  matter what the rest of the tier does (the no-starvation guarantee the
  property tests pin).
* **Surge multiplier** — while the measured load is low the allowance is
  multiplied by up to ``surge_max`` so idle capacity is usable; the
  multiplier decays linearly to 1.0 as load rises through the park band.
* **Park / reject watermarks with hysteresis** — a load signal (the
  node's worst outgoing priority-queue occupancy) drives an
  OPEN → PARK → REJECT state machine.  Out-of-allowance offers are
  *parked* in a bounded buffer while load is moderate and *rejected*
  outright once the reject watermark is crossed; distinct enter/exit
  watermarks keep the state from flapping.
* **Replace-by-priority** — when the park buffer is full, a strictly
  higher-priority offer evicts the oldest lowest-priority parked entry;
  a lower- or equal-priority offer is rejected.  An eviction never
  discards a higher-priority entry for a lower one, by construction.

Every offer ends in exactly one bucket, and the controller maintains the
conservation law::

    offered == admitted + released + rejected + evicted + expired
               + cleared + parked (live)

which the Hypothesis property tests assert after arbitrary operation
sequences.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError


#: Controller tick cadence (load sampling, state transitions, drain).
TICK_INTERVAL = 0.05
#: Sources silent for this long stop counting as active.
SOURCE_IDLE_TIMEOUT = 10.0


class AdmissionOutcome(enum.Enum):
    """Fate of one offered message at the admission stage."""

    ADMITTED = "admitted"
    PARKED = "parked"
    REJECTED = "rejected"


class AdmissionState(enum.Enum):
    """The watermark state machine (hysteresis over the load signal)."""

    OPEN = "open"
    PARK = "park"
    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of one node's admission controller.

    Watermarks are fractions of the load signal (0..1) and must satisfy
    ``park_low < park_high <= reject_low < reject_high``: the park band
    always opens strictly below the reject band, so the controller can
    never reject without first having parked (watermark monotonicity).
    """

    #: Aggregate client messages/second this node's egress is sized for.
    #: The per-source allowance is this divided by the active sources.
    capacity_rate: float = 250.0
    #: Per-source allowance clamp (messages/second).  ``floor_min`` is a
    #: hard guarantee: a source offering at or below it is always served.
    floor_min: float = 5.0
    floor_max: float = 50.0
    #: Token-bucket depth per source, in messages (burst tolerance).
    burst_tokens: float = 8.0
    #: Allowance multiplier at low load; decays to 1.0 across the park
    #: band.  ``1.0`` disables the surge entirely.
    surge_max: float = 4.0
    #: Bounded park buffer (0 disables parking: out-of-allowance offers
    #: are rejected immediately — the conformance test mode, where every
    #: decision is a pure token-bucket count).
    park_capacity: int = 256
    #: Parked entries older than this are expired at the next tick.
    park_timeout: float = 2.0
    #: Hysteresis watermarks on the load signal.
    park_low: float = 0.25
    park_high: float = 0.50
    reject_low: float = 0.60
    reject_high: float = 0.85
    #: Parked entries released per tick while the load is below
    #: ``park_low`` (drain pacing).
    release_batch: int = 16
    #: Two-key metering: when True, offers are additionally metered by a
    #: per-*destination* token bucket (same capacity/floor math, keyed by
    #: the offer's ``dest``), so a Zipf-hot destination throttles at the
    #: ingress even when every individual source is conforming.  Both
    #: buckets must hold a token; both are decremented only on admission.
    per_destination: bool = False

    def __post_init__(self) -> None:
        if self.capacity_rate <= 0:
            raise ConfigurationError("capacity_rate must be positive")
        if not 0 < self.floor_min <= self.floor_max:
            raise ConfigurationError("need 0 < floor_min <= floor_max")
        if self.burst_tokens < 1.0:
            raise ConfigurationError("burst_tokens must be >= 1")
        if self.surge_max < 1.0:
            raise ConfigurationError("surge_max must be >= 1")
        if self.park_capacity < 0:
            raise ConfigurationError("park_capacity must be >= 0")
        if self.park_timeout <= 0:
            raise ConfigurationError("park_timeout must be positive")
        if not 0.0 <= self.park_low < self.park_high:
            raise ConfigurationError("need 0 <= park_low < park_high")
        if not self.park_high <= self.reject_low < self.reject_high <= 1.0:
            raise ConfigurationError(
                "need park_high <= reject_low < reject_high <= 1"
            )
        if self.release_batch < 1:
            raise ConfigurationError("release_batch must be >= 1")


class _SourceMeter:
    """Token bucket + bookkeeping for one client source."""

    __slots__ = ("tokens", "refilled_at", "last_offer", "offered", "admitted")

    def __init__(self, now: float, burst: float):
        self.tokens = burst  # new sources start with a full bucket
        self.refilled_at = now
        self.last_offer = now
        self.offered = 0
        self.admitted = 0


class _ParkedEntry:
    """One deferred offer waiting in the park buffer."""

    __slots__ = ("source", "priority", "send", "parked_at", "on_final")

    def __init__(
        self,
        source: Hashable,
        priority: int,
        send: Callable[[], Any],
        parked_at: float,
        on_final: Optional[Callable[[str], None]] = None,
    ):
        self.source = source
        self.priority = priority
        self.send = send
        self.parked_at = parked_at
        self.on_final = on_final


class AdmissionController:
    """Per-node admission stage (see module docstring).

    ``clock`` is anything with a ``now`` attribute (the simulator, the
    asyncio scheduler, or a plain test stub).  ``load_fn`` returns the
    load signal in [0, 1]; it is sampled on every :meth:`tick`.  Offers
    carry a zero-argument ``send`` callable that performs the actual
    injection — invoked immediately on admission, later on release of a
    parked entry, and never for rejected or evicted offers.
    """

    def __init__(
        self,
        config: AdmissionConfig,
        clock: Any,
        load_fn: Callable[[], float],
        stats: Optional[Any] = None,
        name: str = "admission",
    ):
        self.config = config
        self.name = name
        self._clock = clock
        self._load_fn = load_fn
        self.state = AdmissionState.OPEN
        self.load = 0.0
        self._surge = config.surge_max
        self._sources: Dict[Hashable, _SourceMeter] = {}
        #: Second meter family for two-key admission (``per_destination``).
        self._dests: Dict[Hashable, _SourceMeter] = {}
        #: Park buffer: per-priority FIFO deques + a live total.
        self._park: Dict[int, Deque[_ParkedEntry]] = {}
        self._parked_live = 0
        # Conservation counters (see module docstring).
        self.offered = 0
        self.admitted = 0
        self.released = 0
        self.rejected = 0
        self.evicted = 0
        self.expired = 0
        self.cleared = 0
        self.state_changes = 0
        self._stats = stats
        if stats is not None:
            self._c_offered = stats.counter("admission.offered")
            self._c_admitted = stats.counter("admission.admitted")
            self._c_parked = stats.counter("admission.parked")
            self._c_rejected = stats.counter("admission.rejected")
            self._c_evicted = stats.counter("admission.evicted")
            self._c_released = stats.counter("admission.released")
            self._c_expired = stats.counter("admission.expired")
            self._load_series = stats.series(f"{name}.load")

    # ------------------------------------------------------------------
    # Offer path
    # ------------------------------------------------------------------
    def offer(
        self,
        source: Hashable,
        priority: int,
        send: Callable[[], Any],
        size_bytes: int = 0,
        dest: Optional[Hashable] = None,
        on_final: Optional[Callable[[str], None]] = None,
    ) -> AdmissionOutcome:
        """Decide the fate of one offered message and act on it.

        ``dest`` feeds the optional two-key (per-destination) meter.
        ``on_final`` is invoked at most once with the *terminal*
        resolution of a PARKED offer — ``"released"``, ``"expired"``,
        ``"evicted"`` or ``"cleared"`` — so callers (the typed-NACK
        path) learn asynchronously what the synchronous PARKED return
        could not tell them.  Synchronous outcomes never fire it.
        """
        now = self._clock.now
        self.offered += 1
        if self._stats is not None:
            self._c_offered.add()
        meter = self._sources.get(source)
        if meter is None:
            meter = self._sources[source] = _SourceMeter(
                now, self.config.burst_tokens
            )
        else:
            self._refill(meter, now, self._sources)
        meter.offered += 1
        meter.last_offer = now
        dest_meter: Optional[_SourceMeter] = None
        if self.config.per_destination and dest is not None:
            dest_meter = self._dests.get(dest)
            if dest_meter is None:
                dest_meter = self._dests[dest] = _SourceMeter(
                    now, self.config.burst_tokens
                )
            else:
                self._refill(dest_meter, now, self._dests)
            dest_meter.offered += 1
            dest_meter.last_offer = now
        if meter.tokens >= 1.0 and (
            dest_meter is None or dest_meter.tokens >= 1.0
        ):
            # Both keys pass: decrement atomically, only on admission.
            meter.tokens -= 1.0
            meter.admitted += 1
            if dest_meter is not None:
                dest_meter.tokens -= 1.0
                dest_meter.admitted += 1
            self.admitted += 1
            if self._stats is not None:
                self._c_admitted.add()
            send()
            return AdmissionOutcome.ADMITTED
        # Out of allowance: park while moderate, reject while saturated.
        if self.state is AdmissionState.REJECT or self.config.park_capacity == 0:
            return self._reject()
        if self._parked_live >= self.config.park_capacity:
            if not self._replace_by_priority(priority, now):
                return self._reject()
        entry = _ParkedEntry(source, priority, send, now, on_final)
        level = self._park.get(priority)
        if level is None:
            level = self._park[priority] = deque()
        level.append(entry)
        self._parked_live += 1
        if self._stats is not None:
            self._c_parked.add()
        return AdmissionOutcome.PARKED

    @staticmethod
    def _finalize(entry: _ParkedEntry, outcome: str) -> None:
        """Fire a parked entry's terminal-resolution callback (once)."""
        callback, entry.on_final = entry.on_final, None
        if callback is not None:
            callback(outcome)

    def _reject(self) -> AdmissionOutcome:
        self.rejected += 1
        if self._stats is not None:
            self._c_rejected.add()
        return AdmissionOutcome.REJECTED

    def _replace_by_priority(self, priority: int, now: float) -> bool:
        """Evict the oldest lowest-priority parked entry iff the incoming
        offer's priority is strictly higher.  Returns True when room was
        made.  Never discards a higher- or equal-priority entry."""
        worst = self._lowest_parked_priority()
        if worst is None or worst >= priority:
            return False
        level = self._park[worst]
        entry = level.popleft()
        if not level:
            del self._park[worst]
        self._parked_live -= 1
        self.evicted += 1
        if self._stats is not None:
            self._c_evicted.add()
        self._finalize(entry, "evicted")
        return True

    def _lowest_parked_priority(self) -> Optional[int]:
        return min(self._park) if self._park else None

    # ------------------------------------------------------------------
    # Allowance
    # ------------------------------------------------------------------
    def allowance_rate(self, family: Optional[Dict[Hashable, _SourceMeter]] = None) -> float:
        """The current per-key refill rate, messages/second.  The fair
        share divides capacity by the family's active keys (sources by
        default; destinations for the two-key meter)."""
        if family is None:
            family = self._sources
        active = max(1, len(family))
        fair = self.config.capacity_rate / active
        floor = min(max(fair, self.config.floor_min), self.config.floor_max)
        return floor * self._surge

    def _refill(
        self,
        meter: _SourceMeter,
        now: float,
        family: Optional[Dict[Hashable, _SourceMeter]] = None,
    ) -> None:
        elapsed = now - meter.refilled_at
        if elapsed > 0:
            meter.tokens = min(
                self.config.burst_tokens,
                meter.tokens + elapsed * self.allowance_rate(family),
            )
        meter.refilled_at = now

    def surge_multiplier(self, load: float) -> float:
        """Surge factor at ``load``: ``surge_max`` below ``park_low``,
        decaying linearly to 1.0 at ``park_high`` and above."""
        config = self.config
        if load <= config.park_low:
            return config.surge_max
        if load >= config.park_high:
            return 1.0
        span = config.park_high - config.park_low
        return config.surge_max - (config.surge_max - 1.0) * (
            (load - config.park_low) / span
        )

    # ------------------------------------------------------------------
    # Tick: load sampling, state machine, park drain
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Sample the load signal, run the hysteresis state machine,
        expire stale parked entries, and drain the park buffer when the
        load has receded below the park-low watermark."""
        now = self._clock.now
        load = self._load_fn()
        self.load = min(1.0, max(0.0, load))
        self._surge = self.surge_multiplier(self.load)
        if self._stats is not None:
            self._load_series.record(now, self.load)
        self._transition(self.load)
        self._expire_parked(now)
        if self.load <= self.config.park_low:
            self._release(self.config.release_batch)
        self._prune_idle(now)

    def _transition(self, load: float) -> None:
        config = self.config
        state = self.state
        if state is AdmissionState.OPEN:
            if load >= config.reject_high:
                self._set_state(AdmissionState.REJECT)
            elif load >= config.park_high:
                self._set_state(AdmissionState.PARK)
        elif state is AdmissionState.PARK:
            if load >= config.reject_high:
                self._set_state(AdmissionState.REJECT)
            elif load <= config.park_low:
                self._set_state(AdmissionState.OPEN)
        elif load <= config.reject_low:
            # REJECT exits into PARK (never straight to OPEN): the load
            # must fall through the whole park band before offers flow
            # unconditionally again.
            self._set_state(AdmissionState.PARK)

    def _set_state(self, state: AdmissionState) -> None:
        if state is not self.state:
            self.state = state
            self.state_changes += 1

    def _expire_parked(self, now: float) -> None:
        deadline = now - self.config.park_timeout
        for priority in sorted(self._park):
            level = self._park.get(priority)
            if level is None:
                continue
            while level and level[0].parked_at <= deadline:
                entry = level.popleft()
                self._parked_live -= 1
                self.expired += 1
                if self._stats is not None:
                    self._c_expired.add()
                self._finalize(entry, "expired")
            if not level:
                del self._park[priority]

    def _release(self, budget: int) -> None:
        """Re-inject parked offers, highest priority first, oldest within
        a priority level."""
        while budget > 0 and self._park:
            best = max(self._park)
            level = self._park[best]
            entry = level.popleft()
            if not level:
                del self._park[best]
            self._parked_live -= 1
            self.released += 1
            budget -= 1
            if self._stats is not None:
                self._c_released.add()
            try:
                entry.send()
            except ProtocolError:
                # Transiently unroutable at release time: the entry left
                # the park either way (the network's loss, not ours).
                pass
            self._finalize(entry, "released")

    def _prune_idle(self, now: float) -> None:
        deadline = now - SOURCE_IDLE_TIMEOUT
        stale = [
            source
            for source, meter in self._sources.items()
            if meter.last_offer <= deadline
        ]
        for source in stale:
            del self._sources[source]
        if self._dests:
            stale_dests = [
                dest
                for dest, meter in self._dests.items()
                if meter.last_offer <= deadline
            ]
            for dest in stale_dests:
                del self._dests[dest]

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Crash path: drop all parked offers and per-source meters.
        Dropped entries are accounted as ``cleared`` so the conservation
        law survives a crash."""
        self.cleared += self._parked_live
        for level in self._park.values():
            for entry in level:
                self._finalize(entry, "cleared")
        self._park.clear()
        self._parked_live = 0
        self._sources.clear()
        self._dests.clear()
        self.state = AdmissionState.OPEN
        self.load = 0.0
        self._surge = self.config.surge_max

    @property
    def parked_live(self) -> int:
        """Live entries currently waiting in the park buffer."""
        return self._parked_live

    @property
    def active_sources(self) -> int:
        """Sources currently tracked (not yet idle-pruned)."""
        return len(self._sources)

    def parked_items(self) -> Iterator[Tuple[int, Hashable, float]]:
        """(priority, source, parked_at) of every live parked entry —
        test/introspection hook."""
        for priority, level in self._park.items():
            for entry in level:
                yield (priority, entry.source, entry.parked_at)

    def source_tokens(self, source: Hashable) -> Optional[float]:
        """Current bucket depth for ``source`` (None when untracked)."""
        meter = self._sources.get(source)
        return meter.tokens if meter is not None else None

    def dest_tokens(self, dest: Hashable) -> Optional[float]:
        """Current two-key bucket depth for ``dest`` (None when
        untracked or ``per_destination`` is off)."""
        meter = self._dests.get(dest)
        return meter.tokens if meter is not None else None

    @property
    def active_dests(self) -> int:
        """Destinations currently tracked by the two-key meter."""
        return len(self._dests)

    def balance(self) -> Tuple[int, int]:
        """(offered, accounted) — equal iff the conservation law holds."""
        accounted = (
            self.admitted
            + self.released
            + self.rejected
            + self.evicted
            + self.expired
            + self.cleared
            + self._parked_live
        )
        return self.offered, accounted

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly counter summary (reports and CLI)."""
        return {
            "state": self.state.value,
            "load": self.load,
            "offered": self.offered,
            "admitted": self.admitted,
            "released": self.released,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "expired": self.expired,
            "cleared": self.cleared,
            "parked": self._parked_live,
            "active_sources": len(self._sources),
            "active_dests": len(self._dests),
            "state_changes": self.state_changes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController({self.name!r}, state={self.state.value}, "
            f"load={self.load:.2f}, parked={self._parked_live})"
        )


__all__: List[str] = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionOutcome",
    "AdmissionState",
]
