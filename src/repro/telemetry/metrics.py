"""The central metrics registry: counters, gauges, histograms, series.

Design constraints, in priority order:

1. **Determinism** — a snapshot of a seeded run must be byte-identical
   across processes: no wall-clock timestamps, no randomized sampling,
   keys emitted in sorted order.
2. **Bounded memory** — histograms keep fixed bucket arrays and time
   series keep a fixed-length window, so *this registry's* instruments
   never grow with run length (a chaos soak records millions of
   deliveries).  The sim-time meters of :mod:`repro.sim.stats` that
   :class:`~repro.sim.stats.StatsRegistry` keeps beside it are not
   bounded: ``OverlayNode.deliver_local`` appends one sample per delivered
   message to the flow's ``LatencyRecorder`` and to its
   ``priority-count:*`` ``TimeSeries``.
3. **Cheap when idle** — incrementing a counter is one dict hit avoided
   (callers cache the object) plus an integer add; nothing allocates on
   the hot path.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.tracing import TraceCollector


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment the counter by ``amount``."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named instantaneous value (last-write-wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge's value by ``delta``."""
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self.value})"


#: Default histogram bucket upper bounds: a geometric ladder wide enough
#: for both latencies in seconds (1 us .. minutes) and sizes in bytes.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-12, 21)  # 1e-6 .. 1e10, half-decades
)


class Histogram:
    """Fixed-bucket histogram with streaming min/max/sum.

    Memory is bounded by the bucket count regardless of how many values
    are observed.  Percentiles are estimated by linear interpolation
    inside the winning bucket, clamped to the observed min/max so the
    estimate never leaves the data range.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {name}")
        # One bucket per bound (values <= bound) plus one overflow bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100] (got {p})")
        if self.count == 0:
            return 0.0
        if p == 0.0:
            return self.min
        if p == 100.0:
            return self.max
        target = (p / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.max
                )
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                frac = (target - cumulative) / bucket_count
                return lower + (upper - lower) * frac
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable with count > 0

    def snapshot(self) -> Dict[str, float]:
        """Summary dict (bucket arrays are an implementation detail)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class BoundedTimeSeries:
    """A (time, value) series holding at most ``maxlen`` samples.

    Older samples are evicted (and counted in ``dropped``) so memory is
    bounded for arbitrarily long runs; the window keeps the most recent
    history, which is what dashboards and post-mortems want.
    """

    __slots__ = ("name", "maxlen", "samples", "dropped")

    def __init__(self, name: str, maxlen: int = 4096):
        self.name = name
        self.maxlen = maxlen
        self.samples: Deque[Tuple[float, float]] = deque(maxlen=maxlen)
        self.dropped = 0

    def record(self, time: float, value: float) -> None:
        """Append one (time, value) sample, evicting the oldest if full."""
        if len(self.samples) == self.maxlen:
            self.dropped += 1
        self.samples.append((time, value))

    def values(self) -> List[float]:
        """The retained values, oldest first."""
        return [v for _, v in self.samples]

    def times(self) -> List[float]:
        """The retained sample times, oldest first."""
        return [t for t, _ in self.samples]

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent (time, value) sample, or None when empty."""
        return self.samples[-1] if self.samples else None

    def __len__(self) -> int:
        return len(self.samples)


class MetricsRegistry:
    """A namespace of telemetry instruments, created on first use.

    One registry serves a whole simulation: the overlay's
    :class:`repro.sim.stats.StatsRegistry` is backed by it, the PKI
    reports crypto ops into it, links report per-message-type bytes, and
    the chaos engine reports fault counts — so one
    :meth:`snapshot` describes the entire run.
    """

    def __init__(self, series_maxlen: int = 4096):
        self._series_maxlen = series_maxlen
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, BoundedTimeSeries] = {}
        #: Structured span/event tracing; disabled (no-op) by default.
        self.trace = TraceCollector()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = Gauge(name)
            self._gauges[name] = gauge
        return gauge

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        """The named histogram, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds)
            self._histograms[name] = histogram
        return histogram

    def series(self, name: str, maxlen: Optional[int] = None) -> BoundedTimeSeries:
        """The named bounded time series, created on first use."""
        series = self._series.get(name)
        if series is None:
            series = BoundedTimeSeries(name, maxlen or self._series_maxlen)
            self._series[name] = series
        return series

    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, int]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, dict]:
        """Deterministic nested snapshot of every instrument.

        Keys are sorted; values contain no wall-clock state, so two
        same-seed runs produce identical snapshots.
        """
        return {
            "counters": self.counter_values(),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: {"samples": len(s), "dropped": s.dropped, "last": s.last()}
                for name, s in sorted(self._series.items())
            },
        }
