"""The run's one telemetry registry and its instruments.

Every figure in the paper's evaluation is a time series (goodput over time,
latency over time, per-priority message counts) or an aggregate (average
hops, maximum goodput), and every layer reports what it did into the same
place.  This module provides small, allocation-light instruments and the
registry that hands them out:

* :class:`Counter` and :class:`Gauge` — protocol, crypto-op and
  per-message-type counts, and last-write-wins values;
* :class:`GoodputMeter` — bucketizes delivered bytes into fixed intervals
  and reports Mbps series (Figures 4, 5, 6a, 9);
* :class:`LatencyRecorder` — per-delivery latencies with summary statistics
  (Figure 6b);
* :class:`TimeSeries` — (time, value) samples;
* :class:`StatsRegistry` — one namespace for all of the above plus the
  run's :class:`~repro.telemetry.tracing.TraceCollector`, with one
  deterministic :meth:`~StatsRegistry.snapshot`.

Memory does not grow with run length: a recorder or series retains at most
:data:`SAMPLE_CAP` samples, the newest ones.  Up to the cap every statistic
is computed from the exact samples; past it, counts, means, totals, minima
and maxima stay exact, and latency percentiles come from half-decade
buckets that every sample was counted into.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.telemetry.tracing import TraceCollector

if TYPE_CHECKING:
    # Stats only read the clock, so any ClockLike substrate works —
    # the simulator for simulated runs, AsyncioScheduler for live ones.
    from repro.runtime.interfaces import ClockLike

__all__ = [
    "Counter",
    "Gauge",
    "GoodputMeter",
    "LatencyRecorder",
    "SAMPLE_CAP",
    "StatsRegistry",
    "TimeSeries",
]

#: Samples one :class:`LatencyRecorder` or :class:`TimeSeries` retains.
#: The largest per-instrument count that any figure benchmark, sweep golden
#: or tier-1 test records is 7,950 (Table II's flow 7->9), rounded up to a
#: power of two, so every committed artifact still reads exact samples.
SAMPLE_CAP = 1 << 13

#: Latency bucket upper bounds, 1 us .. 10^4 s in half-decades; one more
#: bucket above the last holds everything larger.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(10.0 ** (e / 2.0) for e in range(-12, 9))
_EDGES = (-math.inf, *BUCKET_BOUNDS, math.inf)


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment the counter by ``amount``."""
        self.value += amount


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


class TimeSeries:
    """(time, value) samples: the newest :data:`SAMPLE_CAP` are retained,
    while ``count`` and ``total`` cover every sample ever recorded."""

    __slots__ = ("name", "samples", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.samples: Deque[Tuple[float, float]] = deque(maxlen=SAMPLE_CAP)
        self.count = 0
        self.total = 0.0

    def record(self, time: float, value: float) -> None:
        """Append one (time, value) sample, evicting the oldest if full."""
        self.samples.append((time, value))
        self.count += 1
        self.total += value

    def values(self) -> List[float]:
        """The retained values, oldest first."""
        return [v for _, v in self.samples]


class GoodputMeter:
    """Bucketizes delivered payload bytes into fixed-width time intervals.

    ``series()`` returns (bucket_start_time, mbps) pairs — the exact shape
    plotted in Figures 4–6 and 9.

    Windows that are not aligned to the bucket grid are *prorated*: a
    boundary bucket contributes bytes in proportion to its overlap with
    the window, under the assumption that bytes are uniformly spread
    within a bucket.  (Sub-bucket arrival times are not retained — that
    is what keeps the meter's memory proportional to elapsed intervals,
    not to delivered messages.)
    """

    def __init__(self, sim: ClockLike, interval: float = 1.0, name: str = "goodput"):
        self._sim = sim
        self.interval = interval
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.total_bytes = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def record(self, size_bytes: int) -> None:
        """Record a delivery of ``size_bytes`` at the current simulated time."""
        now = self._sim.now
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        bucket = int(now / self.interval)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + size_bytes
        self.total_bytes += size_bytes

    def _overlap(self, bucket: int, start: float, end: float) -> float:
        """Seconds of [start, end) that fall inside ``bucket``."""
        lo = bucket * self.interval
        hi = lo + self.interval
        return max(0.0, min(end, hi) - max(start, lo))

    def series(self, start: float = 0.0, end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Mbps per interval between ``start`` and ``end`` (defaults to now).

        Each point is labelled with the start of the bucket's overlap
        with the window (equal to the bucket start for interior buckets).
        A partially overlapped boundary bucket reports its average rate —
        under the uniform-within-bucket assumption the rate over any
        sub-window of a bucket equals the bucket's average rate.
        """
        if end is None:
            end = self._sim.now
        if end <= start:
            return []
        first = int(start / self.interval)
        last = int(math.ceil(end / self.interval))
        out: List[Tuple[float, float]] = []
        for bucket in range(first, last):
            if self._overlap(bucket, start, end) <= 0.0:
                continue
            size = self._buckets.get(bucket, 0)
            mbps = (size * 8.0) / (self.interval * 1e6)
            out.append((max(start, bucket * self.interval), mbps))
        return out

    def average_mbps(self, start: float, end: float) -> float:
        """Average goodput in Mbps over the window [start, end).

        Boundary buckets that only partially overlap the window are
        prorated by their overlap fraction, so non-aligned windows no
        longer inherit whole boundary buckets' bytes (which skewed the
        reported Mbps by up to ``interval / (end - start)``).
        """
        if end <= start:
            return 0.0
        total = 0.0
        first = int(start / self.interval)
        last = int(math.ceil(end / self.interval))
        for bucket in range(first, last):
            size = self._buckets.get(bucket, 0)
            if not size:
                continue
            total += size * (self._overlap(bucket, start, end) / self.interval)
        return (total * 8.0) / ((end - start) * 1e6)


class LatencyRecorder:
    """Records per-delivery latencies and reports summary statistics.

    The newest :data:`SAMPLE_CAP` ``(delivery_time, latency)`` samples
    are retained.  ``count``, :meth:`mean` and :meth:`maximum` are exact
    over every sample.  :meth:`percentile` interpolates between the exact
    order statistics while no sample has been evicted; past the cap it
    interpolates inside the half-decade bucket that holds the rank,
    clamped to the exact minimum and maximum.

    The sorted view used below the cap is cached and invalidated on
    :meth:`record`, so benchmark loops that query percentiles per
    interval pay one sort per batch of records instead of one per query.
    """

    __slots__ = ("name", "samples", "count", "total", "_min", "_max", "_buckets", "_sorted")

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: Deque[Tuple[float, float]] = deque(maxlen=SAMPLE_CAP)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self._sorted: Optional[List[float]] = None

    def record(self, delivery_time: float, latency: float) -> None:
        """Record one delivery latency observed at ``delivery_time``."""
        self.samples.append((delivery_time, latency))
        self.count += 1
        self.total += latency
        if latency < self._min:
            self._min = latency
        if latency > self._max:
            self._max = latency
        self._buckets[bisect_left(BUCKET_BOUNDS, latency)] += 1
        self._sorted = None

    def mean(self) -> float:
        """Mean latency (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile latency (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100] (got {p})")
        if not self.count:
            return 0.0
        # Exact extremes: no interpolation arithmetic at the boundaries,
        # so p=0 / p=100 return the observed min/max bit-exactly.
        if p == 0.0:
            return self._min
        if p == 100.0:
            return self._max
        if self.count > SAMPLE_CAP:
            return self._bucket_percentile(p)
        if self._sorted is None:
            self._sorted = sorted(lat for _, lat in self.samples)
        ordered = self._sorted
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def _bucket_percentile(self, p: float) -> float:
        target = (p / 100.0) * self.count
        cumulative = 0
        for index, in_bucket in enumerate(self._buckets):
            if in_bucket and cumulative + in_bucket >= target:
                lower = max(_EDGES[index], self._min)
                upper = min(_EDGES[index + 1], self._max)
                return lower + (upper - lower) * (target - cumulative) / in_bucket
            cumulative += in_bucket
        return self._max  # pragma: no cover - unreachable with count > 0

    def maximum(self) -> float:
        """Largest recorded latency (0.0 when empty)."""
        return self._max if self.count else 0.0


#: Percentiles included in registry snapshots.
SNAPSHOT_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)


class StatsRegistry:
    """A run's telemetry namespace; every instrument is created on first use.

    One registry serves a whole simulation (or one live node process):
    the overlay counts deliveries and meters goodput and latency in it,
    the PKI counts crypto operations, links count per-message-type bytes
    and MAC operations, dissemination counts its fanout, and the chaos
    engine and adaptive defense count faults and actions — so one
    :meth:`snapshot` describes the entire run.
    """

    def __init__(self, sim: ClockLike):
        self._sim = sim
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._meters: Dict[str, GoodputMeter] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._tx_counters: Dict[str, Tuple[Counter, Counter]] = {}
        #: Structured event tracing; disabled (no-op) by default.
        self.trace = TraceCollector()

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def goodput(self, name: str) -> GoodputMeter:
        """The named goodput meter (1 s buckets), created on first use."""
        meter = self._meters.get(name)
        if meter is None:
            meter = self._meters[name] = GoodputMeter(self._sim, name=name)
        return meter

    def latency(self, name: str) -> LatencyRecorder:
        """The named latency recorder, created on first use."""
        recorder = self._latencies.get(name)
        if recorder is None:
            recorder = self._latencies[name] = LatencyRecorder(name)
        return recorder

    def series(self, name: str) -> TimeSeries:
        """The named time series, created on first use."""
        ts = self._series.get(name)
        if ts is None:
            ts = self._series[name] = TimeSeries(name)
        return ts

    def series_by_prefix(self, prefix: str) -> Dict[str, TimeSeries]:
        """All existing series whose name starts with ``prefix``, sorted
        by name; never creates (reporting over per-node series families
        like ``recovery-downtime:*``)."""
        return {
            name: ts
            for name, ts in sorted(self._series.items())
            if name.startswith(prefix)
        }

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counter values, sorted by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def tx_counters(self, kind: str) -> Tuple[Counter, Counter]:
        """The (messages, bytes) counter pair for one payload kind.

        Cached per kind so link hot paths pay two integer adds per
        transmission, not two dict lookups by formatted name.
        """
        pair = self._tx_counters.get(kind)
        if pair is None:
            pair = self._tx_counters[kind] = (
                self.counter(f"tx.{kind}.messages"),
                self.counter(f"tx.{kind}.bytes"),
            )
        return pair

    # ------------------------------------------------------------------
    def message_type_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-payload-kind transmission counts and bytes."""
        out: Dict[str, Dict[str, int]] = {}
        for name, value in self.counters().items():
            if not name.startswith("tx."):
                continue
            _, kind, field = name.split(".", 2)
            out.setdefault(kind, {})[field] = value
        return out

    def snapshot(self) -> Dict[str, dict]:
        """Deterministic summary of every instrument in this registry.

        Keys are sorted and no wall-clock state is included, so two
        same-seed runs produce identical, JSON-encodable snapshots.
        """
        now = self._sim.now
        return {
            "counters": self.counters(),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "goodput": {
                name: {
                    "total_bytes": meter.total_bytes,
                    "interval": meter.interval,
                    "first_time": meter.first_time,
                    "last_time": meter.last_time,
                    "average_mbps": meter.average_mbps(0.0, now) if now > 0 else 0.0,
                }
                for name, meter in sorted(self._meters.items())
            },
            "latency": {
                name: {
                    "count": rec.count,
                    "mean": rec.mean(),
                    "max": rec.maximum(),
                    **{f"p{p:g}": rec.percentile(p) for p in SNAPSHOT_PERCENTILES},
                }
                for name, rec in sorted(self._latencies.items())
            },
            "sim_series": {
                name: {"samples": ts.count} for name, ts in sorted(self._series.items())
            },
            "message_types": self.message_type_snapshot(),
        }
