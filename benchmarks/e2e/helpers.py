"""Pure helpers of the end-to-end benchmark: no sockets, no event loop.

Everything here is unit-tested in ``test_bench_helpers.py``: the machine-speed
burst and slice normalisation, pooled percentiles with the "ten samples
beyond" rule, span self time, the closed-loop slot table, and the worsening
measure the self-check uses.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: Every time-based metric is reported "at 10 M calib-ops/s": the figure a
#: machine running :func:`calib_burst` at exactly this speed would show.
CALIB_REFERENCE = 1e7

#: Iterations of one in-band speed burst (~0.4 ms here).  Short, so a burst
#: delays in-flight messages by less than the latency resolution that matters;
#: frequent (see ``generators.SpeedProbe``), so a slice's mean tracks a machine
#: whose speed flips between ~10 M and ~14 M ops/s several times a second.
BURST_ITERS = 5_000


def calib_burst(iters: int = BURST_ITERS) -> Tuple[float, float]:
    """One fixed pure-Python loop; returns ``(ops_per_s, seconds)``.

    The loop body is the one ``repro.perf.harness.calibrate`` times, so the
    figure is in the units ``BENCH_perf.json`` already records.
    """
    clock = time.perf_counter
    acc = 0
    start = clock()
    for i in range(iters):
        acc += i * i % 7
    elapsed = clock() - start
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return iters / max(elapsed, 1e-9), elapsed


def time_scale(calib_ops_per_s: float) -> float:
    """Factor that turns a measured duration into its 10 M-ops/s equivalent
    (a rate is divided by it instead)."""
    return calib_ops_per_s / CALIB_REFERENCE


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], p: float) -> float:
    """``p``-th percentile (0..100) of an ascending sequence, interpolated."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {p})")
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def tail_supported(samples: int, p: float, beyond: int = 10) -> bool:
    """Whether at least ``beyond`` of ``samples`` lie beyond percentile ``p``
    (the rule for the highest percentile a sample may report)."""
    return samples * (100.0 - p) >= 100.0 * beyond - 1e-6  # tolerance: 100 - 99.9 is inexact


def pooled_percentiles(
    per_slice: Iterable[Sequence[float]], ps: Sequence[float]
) -> Tuple[List[float], int]:
    """Percentiles over the union of every slice's samples, and the count."""
    pooled = sorted(value for samples in per_slice for value in samples)
    if not pooled:
        return [0.0 for _ in ps], 0
    return [percentile(pooled, p) for p in ps], len(pooled)


# ----------------------------------------------------------------------
# Slices
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One measured window.  ``wall_s``/``cpu_s`` already exclude the time
    the speed bursts themselves took."""

    wall_s: float
    cpu_s: float
    delivered: int
    calib_ops_per_s: float
    latencies_s: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return time_scale(self.calib_ops_per_s)

    @property
    def goodput(self) -> float:
        return self.delivered / self.wall_s

    @property
    def cpu_us_per_msg(self) -> float:
        return 1e6 * self.cpu_s / max(self.delivered, 1)


def summarise_slices(slices: Sequence[Slice], scale_latency: bool = True) -> Dict[str, float]:
    """Raw and normalised end-to-end figures of a run.

    Every figure is the median over slices of the slice's own value, scaled by
    the slice's own machine speed first: one slice hit by a neighbour's burst
    moves neither the throughput nor the latency tail.  Simulated latencies
    (``scale_latency=False``) are simulated time, which no machine speed moves.
    The ``*_pooled`` percentiles take every raw sample of the run together;
    ``latency_samples`` is their count, for the "ten samples beyond" rule.
    """
    if not slices:
        raise ValueError("no slices")
    wall = sum(s.wall_s for s in slices)
    cpu = sum(s.cpu_s for s in slices)
    delivered = sum(s.delivered for s in slices)
    (p50_pooled, p99_pooled), samples = pooled_percentiles(
        (s.latencies_s for s in slices), (50.0, 99.0)
    )
    median = statistics.median
    summary = {
        "wall_s": wall,
        "cpu_s": cpu,
        "delivered": delivered,
        "cpu_utilisation": cpu / wall,
        "calib_ops_per_s": statistics.fmean(s.calib_ops_per_s for s in slices),
        "goodput_raw": delivered / wall,
        "goodput": median(s.goodput / s.scale for s in slices),
        "cpu_us_per_msg_raw": 1e6 * cpu / max(delivered, 1),
        "cpu_us_per_msg": median(s.cpu_us_per_msg * s.scale for s in slices),
        "latency_samples": samples,
        "latency_p50_ms_pooled": 1e3 * p50_pooled,
        "latency_p99_ms_pooled": 1e3 * p99_pooled,
    }
    sampled = [(sorted(s.latencies_s), s.scale) for s in slices if s.latencies_s]
    for name, p in (("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)):
        per_slice = [(percentile(ordered, p), scale) for ordered, scale in sampled]
        summary[f"{name}_raw"] = 1e3 * median(v for v, _ in per_slice) if per_slice else 0.0
        summary[name] = (
            1e3 * median(v * (scale if scale_latency else 1.0) for v, scale in per_slice)
            if per_slice else 0.0
        )
    return summary


def value_at(points: Sequence[Tuple[float, float]], x: float) -> Tuple[float, bool]:
    """``y`` at ``x`` on the piecewise-linear curve through ``points`` (sorted
    by x), and whether ``x`` was reached; beyond the last point, its ``y``."""
    if not points:
        raise ValueError("no points")
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return (y0 if x1 == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)), True
    if x <= points[0][0]:
        return points[0][1], True
    return points[-1][1], False


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span_self_times(
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    layers: Sequence[int],
    count: int,
    layer_count: int,
) -> Tuple[List[int], List[int], int]:
    """Per-layer ``(calls, self_time)`` and the total time inside root spans.

    A span's self time is its duration minus the durations of its direct
    children (``parents[i]`` is the index of the enclosing span, -1 for a
    root), so the self times of a root span's subtree sum to its duration.
    """
    child_time = [0] * count
    root_time = 0
    for i in range(count):
        duration = ends[i] - starts[i]
        parent = parents[i]
        if parent >= 0:
            child_time[parent] += duration
        else:
            root_time += duration
    calls = [0] * layer_count
    self_time = [0] * layer_count
    for i in range(count):
        layer = layers[i]
        calls[layer] += 1
        self_time[layer] += ends[i] - starts[i] - child_time[i]
    return calls, self_time, root_time


# ----------------------------------------------------------------------
# Closed-loop slots
# ----------------------------------------------------------------------
class SlotTable:
    """In-flight operations of a closed loop, oldest first.

    ``issue`` opens a slot, ``complete`` closes it and returns what was
    stored, ``expire`` closes every slot older than the timeout — the caller
    counts those as failed and issues replacements, so a lost message cannot
    silently shrink the window.
    """

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self._open: Dict[Hashable, Tuple[float, object]] = {}
        #: Keys closed by timeout; a late delivery of one is not a duplicate.
        self.expired_keys: set = set()

    def __len__(self) -> int:
        return len(self._open)

    def issue(self, key: Hashable, now: float, value: object = None) -> None:
        if key in self._open:
            raise KeyError(f"slot {key!r} is already open")
        self._open[key] = (now, value)

    def complete(self, key: Hashable) -> Optional[Tuple[float, object]]:
        """``(issued_at, value)`` of the slot, or None if no such slot is open."""
        return self._open.pop(key, None)

    def expire(self, now: float) -> List[Tuple[Hashable, object]]:
        """Close and return ``(key, value)`` of slots older than the timeout."""
        cutoff = now - self.timeout_s
        stale = []
        for key, (issued_at, value) in self._open.items():
            # Insertion order is issue order, and time only moves forward.
            if issued_at > cutoff:
                break
            stale.append((key, value))
        for key, _ in stale:
            del self._open[key]
            self.expired_keys.add(key)
        return stale


# ----------------------------------------------------------------------
# Comparing runs
# ----------------------------------------------------------------------
def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher' (got {better!r})")
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
