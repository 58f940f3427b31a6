"""Microbenchmark harness for the overlay's hot paths.

Each benchmark is a :class:`Benchmark` subclass that prepares all of its
per-operation resources up front (``setup``), then runs one hot-path
operation per ``op(i)`` call.  The harness times every operation
individually with :func:`repro.telemetry.profiling.wall_clock` (the only
sanctioned wall-clock read outside the live runtime), so it can report
both throughput (ops/sec) and tail latency (p50/p99 microseconds) per
path.  Untimed housekeeping between operations goes in ``tick(i)``.

Cross-machine comparison: absolute ops/sec numbers are meaningless
between a laptop and a CI runner, so every report carries a
``calibration_ops_per_sec`` figure from a fixed pure-Python loop.  The
regression gate (:func:`compare_to_baseline`) scales the baseline's
numbers by the calibration ratio before comparing, which makes a ">25 %
regression" check meaningful even when the hardware changed.
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.profiling import wall_clock

#: Untimed operations executed before measurement starts (cache warmup,
#: allocator steady state).  Benchmarks must prepare ``WARMUP_OPS + ops``
#: per-operation resources.
WARMUP_OPS = 32

#: Iterations of the calibration loop (fixed: results are comparable only
#: across runs using the same constant).
CALIBRATION_ITERS = 200_000

#: Seconds of busy-spin before every timed section.  Frequency-scaling
#: governors clock an idle core down; without a sustained-load lead-in the
#: first benchmark of a run measures the ramp, not the steady state.
SPIN_UP_SECONDS = 0.25


def _spin_up() -> None:
    """Busy-spin until the CPU reaches steady-state frequency."""
    clock = wall_clock
    deadline = clock() + SPIN_UP_SECONDS
    acc = 0
    while clock() < deadline:
        for i in range(1_000):
            acc += i
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError


@dataclass
class BenchResult:
    """Outcome of one benchmark: throughput and per-op latency tail."""

    name: str
    ops: int
    wall_seconds: float
    ops_per_sec: float
    p50_us: float
    p99_us: float

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form suitable for JSON serialization."""
        return asdict(self)


class Benchmark:
    """One timed hot path.  Subclasses override ``setup`` and ``op``."""

    #: Stable registry key (also the JSON key in BENCH_perf.json).
    name = "benchmark"
    #: Timed operations in ``--quick`` and full mode.
    quick_ops = 500
    full_ops = 5_000

    def setup(self, seed: int, total_ops: int) -> None:
        """Prepare ``total_ops`` operations' worth of resources."""

    def op(self, i: int) -> None:
        """Run the i-th timed operation."""
        raise NotImplementedError

    def tick(self, i: int) -> None:
        """Untimed housekeeping after the i-th operation (optional)."""


#: Calibration rounds; the best round is reported.  Taking the max makes
#: the figure robust against transient interference (noisy-neighbor VMs,
#: scheduler preemption): it reflects what the machine can do, which is
#: the right scale factor for cross-machine comparison.
CALIBRATION_ROUNDS = 3


def calibrate() -> float:
    """Machine-speed reference: ops/sec of a fixed pure-Python loop."""
    _spin_up()
    clock = wall_clock
    best = 0.0
    for _ in range(CALIBRATION_ROUNDS):
        acc = 0
        start = clock()
        for i in range(CALIBRATION_ITERS):
            acc += i * i % 7
        elapsed = clock() - start
        if acc < 0:  # pragma: no cover - keeps the loop from being elided
            raise AssertionError
        best = max(best, CALIBRATION_ITERS / max(elapsed, 1e-9))
    return best


def run_benchmark(bench: Benchmark, ops: int, seed: int = 0) -> BenchResult:
    """Set up and run one benchmark for ``ops`` timed operations."""
    bench.setup(seed, WARMUP_OPS + ops)
    _spin_up()
    clock = wall_clock
    run_op = bench.op
    run_tick = bench.tick
    for i in range(WARMUP_OPS):
        run_op(i)
        run_tick(i)
    samples: List[float] = []
    record = samples.append
    # Collect garbage left by setup/earlier benchmarks, then keep the
    # collector out of the timed section: a gen-2 pass landing inside an
    # op would be charged to whichever benchmark happened to trigger it.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(WARMUP_OPS, WARMUP_OPS + ops):
            start = clock()
            run_op(i)
            record(clock() - start)
            run_tick(i)
    finally:
        if gc_was_enabled:
            gc.enable()
    total = sum(samples)
    samples.sort()
    p50 = samples[(ops - 1) // 2]
    p99 = samples[min(ops - 1, (ops * 99) // 100)]
    return BenchResult(
        name=bench.name,
        ops=ops,
        wall_seconds=total,
        ops_per_sec=ops / max(total, 1e-12),
        p50_us=p50 * 1e6,
        p99_us=p99 * 1e6,
    )


def build_report(
    results: List[BenchResult], mode: str, seed: int, calibration: float
) -> Dict[str, Any]:
    """Assemble the BENCH_perf.json payload from benchmark results."""
    return {
        "version": 1,
        "mode": mode,
        "seed": seed,
        "calibration_ops_per_sec": calibration,
        "benchmarks": {r.name: r.to_dict() for r in results},
    }


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.25,
) -> List[Tuple[str, float, bool]]:
    """Check ``report`` against a committed baseline.

    Returns ``(name, ratio, ok)`` per benchmark present in both, where
    ``ratio`` is current/baseline ops/sec after scaling the baseline by
    the machine-speed calibration ratio.  ``ok`` is False when the path
    regressed by more than ``max_regression``.
    """
    scale = 1.0
    base_cal = baseline.get("calibration_ops_per_sec")
    cur_cal = report.get("calibration_ops_per_sec")
    if base_cal and cur_cal:
        scale = cur_cal / base_cal
    rows: List[Tuple[str, float, bool]] = []
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        current: Optional[Dict[str, Any]] = report["benchmarks"].get(name)
        if current is None:
            rows.append((name, 0.0, False))
            continue
        expected = base["ops_per_sec"] * scale
        ratio = current["ops_per_sec"] / max(expected, 1e-12)
        rows.append((name, ratio, ratio >= 1.0 - max_regression))
    return rows
