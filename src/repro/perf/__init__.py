"""Hot-path microbenchmark harness (``python -m repro perfbench``).

:mod:`repro.perf.harness` provides the timing/reporting machinery;
:mod:`repro.perf.suites` registers the three benchmarks that time what the
end-to-end benchmark cannot see: K-paths computation, priority-queue
eviction, and REAL-mode batch MAC verification.
"""

from repro.perf.harness import (
    BenchResult,
    Benchmark,
    build_report,
    calibrate,
    compare_to_baseline,
    run_benchmark,
)
from repro.perf.suites import BENCHMARKS, run_suite

__all__ = [
    "BENCHMARKS",
    "BenchResult",
    "Benchmark",
    "build_report",
    "calibrate",
    "compare_to_baseline",
    "run_benchmark",
    "run_suite",
]
