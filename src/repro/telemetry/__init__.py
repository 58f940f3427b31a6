"""Unified telemetry: tracing, profiling, and run reports.

The paper's evaluation is entirely measured — goodput, latency, and
per-hop cost (Figures 4-9, Tables II-IV) — so the reproduction needs one
place where every layer reports what it did.  That place is the run's one
registry, :class:`repro.sim.stats.StatsRegistry`: counters, gauges,
goodput meters, bounded latency recorders and time series, and one
deterministic snapshot.  This package provides what sits around it:

* :mod:`repro.telemetry.tracing` — structured event tracing that costs
  one boolean check when disabled (near-zero overhead on hot paths); each
  registry carries one as ``trace``;
* :mod:`repro.telemetry.profiling` — per-event-type timing for
  :meth:`repro.sim.engine.Simulator.run` and per-message-type payload
  classification for byte accounting on links;
* :mod:`repro.telemetry.report` — the ``repro stats`` report builder
  that turns a run's registry into the JSON/CSV benchmarks persist as
  ``BENCH_*.json`` artifacts.
"""

from repro.telemetry.profiling import EventLoopProfiler, payload_kind
from repro.telemetry.report import build_report, flatten, to_csv
from repro.telemetry.tracing import TraceCollector

__all__ = [
    "EventLoopProfiler",
    "payload_kind",
    "build_report",
    "flatten",
    "to_csv",
    "TraceCollector",
]
