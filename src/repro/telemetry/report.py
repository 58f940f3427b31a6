"""Run reports: one JSON/CSV-serializable document per simulated run.

``repro stats`` and the benchmark harness both need the same thing: a
single deterministic document that captures everything a run measured —
registry counters, per-message-type byte accounting, crypto-op counts,
per-flow goodput and latency percentiles, dissemination cost.  This
module builds that document from a live
:class:`~repro.workloads.experiment.Deployment`.

Determinism contract: with default options the report contains only
simulated-time data, so two same-seed runs produce byte-identical JSON.
Wall-clock data (the event-loop profile, span summaries) only appears
when explicitly requested and is clearly namespaced under ``"profile"``
so determinism checks can exclude it.
"""

from __future__ import annotations

import io
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Report schema version; bump when the document layout changes.
REPORT_VERSION = 1

#: Latency percentiles reported per flow (mirrors
#: :data:`repro.sim.stats.SNAPSHOT_PERCENTILES`; duplicated here because
#: ``repro.sim.stats`` imports this package — importing it back at module
#: scope would be circular).
FLOW_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)


def build_report(
    deployment: Any,
    flows: Sequence[Tuple[Any, Any]],
    window: Optional[Tuple[float, float]] = None,
    params: Optional[Dict[str, Any]] = None,
    include_profile: bool = False,
    include_trace: bool = False,
) -> Dict[str, Any]:
    """Build the run report for ``deployment``.

    ``flows`` are the (source, dest) pairs to summarize individually;
    ``window`` is the measurement window for per-flow goodput (defaults
    to the full run).  ``params`` records the run's inputs (seed, rate,
    semantics ...) verbatim so a report is self-describing.

    ``include_profile`` adds the event-loop profile and span summary —
    wall-clock data, *not* deterministic.  ``include_trace`` adds the
    sim-time event summary, which is deterministic but only non-empty
    when tracing was enabled for the run.
    """
    network = deployment.network
    sim = network.sim
    if window is None:
        window = (0.0, sim.now)
    report: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "params": dict(params or {}),
        "sim": {
            "now": sim.now,
            "events_run": sim.events_run,
            "window": list(window),
        },
        "stats": network.stats.snapshot(),
        "flows": [
            _flow_entry(deployment, source, dest, window)
            for source, dest in flows
        ],
        "dissemination_cost": deployment.dissemination_cost(),
        "downtime": _downtime_section(network.stats),
    }
    defense = getattr(deployment, "defense", None)
    if defense is not None:
        report["defense"] = defense.summary()
    if include_trace:
        trace = network.stats.trace
        report["trace"] = {
            "enabled": trace.enabled,
            "events": trace.event_summary(),
            "dropped": trace.dropped,
        }
    if include_profile:
        profiler = sim.profiler
        report["profile"] = {
            "event_loop": profiler.snapshot() if profiler is not None else {},
            "spans": network.stats.trace.span_summary(),
        }
    return report


def _flow_entry(
    deployment: Any, source: Any, dest: Any, window: Tuple[float, float]
) -> Dict[str, Any]:
    result = deployment.flow_result(source, dest, window)
    recorder = deployment.network.flow_latency(source, dest)
    return {
        "source": source,
        "dest": dest,
        "goodput_mbps": result.goodput_mbps,
        "goodput_fraction_of_capacity": result.goodput_fraction_of_capacity,
        "delivered": result.delivered,
        "latency": {
            "mean": recorder.mean(),
            "max": recorder.maximum(),
            **{
                f"p{p:g}": recorder.percentile(p)
                for p in FLOW_PERCENTILES
            },
        },
    }


def _downtime_section(stats: Any) -> Dict[str, Any]:
    """Per-node recovery downtime and quarantine dwell totals, from the
    ``recovery-downtime:*`` / ``quarantine-dwell:*`` series the recovery
    engines and link monitors record: their exact recorded counts and
    running totals, not the retained sample windows."""

    def family(prefix: str) -> Dict[str, Dict[str, float]]:
        return {
            name.split(":", 1)[1]: {
                "events": ts.count,
                "total_seconds": ts.total,
            }
            for name, ts in stats.series_by_prefix(prefix).items()
        }

    recovery = family("recovery-downtime:")
    dwell = family("quarantine-dwell:")
    return {
        "recovery_downtime": recovery,
        "recovery_downtime_total_seconds": sum(
            entry["total_seconds"] for entry in recovery.values()
        ),
        "quarantine_dwell": dwell,
        "quarantine_dwell_total_seconds": sum(
            entry["total_seconds"] for entry in dwell.values()
        ),
    }


# ----------------------------------------------------------------------
# CSV rendering
# ----------------------------------------------------------------------
def flatten(payload: Any, prefix: str = "") -> List[Tuple[str, Any]]:
    """Flatten a nested report into sorted (dotted-key, scalar) pairs.

    Dicts nest by key, lists by index; scalars (and None) terminate.
    The result order is the recursive sorted-key order, so it is as
    deterministic as the input document.
    """
    if isinstance(payload, dict):
        out: List[Tuple[str, Any]] = []
        for key in sorted(payload, key=str):
            child = f"{prefix}.{key}" if prefix else str(key)
            out.extend(flatten(payload[key], child))
        return out
    if isinstance(payload, (list, tuple)):
        out = []
        for index, item in enumerate(payload):
            child = f"{prefix}.{index}" if prefix else str(index)
            out.extend(flatten(item, child))
        return out
    return [(prefix, payload)]


def to_csv(payload: Dict[str, Any]) -> str:
    """Render a report as two-column CSV (``key,value`` per line)."""
    buffer = io.StringIO()
    buffer.write("key,value\n")
    for key, value in flatten(payload):
        rendered = "" if value is None else str(value)
        if any(c in rendered for c in ',"\n'):
            rendered = '"' + rendered.replace('"', '""') + '"'
        buffer.write(f"{key},{rendered}\n")
    return buffer.getvalue()
