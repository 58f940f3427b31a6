"""Profiling hooks: event-loop timing and payload classification.

:class:`EventLoopProfiler` plugs into :meth:`repro.sim.engine.Simulator.run`
(see ``Simulator.enable_profiling``) and accumulates per-callback-type
counts and wall-clock seconds, answering "where does a simulated second
go?" for perf work.  Accumulation is a plain dict of ``[count, seconds]``
cells — no allocation per event beyond the first sighting of a callback.

:func:`payload_kind` maps any overlay wire payload to a stable short name
used for per-message-type byte accounting on links (``tx.<kind>.messages``
/ ``tx.<kind>.bytes`` counters) — the measured counterpart of the paper's
dissemination-cost accounting.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List


def wall_clock() -> float:
    """A monotonic wall-clock read for explicit performance measurement.

    The determinism audit (tests/test_sim_determinism.py) confines
    wall-clock reads to the profiling and live-runtime modules; perf
    tooling (:mod:`repro.perf`) must therefore take its timestamps
    through this helper rather than importing :mod:`time` itself.
    Never call this from protocol or simulation code.
    """
    return time.perf_counter()


class EventLoopProfiler:
    """Per-event-type wall-clock accounting for the simulator loop."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        #: key -> [count, wall_seconds]
        self.samples: Dict[str, List[float]] = {}

    def record(self, key: str, seconds: float) -> None:
        """Accumulate one event's wall-clock ``seconds`` under ``key``."""
        cell = self.samples.get(key)
        if cell is None:
            self.samples[key] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-event-type summary, sorted by total wall time descending.

        Wall-clock durations are inherently non-deterministic; callers
        must keep this out of snapshots used for determinism checks.
        """
        ranked = sorted(self.samples.items(), key=lambda kv: (-kv[1][1], kv[0]))
        return {
            key: {"count": int(count), "seconds": seconds}
            for key, (count, seconds) in ranked
        }


#: Stable payload-kind names, keyed by payload class name.  Class names
#: are used instead of isinstance chains so the hot path is one dict hit.
_KIND_BY_CLASS = {
    "E2eAck": "e2e_ack",
    "NeighborAck": "neighbor_ack",
    "LinkStateUpdate": "link_state",
    "Mtmw": "mtmw",
    "StateRequest": "state_request",
    "Hello": "hello",
    "AdmissionNack": "admission_nack",
}


def payload_kind(payload: Any) -> str:
    """Short stable name for a wire payload's type.

    Data messages split by semantics (``priority`` / ``reliable``); every
    control payload maps to a fixed name; unknown types fall back to
    their lowercased class name so new payloads are still accounted.
    """
    class_name = type(payload).__name__
    if class_name == "Message":
        return payload.semantics.value
    kind = _KIND_BY_CLASS.get(class_name)
    if kind is None:
        return class_name.lower()
    return kind
