"""Structured event tracing with near-zero overhead when disabled.

The contract that keeps hot paths fast: while a collector is disabled,
:meth:`TraceCollector.event` returns after a single boolean check.
Protocol code can therefore leave trace calls in place permanently; they
only cost anything when a run explicitly enables tracing
(``repro stats --trace``).

Events carry *simulated* timestamps supplied by the caller and are
deterministic for a seeded run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class TraceCollector:
    """Bounded collector of simulated-time events."""

    def __init__(self, max_records: int = 100_000):
        self.enabled = False
        self.max_records = max_records
        #: Events as (sim_time, name, detail).
        self.events: List[Tuple[float, str, str]] = []
        self.dropped = 0

    def enable(self) -> None:
        """Start collecting events."""
        self.enabled = True

    def event(self, sim_time: float, name: str, detail: str = "") -> None:
        """Record one simulated-time event (no-op when disabled)."""
        if not self.enabled:
            return
        if len(self.events) >= self.max_records:
            self.dropped += 1
            return
        self.events.append((sim_time, name, detail))

    def event_summary(self) -> Dict[str, int]:
        """Per-name event counts (deterministic for a seeded run)."""
        out: Dict[str, int] = {}
        for _, name, _ in self.events:
            out[name] = out.get(name, 0) + 1
        return dict(sorted(out.items()))
