"""Constrained (and naïve) flooding target selection.

Constrained flooding forwards each *new* message to every neighbor except
the one it arrived from; duplicate-arrival feedback then cancels queued
copies toward neighbors that provably already have the message (the
Priority engine) or neighbor/E2E ACKs suppress sends (the Reliable
engine).  Naïve flooding — the baseline of Table IV and Figure 4(a) —
forwards to *every* neighbor, so each message traverses every edge in
both directions (cost 2·|E|)."""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.topology.graph import NodeId


def flood_targets(
    neighbors: Iterable[NodeId],
    from_neighbor: Optional[NodeId],
    naive: bool = False,
    metrics: Optional[Any] = None,
) -> List[NodeId]:
    """Neighbors a newly received (or injected) message is forwarded to.

    When ``metrics`` (a :class:`repro.sim.stats.StatsRegistry`)
    is supplied, ``dissemination.flood.calls`` and
    ``dissemination.flood.fanout`` record how often flooding ran and how
    many copies it produced — the numerator/denominator of the
    per-message dissemination cost reported in Table IV.
    """
    if naive:
        targets = list(neighbors)
    else:
        targets = [n for n in neighbors if n != from_neighbor]
    if metrics is not None:
        # Counters are stable registry objects; resolve them once per
        # registry and cache the pair (this runs per flooded message).
        counters = getattr(metrics, "_flood_counter_cache", None)
        if counters is None:
            counters = (
                metrics.counter("dissemination.flood.calls"),
                metrics.counter("dissemination.flood.fanout"),
            )
            metrics._flood_counter_cache = counters
        counters[0].add()
        counters[1].add(len(targets))
    return targets
