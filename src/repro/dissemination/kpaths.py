"""K node-disjoint path forwarding.

The K paths are selected by the source and covered by the message
signature (source-based routing): a compromised forwarder cannot redirect
a message onto different paths without invalidating it.  A forwarder
relays a message along a path only when the message actually arrived from
that path's predecessor; anything else is a path violation (replay or
misrouting) and is not forwarded.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.caching import LruCache
from repro.topology.graph import NodeId

Paths = Sequence[Tuple[NodeId, ...]]

#: Successor-scan memo.  Every message of a flow carries the *same* path
#: tuple (the route cache hands out shared objects), so the scan result
#: for a (node, paths, arrival) triple repeats for the flow's lifetime.
#: Entries are keyed by (node, id(paths), arrival) and store the paths
#: object itself — see path_successors for why identity keying is both
#: safe and much cheaper than hashing the nested tuple per decision.
#: The memo is a pure function of node position within signed immutable
#: paths, so it never needs invalidation, only bounding.
_SUCCESSOR_CACHE_SIZE = 4096
_successor_cache: LruCache[Tuple[Any, List[NodeId], int]] = LruCache(_SUCCESSOR_CACHE_SIZE)

_MISS = object()


def _kpaths_counters(metrics: Any):
    """The module's three counters, resolved once per registry.

    Counters are stable, never-removed objects inside a
    :class:`~repro.sim.stats.StatsRegistry`, so the resolved
    tuple is cached on the registry itself — this runs on every
    forwarding decision."""
    counters = getattr(metrics, "_kpaths_counter_cache", None)
    if counters is None:
        counters = (
            metrics.counter("dissemination.kpaths.calls"),
            metrics.counter("dissemination.kpaths.successors"),
            metrics.counter("dissemination.kpaths.violations"),
        )
        metrics._kpaths_counter_cache = counters
    return counters


def path_successors(
    node_id: NodeId,
    paths: Paths,
    from_neighbor: Optional[NodeId],
    metrics: Optional[Any] = None,
) -> Tuple[List[NodeId], int]:
    """Next hops for a message at ``node_id``.

    Returns ``(successors, violations)`` where ``violations`` counts path
    positions this node occupies that the message did not legitimately
    arrive through (from ``from_neighbor``; ``None`` means the node is the
    source).

    When ``metrics`` is supplied, ``dissemination.kpaths.calls``,
    ``.successors``, and ``.violations`` track forwarding decisions and
    detected replay/misrouting across the whole deployment.  Telemetry is
    counted per *call*, cache hit or not, so memoization never changes
    the recorded dissemination counters.
    """
    # Memo key: the *identity* of the shared paths tuple, not its value.
    # Hashing the nested tuple on every forwarding decision costs more
    # than the scan it memoizes; the route cache hands out shared tuple
    # objects, so identity hits whenever value would.  The cached entry
    # pins the paths object, which keeps its id stable and makes an id
    # collision with a different live tuple impossible; the identity
    # check on hit guards against a stale entry whose pin was evicted.
    # Mutable (non-tuple) paths skip the memo: their contents can change
    # under a pinned entry.
    cacheable = type(paths) is tuple
    cached = _MISS
    if cacheable:
        key = (node_id, id(paths), from_neighbor)
        cached = _successor_cache.get(key, _MISS)
    if cached is not _MISS and cached[0] is paths:
        successors, violations = cached[1], cached[2]
    else:
        successors = []
        violations = 0
        for path in paths:
            for i, hop in enumerate(path):
                if hop != node_id:
                    continue
                legitimate = (i == 0 and from_neighbor is None) or (
                    i > 0 and from_neighbor == path[i - 1]
                )
                if not legitimate:
                    violations += 1
                    continue
                if i + 1 < len(path):
                    successors.append(path[i + 1])
        if cacheable:
            _successor_cache.put(key, (paths, successors, violations))
    if metrics is not None:
        calls, succ, viol = _kpaths_counters(metrics)
        calls.add()
        succ.add(len(successors))
        if violations:
            viol.add(violations)
    return successors, violations


def path_targets(
    node_id: NodeId, paths: Paths, metrics: Optional[Any] = None
) -> List[NodeId]:
    """All next hops this node ever has on ``paths`` (arrival-agnostic).

    Used by Reliable Messaging, whose hop-by-hop cursors already bind a
    flow's messages to specific links; per-message arrival checks would
    reject legitimate retransmissions that cross between neighbors.
    """
    targets: List[NodeId] = []
    for path in paths:
        for i, hop in enumerate(path):
            if hop == node_id and i + 1 < len(path):
                targets.append(path[i + 1])
    if metrics is not None:
        metrics.counter("dissemination.kpaths.targets").add(len(targets))
    return targets
