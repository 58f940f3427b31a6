"""A node's routing view: validated weights, shortest paths, K-paths.

Each node holds the MTMW plus the newest validated weight report from
each link endpoint.  The *effective* weight of a link is the maximum of
the two endpoints' reports (never below the MTMW minimum): either correct
endpoint can mark its link degraded or failed, and a compromised endpoint
cannot talk a link back down while its honest peer disagrees.

Links whose effective weight reaches :data:`FAILED_WEIGHT` are treated as
down and excluded from the routing graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.crypto.pki import Pki
from repro.errors import TopologyError
from repro.routing.link_state import LinkStateUpdate, RouteCache, UpdateRateLimiter
from repro.routing.validation import UpdateResult, validate_update
from repro.topology.disjoint import best_effort_disjoint_paths, k_node_disjoint_paths
from repro.topology.graph import NodeId, Topology, edge_key
from repro.topology.mtmw import Mtmw

#: Weight at (or above) which a link is considered failed / unusable.
FAILED_WEIGHT = 1e6

#: Per-issuer token bucket on accepted link-state updates: sustained
#: updates per second and burst depth.
ROUTING_UPDATE_RATE = 10.0
ROUTING_UPDATE_BURST = 20


class RoutingState:
    """Validated link-state database + route computation for one node."""

    def __init__(
        self,
        mtmw: Mtmw,
        pki: Pki,
        update_rate_per_second: float = ROUTING_UPDATE_RATE,
        update_burst: int = ROUTING_UPDATE_BURST,
    ):
        self.mtmw = mtmw
        self.pki = pki
        # Per-endpoint weight reports: edge -> {endpoint: weight}.
        self._reports: Dict[FrozenSet[NodeId], Dict[NodeId, float]] = {}
        # Overtaken-by-events: newest seqno seen per (issuer, edge).
        self._seqnos: Dict[Tuple[NodeId, FrozenSet[NodeId]], int] = {}
        self._limiters: Dict[NodeId, UpdateRateLimiter] = {}
        self._rate = update_rate_per_second
        self._burst = update_burst
        self.detected_compromised: Set[NodeId] = set()
        self._graph_cache: Optional[Topology] = None
        #: Monotonic link-state view version: advanced exactly when an
        #: accepted (sequence-number-gated) update changes the view.  Route
        #: cache keys embed it, so every seqno bump invalidates them.
        self.version = 0
        self._route_cache = RouteCache()
        self.results: Dict[UpdateResult, int] = {r: 0 for r in UpdateResult}

    # ------------------------------------------------------------------
    # Applying updates
    # ------------------------------------------------------------------
    def apply_update(self, update: LinkStateUpdate, now: float = 0.0) -> UpdateResult:
        """Validate and apply one routing update; returns the outcome."""
        limiter = self._limiters.get(update.issuer)
        if limiter is None:
            limiter = UpdateRateLimiter(self._rate, self._burst)
            self._limiters[update.issuer] = limiter
        if not limiter.allow(now):
            self.results[UpdateResult.RATE_LIMITED] += 1
            return UpdateResult.RATE_LIMITED

        result = validate_update(update, self.mtmw, self.pki)
        if result is not UpdateResult.ACCEPTED:
            if result.proves_compromise:
                self.detected_compromised.add(update.issuer)
            self.results[result] += 1
            return result

        key = edge_key(update.edge_a, update.edge_b)
        seq_key = (update.issuer, key)
        last = self._seqnos.get(seq_key, -1)
        if update.seqno <= last:
            self.results[UpdateResult.STALE] += 1
            return UpdateResult.STALE
        self._seqnos[seq_key] = update.seqno
        self._reports.setdefault(key, {})[update.issuer] = update.weight
        self._graph_cache = None
        self.version += 1
        self.results[UpdateResult.ACCEPTED] += 1
        return UpdateResult.ACCEPTED

    # ------------------------------------------------------------------
    # Effective weights and the routing graph
    # ------------------------------------------------------------------
    def effective_weight(self, a: NodeId, b: NodeId) -> float:
        """Max of endpoint reports, floored at the MTMW minimum."""
        minimum = self.mtmw.min_weight(a, b)
        reports = self._reports.get(edge_key(a, b))
        if not reports:
            return minimum
        return max(minimum, max(reports.values()))

    def is_link_usable(self, a: NodeId, b: NodeId) -> bool:
        """Whether the link's effective weight is below the failure level."""
        return self.effective_weight(a, b) < FAILED_WEIGHT

    def graph(self) -> Topology:
        """The current routing graph (failed links excluded).  Cached."""
        if self._graph_cache is None:
            graph = Topology()
            for node in self.mtmw.members:
                graph.add_node(node)
            for a, b in self.mtmw.topology.edges():
                weight = self.effective_weight(a, b)
                if weight < FAILED_WEIGHT:
                    graph.add_edge(a, b, weight)
            self._graph_cache = graph
        return self._graph_cache

    # ------------------------------------------------------------------
    # Route computation
    # ------------------------------------------------------------------
    # Every computed route is cached in an LRU keyed by (view version,
    # query); accepted link-state updates advance the version, so cached
    # routes always equal a fresh recomputation on the current view.
    # Returned paths are shared objects and must not be mutated.
    def shortest_path(self, source: NodeId, dest: NodeId) -> Optional[List[NodeId]]:
        """Minimum-weight path on the current view, or None if disconnected."""
        cache = self._route_cache
        cached = cache.lookup(self.version, "sp", source, dest, 1)
        if not RouteCache.is_miss(cached):
            return cached
        path = self.graph().shortest_path(source, dest)
        cache.store(self.version, "sp", source, dest, 1, path)
        return path

    def k_paths(self, source: NodeId, dest: NodeId, k: int) -> List[List[NodeId]]:
        """K minimum-weight node-disjoint paths on the current view."""
        cache = self._route_cache
        cached = cache.lookup(self.version, "kp", source, dest, k)
        if not RouteCache.is_miss(cached):
            return cached
        paths = k_node_disjoint_paths(self.graph(), source, dest, k)
        cache.store(self.version, "kp", source, dest, k, paths)
        return paths

    def k_paths_best_effort(self, source: NodeId, dest: NodeId, k: int) -> List[List[NodeId]]:
        """Up to K node-disjoint paths, as many as currently exist."""
        cache = self._route_cache
        cached = cache.lookup(self.version, "be", source, dest, k)
        if not RouteCache.is_miss(cached):
            return cached
        paths = best_effort_disjoint_paths(self.graph(), source, dest, k)
        cache.store(self.version, "be", source, dest, k, paths)
        return paths

    def k_paths_tuple(
        self, source: NodeId, dest: NodeId, k: int
    ) -> Tuple[Tuple[NodeId, ...], ...]:
        """Best-effort K paths as a cached tuple-of-tuples.

        Messages carry their paths as immutable tuples; sharing one tuple
        object per (version, flow, k) keeps every message of a flow
        carrying the identical object, which in turn makes downstream
        per-path memoization (``dissemination.kpaths``) hit on the cheap
        equality of an already-seen key.
        """
        cache = self._route_cache
        cached = cache.lookup(self.version, "tup", source, dest, k)
        if not RouteCache.is_miss(cached):
            return cached
        paths = tuple(tuple(p) for p in self.k_paths_best_effort(source, dest, k))
        cache.store(self.version, "tup", source, dest, k, paths)
        return paths

    @property
    def route_cache_stats(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) of the route cache."""
        return self._route_cache.stats

    # ------------------------------------------------------------------
    # Local link monitoring support
    # ------------------------------------------------------------------
    def make_update(
        self, issuer: NodeId, neighbor: NodeId, weight: float, seqno: int
    ) -> LinkStateUpdate:
        """Create a signed update about the issuer's own link.

        Correct nodes clamp the weight at the MTMW minimum rather than
        ever issuing a provably invalid update.
        """
        if not self.mtmw.is_edge(issuer, neighbor):
            raise TopologyError(f"{issuer!r} and {neighbor!r} are not MTMW neighbors")
        floor = self.mtmw.min_weight(issuer, neighbor)
        return LinkStateUpdate.create(
            self.pki, issuer, issuer, neighbor, max(weight, floor), seqno
        )
