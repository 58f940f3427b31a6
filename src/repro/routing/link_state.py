"""Signed link-state routing updates.

Section V-A: "Overlay nodes monitor the links with their neighbors, raise
and lower link weights when problems arise and resolve respectively, and
disseminate signed routing updates.  A node is not allowed to change the
weights of non-neighboring links or decrease the weight of any link below
its minimal allowed weight.  If a node attempts such an action, it is
detected, that node is considered compromised, and that update is
ignored."

Updates carry a per-issuer monotonically increasing sequence number and
are applied on an overtaken-by-events basis (only the newest update from
each issuer about each link matters), and correct nodes rate-limit the
updates they accept from each issuer to bound the impact of spurious
updates from compromised nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple

from repro.caching import LruCache
from repro.crypto.encoding import nan_free
from repro.crypto.pki import Pki
from repro.topology.graph import NodeId

#: Wire size of a link-state update (endpoint ids, weight, seqno, sig).
UPDATE_WIRE_SIZE = 64

#: Bound on each node's computed-route cache (distinct (kind, source,
#: dest, k) queries per link-state version actually in play is tiny —
#: one per active flow — so this never evicts in practice).
ROUTE_CACHE_SIZE = 512

_MISS = object()


class RouteCache:
    """LRU over computed routes, invalidated by link-state sequencing.

    Every accepted link-state update advances the owning
    :class:`~repro.routing.state.RoutingState`'s ``version`` (its
    sequence-number-gated view of the topology).  Cache keys embed the
    version at computation time, so a route computed on a superseded view
    can never be returned: after an update the lookup key simply no
    longer matches, and the stale entry ages out of the LRU.

    Cached values are shared objects — callers must not mutate returned
    paths (the overlay treats routes as immutable; messages carry them
    inside signed tuples).
    """

    __slots__ = ("_cache",)

    def __init__(self, maxsize: int = ROUTE_CACHE_SIZE):
        self._cache: LruCache[Any] = LruCache(maxsize)

    @property
    def stats(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) — for tests and telemetry."""
        return (self._cache.hits, self._cache.misses, self._cache.evictions)

    def lookup(
        self, version: int, kind: str, source: NodeId, dest: NodeId, k: int
    ) -> Any:
        """Cached route for the query at ``version``, or the miss sentinel."""
        return self._cache.get((version, kind, source, dest, k), _MISS)

    def store(
        self, version: int, kind: str, source: NodeId, dest: NodeId, k: int, value: Any
    ) -> None:
        """Record ``value`` for this (version, kind, source, dest, k) query."""
        self._cache.put((version, kind, source, dest, k), value)

    @staticmethod
    def is_miss(value: Any) -> bool:
        """True when ``value`` is the sentinel returned by a cache miss."""
        return value is _MISS


@dataclass(frozen=True, slots=True)
class LinkStateUpdate:
    """A signed claim by ``issuer`` that its link (a, b) has ``weight``.

    ``seqno`` orders updates from the same issuer (overtaken-by-events);
    the signature covers every semantic field.
    """

    issuer: NodeId
    edge_a: NodeId
    edge_b: NodeId
    weight: float
    seqno: int
    signature: Any = None
    # Canonical-tuple cache; an update is re-verified at every node it
    # floods through.  Reset by ``dataclasses.replace`` (tampered copies
    # start cold); excluded from eq/hash/repr.
    _signed_fields_cache: Optional[Tuple[Any, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def signed_fields(self) -> Tuple[Any, ...]:
        """Canonical tuple of fields covered by the issuer signature."""
        cached = self._signed_fields_cache
        if cached is not None:
            return cached
        fields = (
            "link-state",
            str(self.issuer),
            str(self.edge_a),
            str(self.edge_b),
            nan_free(self.weight),
            self.seqno,
        )
        object.__setattr__(self, "_signed_fields_cache", fields)
        return fields

    @classmethod
    def create(
        cls,
        pki: Pki,
        issuer: NodeId,
        edge_a: NodeId,
        edge_b: NodeId,
        weight: float,
        seqno: int,
    ) -> "LinkStateUpdate":
        # One construction: the signature, which the signed tuple does not
        # cover, is filled in before anyone else holds the update.
        update = cls(issuer, edge_a, edge_b, weight, seqno)
        signature = pki.identity(issuer).sign(update.signed_fields())
        object.__setattr__(update, "signature", signature)
        return update

    def verify(self, pki: Pki) -> bool:
        """Check the issuer signature against the PKI."""
        return pki.verify(self.issuer, self.signed_fields(), self.signature)


class UpdateRateLimiter:
    """Token bucket limiting accepted routing updates per issuer.

    "We use rate-limiting and overtaken-by-event techniques to limit the
    impact of spurious routing updates from compromised nodes."
    """

    def __init__(self, rate_per_second: float, burst: int):
        self.rate = rate_per_second
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0
        #: Lifetime decision counts, surfaced by telemetry snapshots to
        #: show how hard each issuer pushes against its budget.
        self.allowed = 0
        self.denied = 0

    def allow(self, now: float) -> bool:
        """Consume a token at time ``now``; False when rate-limited."""
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.allowed += 1
            return True
        self.denied += 1
        return False
