"""A small bounded LRU cache shared by the hot-path memoizations.

Used by the route/disjoint-path cache (:mod:`repro.routing.link_state`),
the path-successor cache (:mod:`repro.dissemination.kpaths`), and the
REAL-mode link-MAC memo (:mod:`repro.link.por`).  SIMULATED signatures
are not memoised: recomputing a tag is one builtin hash, cheaper than a
look-up here (DESIGN.md §10).  It lives in its own dependency-free module
so every layer can import it without cycles (routing imports crypto,
which could not itself import from routing).

Determinism note: the cache is a plain dict in insertion order; hits and
evictions depend only on the sequence of ``get``/``put`` calls, never on
wall-clock time or object ids, so cached code paths stay byte-identical
across seeded runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")

_MISSING = object()


class LruCache(Generic[V]):
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    the oldest entry once ``maxsize`` is exceeded.  ``hits`` / ``misses``
    / ``evictions`` counters are exposed for tests and telemetry.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: int):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive (got {maxsize})")
        self.maxsize = maxsize
        # OrderedDict rather than a plain dict: eviction needs the oldest
        # entry in O(1).  A plain dict's ``next(iter(data))`` degrades
        # linearly with deleted-slot debris once the cache churns at
        # capacity (measured at several microseconds per eviction on a
        # saturated memo); ``popitem(last=False)`` does not.
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value (refreshing recency) or ``default``."""
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        data.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: Hashable, value: V) -> None:
        """Insert ``key`` as the most recent entry, evicting if full."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()
