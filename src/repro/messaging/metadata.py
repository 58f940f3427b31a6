"""Duplicate-suppression metadata for Priority Messaging.

"Since Priority Messaging does not provide ordered delivery, we cannot
rely on a single sequence number for each source to detect duplicates and
defeat replay attacks.  Each node must store the metadata (i.e. source and
sequence number, but not the message content) of each unique received
message until that message expires.  To limit storage required for
metadata, we can enforce an upper bound on the lifetime of each message."

:class:`MetadataStore` keeps each seen message uid until its expiration
time and reclaims memory lazily through expiry-ordered buckets of uids.
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import floor, inf
from typing import Dict, Hashable, List, Optional

#: Upper bound on any message's lifetime, seconds: a uid's metadata is
#: kept at most this long, whatever expiration its source claims.
MAX_MESSAGE_LIFETIME = 120.0


class MetadataStore:
    """Uid → expiry map, garbage-collected through one-second buckets.

    Beside its entry in the map a uid costs one slot in the list of the
    bucket its expiry falls in — no per-entry heap node.  A bucket wholly
    in the past is dropped in one sweep; the bucket ``now`` falls in is
    sorted (once) and collected entry by entry, so after every
    :meth:`check_and_record` exactly the uids with ``expiry >= now``
    remain.
    """

    def __init__(self, max_lifetime: float = MAX_MESSAGE_LIFETIME):
        #: Upper bound applied to every recorded lifetime (bounds memory).
        self.max_lifetime = max_lifetime
        self._expiry: dict = {}
        #: ``floor(expiry)`` -> the uids recorded with such an expiry.
        self._buckets: Dict[int, List[Hashable]] = {}
        self._order: List[int] = []  # heap of the bucket keys
        #: The bucket kept sorted by descending expiry (the one a
        #: collection last stopped in); None before the first.
        self._sorted_bucket: Optional[int] = None
        #: No stored expiry is below this: collection can wait until
        #: ``now`` passes it.
        self._next_due = inf
        self.duplicates_detected = 0

    def __len__(self) -> int:
        return len(self._expiry)

    def check_and_record(self, uid: Hashable, expiration: float, now: float) -> bool:
        """Record ``uid``; returns True if new, False if a duplicate.

        ``expiration`` is the message's own expiration time; it is capped
        at ``now + max_lifetime`` so a malicious source cannot force
        unbounded metadata retention.
        """
        if self._next_due < now:
            self._collect(now)
        if uid in self._expiry:
            self.duplicates_detected += 1
            return False
        capped = min(expiration, now + self.max_lifetime)
        self._expiry[uid] = capped
        if capped < self._next_due:
            self._next_due = capped
        key = floor(capped)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [uid]
            heapq.heappush(self._order, key)
        elif key == self._sorted_bucket:
            insort(bucket, uid, key=self._descending)
        else:
            bucket.append(uid)
        return True

    def seen(self, uid: Hashable, now: float) -> bool:
        """Non-recording membership check."""
        expiry = self._expiry.get(uid)
        return expiry is not None and expiry >= now

    def _descending(self, uid: Hashable) -> float:
        return -self._expiry[uid]

    def _collect(self, now: float) -> None:
        expiry, buckets, order = self._expiry, self._buckets, self._order
        current = floor(now)
        while order and order[0] < current:
            for uid in buckets.pop(heapq.heappop(order)):
                del expiry[uid]
        if order and order[0] == current:
            # The bucket `now` falls in: its entries below `now` go one
            # by one, the rest stay.
            bucket = buckets[current]
            if self._sorted_bucket != current:
                bucket.sort(key=self._descending)
                self._sorted_bucket = current
            while bucket and expiry[bucket[-1]] < now:
                del expiry[bucket.pop()]
            if bucket:
                self._next_due = expiry[bucket[-1]]
                return
            del buckets[heapq.heappop(order)]
        self._next_due = order[0] if order else inf
