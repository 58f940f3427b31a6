"""The round-robin fair link scheduler.

Both messaging semantics share the same scheduling core (Section V-C):
"each active source [or flow] is treated in a round-robin manner by
selecting the source at the front of the link's sending queue.  If that
source has no message to send, it is removed from the queue, ensuring
that only active sources are considered.  Newly active sources are added
to the end of the queue."

:class:`RoundRobinQueue` implements exactly that: a FIFO of keys with
O(1) membership, where a key is re-appended after service and silently
dropped when it has nothing to send.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Hashable, Optional, Set, TypeVar

T = TypeVar("T")


class RoundRobinQueue:
    """FIFO of active keys (sources or flows) with O(1) membership."""

    def __init__(self) -> None:
        self._queue: Deque[Hashable] = deque()
        self._members: Set[Hashable] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def activate(self, key: Hashable) -> None:
        """Add ``key`` to the end of the queue if not already present."""
        if key not in self._members:
            self._members.add(key)
            self._queue.append(key)

    def select(self, has_work: Callable[[Hashable], bool]) -> Optional[Hashable]:
        """Pick the next key to serve.

        Keys without work are removed (they re-activate when new work
        arrives); the served key is moved to the back of the queue.
        Returns None when no key has work.
        """
        while self._queue:
            key = self._queue[0]
            if has_work(key):
                self._queue.rotate(-1)
                return key
            self._queue.popleft()
            self._members.discard(key)
        return None

    def serve_alone(self, key: Hashable) -> None:
        """:meth:`activate` ``key``, then :meth:`select` when ``key`` is
        the only key with work: the keys ahead of it are removed and it
        moves to the back."""
        queue = self._queue
        if key not in self._members:
            # A newcomer joins at the end, so every other key is ahead.
            self.clear()
            self._members.add(key)
            queue.append(key)
            return
        while queue[0] != key:
            self._members.discard(queue.popleft())
        queue.rotate(-1)

    def clear(self) -> None:
        """Remove every key (what :meth:`select` does when none has work)."""
        self._queue.clear()
        self._members.clear()

    def keys(self) -> list:
        """Snapshot of the queued keys, front first."""
        return list(self._queue)
