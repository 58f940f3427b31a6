"""Priority Messaging with Source Fairness (Section V-C1).

Per outgoing link, each node keeps a bounded storage queue organized per
source and per priority level:

* **Eviction** — "If the message storage queue for a given outgoing link
  is full, the oldest lowest-priority message from the source currently
  using the most storage on that link is dropped.  This may either make
  room for the new message or result in the new message being dropped."
* **Sending** — round-robin across active sources; once a source is
  selected, its *oldest highest-priority* message is sent.
* **Expiration** — messages past their expiration time are discarded
  wherever they are encountered.

Because resources are allocated per *source* (never comparing priorities
across sources), a compromised source flooding highest-priority traffic
can only consume its own fair share (Theorem "Priority Flooding
Guaranteed Throughput"; reproduced by Figures 5-7 benchmarks).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.dissemination import flood_targets, path_successors
from repro.errors import ConfigurationError
from repro.messaging.message import Message
from repro.messaging.metadata import MAX_MESSAGE_LIFETIME
from repro.messaging.scheduler import RoundRobinQueue
from repro.topology.graph import NodeId

MIN_PRIORITY = 1
MAX_PRIORITY = 10


class _Entry:
    """A queued message; cancellation is lazy (entries stay in their deque
    until popped)."""

    __slots__ = ("message", "cancelled")

    def __init__(self, message: Message):
        self.message = message
        self.cancelled = False


class _SourceBucket:
    """All messages a link queue holds for one source, by priority."""

    __slots__ = ("levels", "live")

    def __init__(self) -> None:
        self.levels: Dict[int, Deque[_Entry]] = {}
        self.live = 0

    def push(self, entry: _Entry) -> None:
        priority = entry.message.priority
        level = self.levels.get(priority)
        if level is None:
            level = self.levels[priority] = deque()
        level.append(entry)
        self.live += 1

    def pop_best(self, now: float, expired_sink: Callable[[Message], None]) -> Optional[Message]:
        """Oldest highest-priority live, unexpired message (and remove it)."""
        for priority in sorted(self.levels, reverse=True):
            level = self.levels[priority]
            while level:
                entry = level.popleft()
                if entry.cancelled:
                    continue
                if entry.message.is_expired(now):
                    self.live -= 1
                    expired_sink(entry.message)
                    continue
                self.live -= 1
                return entry.message
        return None

    def evict_worst(self, now: float, expired_sink: Callable[[Message], None]) -> Optional[Message]:
        """Oldest lowest-priority live message (and remove it)."""
        for priority in sorted(self.levels):
            level = self.levels[priority]
            while level:
                entry = level[0]
                if entry.cancelled:
                    level.popleft()
                    continue
                if entry.message.is_expired(now):
                    level.popleft()
                    self.live -= 1
                    expired_sink(entry.message)
                    continue
                level.popleft()
                self.live -= 1
                return entry.message
        return None


class PriorityLinkQueue:
    """The per-outgoing-link storage + fair scheduler for Priority Messaging."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"queue capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self._buckets: Dict[Hashable, _SourceBucket] = {}
        self._rr = RoundRobinQueue()
        self._index: Dict[Tuple, _Entry] = {}
        self._live_total = 0
        buckets = self._buckets

        def has_work(source: Hashable) -> bool:
            bucket = buckets.get(source)
            return bucket is not None and bucket.live > 0

        self._has_work = has_work  # built once, not per poll
        # Observability.
        self.dropped_for_space = 0
        self.dropped_expired = 0
        self.cancelled_by_feedback = 0

    def __len__(self) -> int:
        return self._live_total

    # ------------------------------------------------------------------
    def offer(self, message: Message, now: float) -> bool:
        """Try to store ``message``; apply the eviction policy when full.

        Returns True if the message is in the queue afterwards.
        """
        expiration = message.expiration  # inlined Message.is_expired
        if expiration is not None and not expiration >= now:
            self.dropped_expired += 1
            return False
        uid = message.uid
        existing = self._index.get(uid)
        if existing is not None and not existing.cancelled:
            return False  # already queued for this link
        entry = _Entry(message)
        source = message.source
        bucket = self._buckets.get(source)
        if bucket is None:
            bucket = _SourceBucket()
            self._buckets[source] = bucket
        bucket.push(entry)
        self._index[uid] = entry
        self._live_total += 1
        self._rr.activate(source)
        if self._live_total > self.capacity:
            victim = self._evict(now)
            if victim is not None and victim.uid == uid:
                return False
        return True

    def _evict(self, now: float) -> Optional[Message]:
        """Drop the oldest lowest-priority message of the heaviest source."""
        heaviest = None
        heaviest_live = -1
        for source, bucket in self._buckets.items():
            if bucket.live > heaviest_live or (
                bucket.live == heaviest_live and str(source) < str(heaviest)
            ):
                heaviest = source
                heaviest_live = bucket.live
        if heaviest is None:
            return None
        victim = self._buckets[heaviest].evict_worst(now, self._note_expired)
        if victim is not None:
            self._live_total -= 1
            self.dropped_for_space += 1
            self._index.pop(victim.uid, None)
        return victim

    def next_message(self, now: float) -> Optional[Message]:
        """Round-robin source selection; oldest highest-priority message."""
        while True:
            source = self._rr.select(self._has_work)
            if source is None:
                return None
            message = self._buckets[source].pop_best(now, self._note_expired)
            if message is not None:
                self._live_total -= 1
                self._index.pop(message.uid, None)
                return message

    def served_directly(self, source: Hashable, polled_again: bool) -> None:
        """Round-robin bookkeeping for a message of ``source`` that met
        an *empty* queue and was transmitted without being stored.

        :meth:`offer` + :meth:`next_message` would have activated the
        source, dropped the workless sources ahead of it and moved it to
        the back; a further :meth:`next_message` poll of the still-empty
        queue (``polled_again``) then drops every source.  Sources the
        first step leaves in place keep their turn -- ahead of ``source``
        -- when a backlog forms later, exactly as on the stored path.
        """
        if polled_again:
            self._rr.clear()
        else:
            self._rr.serve_alone(source)

    def cancel(self, uid: Tuple) -> bool:
        """Neighbor feedback: the peer already has this message; un-queue it."""
        entry = self._index.pop(uid, None)
        if entry is None or entry.cancelled:
            return False
        entry.cancelled = True
        bucket = self._buckets.get(entry.message.source)
        if bucket is not None:
            bucket.live -= 1
        self._live_total -= 1
        self.cancelled_by_feedback += 1
        return True

    def _note_expired(self, message: Message) -> None:
        self.dropped_expired += 1
        self._index.pop(message.uid, None)
        self._live_total -= 1
        # live counters are adjusted by the bucket helpers' callers; the
        # bucket already decremented its own counter before calling us.


class ParkedFlood:
    """A new flooded message whose forwarding waits for the end of the
    receive wakeup it arrived in (live substrate only; see
    :meth:`repro.overlay.node.OverlayNode.begin_wakeup`), and the
    neighbours heard sending a verified copy of it meanwhile."""

    __slots__ = ("message", "from_neighbor", "has_it")

    def __init__(self, message: Message, from_neighbor: Optional[NodeId]):
        self.message = message
        self.from_neighbor = from_neighbor
        #: Allocated with the first such neighbour: most wakeups see none.
        self.has_it: Optional[Set[NodeId]] = None

    def heard_from(self, neighbor: NodeId) -> None:
        """``neighbor`` sent a verified copy: it needs none from us."""
        if self.has_it is None:
            self.has_it = {neighbor}
        else:
            self.has_it.add(neighbor)


class PriorityEngine:
    """Node-level Priority Messaging logic: dedup, delivery, forwarding."""

    def __init__(self, node: "OverlayNode"):  # noqa: F821 - runtime duck type
        self._node = node
        self.messages_originated = 0
        self.messages_delivered = 0
        self.duplicates_suppressed = 0
        self.path_violations = 0

    # ------------------------------------------------------------------
    def note_duplicate(self, message: Message, from_neighbor: Optional[NodeId]) -> None:
        """Cheap-path handling of a copy already known from metadata:
        count it and apply constrained-flooding neighbor feedback."""
        node = self._node
        self.duplicates_suppressed += 1
        if (
            message.flooding
            and from_neighbor is not None
            and not node.config.naive_flooding
        ):
            link = node.links.get(from_neighbor)
            if link is not None:
                link.priority_queue.cancel(message.uid)

    def handle(self, message: Message, from_neighbor: Optional[NodeId]) -> None:
        """Process one verified priority message (local inject or receive)."""
        node = self._node
        now = node.sim.now
        expiration = message.expiration
        if expiration is None:
            expiration = now + MAX_MESSAGE_LIFETIME
        elif not expiration >= now:  # inlined Message.is_expired (NaN too)
            return
        is_new = node.metadata.check_and_record(message.uid, expiration, now)
        if not is_new:
            self.duplicates_suppressed += 1
            if (
                message.flooding
                and from_neighbor is not None
                and not node.config.naive_flooding
            ):
                # Constrained-flooding neighbor feedback: the neighbor we
                # just heard from provably has the message; cancel any
                # pending copy queued toward it.
                link = node.links.get(from_neighbor)
                if link is not None:
                    link.priority_queue.cancel(message.uid)
                if node.parked:
                    # Same feedback for a copy not queued yet.  Only a
                    # verified copy gets here, so a neighbor can take
                    # none but itself off the target list.  The parked
                    # copy's own sender is off it already (flood_targets).
                    parked = node.parked.get(message.uid)
                    if parked is not None and from_neighbor != parked.from_neighbor:
                        parked.heard_from(from_neighbor)
            return
        if message.dest == node.node_id:
            self.messages_delivered += 1
            node.deliver_local(message)
            # Constrained flooding stops at the destination (its copies
            # would be suppressed everywhere anyway); the naïve baseline
            # keeps forwarding so each message truly traverses every edge
            # in both directions (Table III's 2|E| cost).
            if message.flooding and node.config.naive_flooding:
                self._forward(message, from_neighbor, now)
            return
        if (
            node.parked is not None
            and message.flooding
            and not node.config.naive_flooding
        ):
            # Inside a receive wakeup the other copies of this message
            # are typically already in the socket buffer: decide once,
            # when the wakeup ends, knowing who sent them.  K-paths has
            # no neighbor feedback to wait for.
            node.parked[message.uid] = ParkedFlood(message, from_neighbor)
            return
        self._forward(message, from_neighbor, now)

    def forward_parked(self, parked: Iterable[ParkedFlood]) -> None:
        """Forward each parked message to the neighbors not heard sending
        it, in arrival order (an expired one is dropped, and counted, per
        link by the send path)."""
        now = self._node.sim.now
        for entry in parked:
            self._forward(entry.message, entry.from_neighbor, now, entry.has_it)

    def _forward(
        self,
        message: Message,
        from_neighbor: Optional[NodeId],
        now: Optional[float] = None,
        has_it: Optional[Set[NodeId]] = None,
    ) -> None:
        node = self._node
        if now is None:
            now = node.sim.now
        if message.flooding:
            targets = flood_targets(
                node.links,
                from_neighbor,
                naive=node.config.naive_flooding,
                metrics=node.stats,
            )
            if has_it:
                targets = [n for n in targets if n not in has_it]
        elif message.paths:
            targets, violations = path_successors(
                node.node_id,
                message.paths,
                from_neighbor,
                metrics=node.stats,
            )
            self.path_violations += violations
        else:
            return
        links = node.links
        for neighbor in targets:
            link = links.get(neighbor)
            if link is None or link.send_if_idle(message, now):
                continue
            queue = link.priority_queue
            had_backlog = queue._live_total != 0
            if queue.offer(message, now) and not had_backlog:
                # A backlogged link is already blocked on the PoR window
                # or pacing, and both come with a wake-up (on_ready / a
                # scheduled retry): pumping again would just re-probe a
                # closed window on every enqueue.
                link.pump()
