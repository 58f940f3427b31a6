"""Unit tests for the Priority Messaging per-link queue: eviction policy,
round-robin source fairness, priority order, expiration, cancellation."""

import pytest

from repro.errors import ConfigurationError
from repro.messaging.message import Message, Semantics
from repro.messaging.priority import PriorityLinkQueue


def msg(source, seq, priority=5, expiration=1e9, dest="d"):
    return Message(
        source=source,
        dest=dest,
        seq=seq,
        semantics=Semantics.PRIORITY,
        priority=priority,
        expiration=expiration,
    )


class TestOfferAndOrder:
    def test_single_source_priority_order(self):
        q = PriorityLinkQueue(capacity=10)
        q.offer(msg("a", 1, priority=2), now=0.0)
        q.offer(msg("a", 2, priority=9), now=0.0)
        q.offer(msg("a", 3, priority=5), now=0.0)
        out = [q.next_message(0.0).priority for _ in range(3)]
        assert out == [9, 5, 2]

    def test_oldest_first_within_priority(self):
        q = PriorityLinkQueue(capacity=10)
        q.offer(msg("a", 1, priority=5), now=0.0)
        q.offer(msg("a", 2, priority=5), now=0.0)
        assert q.next_message(0.0).seq == 1
        assert q.next_message(0.0).seq == 2

    def test_round_robin_across_sources(self):
        q = PriorityLinkQueue(capacity=10)
        for seq in range(1, 4):
            q.offer(msg("a", seq), now=0.0)
        q.offer(msg("b", 1), now=0.0)
        served = [q.next_message(0.0).source for _ in range(4)]
        assert served == ["a", "b", "a", "a"]

    def test_high_priority_of_one_source_does_not_preempt_another(self):
        """Priorities are never compared across sources."""
        q = PriorityLinkQueue(capacity=10)
        q.offer(msg("spammer", 1, priority=10), now=0.0)
        q.offer(msg("spammer", 2, priority=10), now=0.0)
        q.offer(msg("honest", 1, priority=1), now=0.0)
        served = [(m.source, m.priority) for m in (q.next_message(0.0) for _ in range(3))]
        assert served == [("spammer", 10), ("honest", 1), ("spammer", 10)]

    def test_empty_queue(self):
        q = PriorityLinkQueue(capacity=10)
        assert q.next_message(0.0) is None
        assert len(q) == 0

    def test_duplicate_offer_ignored(self):
        q = PriorityLinkQueue(capacity=10)
        m = msg("a", 1)
        assert q.offer(m, now=0.0)
        assert not q.offer(m, now=0.0)
        assert len(q) == 1


class TestEvictionPolicy:
    def test_heaviest_source_loses_oldest_lowest_priority(self):
        q = PriorityLinkQueue(capacity=4)
        q.offer(msg("heavy", 1, priority=3), now=0.0)
        q.offer(msg("heavy", 2, priority=1), now=0.0)  # oldest lowest
        q.offer(msg("heavy", 3, priority=1), now=0.0)
        q.offer(msg("light", 1, priority=1), now=0.0)
        # Queue full; a new message forces eviction from "heavy".
        assert q.offer(msg("light", 2, priority=9), now=0.0)
        assert q.dropped_for_space == 1
        assert q._buckets["heavy"].live == 2
        assert q._buckets["light"].live == 2
        remaining = [q.next_message(0.0) for _ in range(4)]
        assert ("heavy", 2) not in [(m.source, m.seq) for m in remaining]

    def test_new_message_dropped_when_own_source_heaviest_and_lowest(self):
        q = PriorityLinkQueue(capacity=3)
        q.offer(msg("heavy", 1, priority=9), now=0.0)
        q.offer(msg("heavy", 2, priority=9), now=0.0)
        q.offer(msg("heavy", 3, priority=9), now=0.0)
        # heavy is the heaviest source, and the new message is its oldest
        # lowest-priority message (priority 1): it evicts itself.
        assert not q.offer(msg("heavy", 4, priority=1), now=0.0)
        assert len(q) == 3

    def test_spammer_cannot_evict_honest_source(self):
        """A source flooding highest-priority messages only evicts itself."""
        q = PriorityLinkQueue(capacity=5)
        q.offer(msg("honest", 1, priority=1), now=0.0)
        for seq in range(1, 20):
            q.offer(msg("spammer", seq, priority=10), now=0.0)
        assert q._buckets["honest"].live == 1
        assert q._buckets["spammer"].live == 4

    def test_capacity_never_exceeded(self):
        q = PriorityLinkQueue(capacity=8)
        for seq in range(100):
            q.offer(msg(f"s{seq % 5}", seq), now=0.0)
        assert len(q) <= 8


class TestExpiration:
    def test_expired_message_rejected_at_offer(self):
        q = PriorityLinkQueue(capacity=5)
        assert not q.offer(msg("a", 1, expiration=1.0), now=2.0)
        assert q.dropped_expired == 1

    def test_expired_message_skipped_at_send(self):
        q = PriorityLinkQueue(capacity=5)
        q.offer(msg("a", 1, expiration=1.0), now=0.0)
        q.offer(msg("a", 2, expiration=10.0), now=0.0)
        out = q.next_message(5.0)
        assert out.seq == 2
        assert q.dropped_expired == 1
        assert len(q) == 0


class TestCancellation:
    def test_cancel_removes_from_queue(self):
        q = PriorityLinkQueue(capacity=5)
        m = msg("a", 1)
        q.offer(m, now=0.0)
        assert q.cancel(m.uid)
        assert len(q) == 0
        assert q.next_message(0.0) is None
        assert q.cancelled_by_feedback == 1

    def test_cancel_unknown_uid(self):
        q = PriorityLinkQueue(capacity=5)
        assert not q.cancel(("nope",))

    def test_cancel_then_other_messages_still_served(self):
        q = PriorityLinkQueue(capacity=5)
        m1, m2 = msg("a", 1), msg("a", 2)
        q.offer(m1, now=0.0)
        q.offer(m2, now=0.0)
        q.cancel(m1.uid)
        assert q.next_message(0.0).seq == 2

    def test_double_cancel_counts_once(self):
        q = PriorityLinkQueue(capacity=5)
        m = msg("a", 1)
        q.offer(m, now=0.0)
        assert q.cancel(m.uid)
        assert not q.cancel(m.uid)
        assert len(q) == 0


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorityLinkQueue(capacity=0)

    def test_active_sources(self):
        q = PriorityLinkQueue(capacity=5)
        q.offer(msg("a", 1), now=0.0)
        q.offer(msg("b", 1), now=0.0)
        q.next_message(0.0)
        assert [s for s, b in q._buckets.items() if b.live > 0] == ["b"]
