"""Unit tests for the round-robin fair link scheduler."""

from repro.messaging.scheduler import RoundRobinQueue


class TestRoundRobin:
    def test_serves_in_activation_order(self):
        rr = RoundRobinQueue()
        for key in "abc":
            rr.activate(key)
        served = [rr.select(lambda k: True) for _ in range(6)]
        assert served == ["a", "b", "c", "a", "b", "c"]

    def test_activate_is_idempotent(self):
        rr = RoundRobinQueue()
        rr.activate("a")
        rr.activate("a")
        assert len(rr) == 1

    def test_workless_keys_removed(self):
        rr = RoundRobinQueue()
        rr.activate("idle")
        rr.activate("busy")
        assert rr.select(lambda k: k == "busy") == "busy"
        assert "idle" not in rr.keys()
        assert len(rr) == 1

    def test_empty_queue_returns_none(self):
        rr = RoundRobinQueue()
        assert rr.select(lambda k: True) is None

    def test_all_workless_returns_none_and_empties(self):
        rr = RoundRobinQueue()
        for key in "ab":
            rr.activate(key)
        assert rr.select(lambda k: False) is None
        assert len(rr) == 0

    def test_reactivation_appends_to_end(self):
        rr = RoundRobinQueue()
        rr.activate("a")
        rr.activate("b")
        rr.select(lambda k: True)  # serves a, moves it back
        rr.activate("c")
        served = [rr.select(lambda k: True) for _ in range(3)]
        assert served == ["b", "a", "c"]

    def test_fairness_under_unequal_demand(self):
        """A key with more work must not get more turns."""
        rr = RoundRobinQueue()
        work = {"greedy": 100, "modest": 5}
        for key in work:
            rr.activate(key)
        turns = {"greedy": 0, "modest": 0}
        while True:
            key = rr.select(lambda k: work[k] > 0)
            if key is None:
                break
            work[key] -= 1
            turns[key] += 1
            if work[key] > 0:
                rr.activate(key)
        assert turns["modest"] == 5
        # While modest was active, greedy got exactly alternating turns.
        assert turns["greedy"] == 100
