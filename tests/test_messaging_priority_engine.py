"""Unit tests for the Priority engine's forwarding logic."""

import math

import pytest

from repro.dissemination import flood_targets, path_successors, path_targets
from repro.messaging.message import Message, Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import clique, ring
from tests.fixtures import line

FAST = OverlayConfig(link_bandwidth_bps=None)


class TestDisseminationHelpers:
    def test_flood_targets_excludes_sender(self):
        assert flood_targets([1, 2, 3], from_neighbor=2) == [1, 3]

    def test_flood_targets_source_case(self):
        assert flood_targets([1, 2], from_neighbor=None) == [1, 2]

    def test_naive_includes_sender(self):
        assert flood_targets([1, 2, 3], from_neighbor=2, naive=True) == [1, 2, 3]

    def test_path_successors_at_source(self):
        successors, violations = path_successors(1, ((1, 2, 3), (1, 4, 3)), None)
        assert successors == [2, 4]
        assert violations == 0

    def test_path_successors_at_intermediate(self):
        successors, violations = path_successors(2, ((1, 2, 3), (1, 4, 3)), 1)
        assert successors == [3]
        assert violations == 0

    def test_path_successors_wrong_predecessor_is_violation(self):
        successors, violations = path_successors(2, ((1, 2, 3),), from_neighbor=3)
        assert successors == []
        assert violations == 1

    def test_path_successors_at_destination(self):
        successors, violations = path_successors(3, ((1, 2, 3),), 2)
        assert successors == []
        assert violations == 0

    def test_path_targets_arrival_agnostic(self):
        assert path_targets(2, ((1, 2, 3),)) == [3]
        assert path_targets(1, ((1, 2, 3), (1, 4, 3))) == [2, 4]


class TestEngineCounters:
    def test_duplicates_suppressed_counted(self):
        net = OverlayNetwork.build(clique(4), FAST)
        net.node(1).send_priority(3)
        net.run(1.0)
        total_dups = sum(
            node.priority.duplicates_suppressed for node in net.nodes.values()
        )
        # In a clique of 4 a flooded message reaches every node multiple
        # times; all extra copies are suppressed exactly once each.
        assert total_dups > 0

    def test_originated_and_delivered(self):
        net = OverlayNetwork.build(ring(4), FAST)
        for _ in range(3):
            net.node(1).send_priority(3)
        net.run(1.0)
        assert net.node(1).priority.messages_originated == 3
        assert net.node(3).priority.messages_delivered == 3

    def test_path_violation_counted_on_wrong_predecessor(self):
        """A K-paths message arriving from off-path is not forwarded."""
        net = OverlayNetwork.build(ring(4), FAST)
        message = Message.create(
            net.pki, source=1, dest=3, seq=1, semantics=Semantics.PRIORITY,
            priority=5, expiration=100.0, flooding=False,
            paths=((1, 2, 3),),
        )
        # Inject into node 2 as if it came from node 3: the path says the
        # predecessor must be node 1.  Source-based routing refuses it.
        engine = net.node(2).priority
        engine.handle(message, from_neighbor=3)
        net.run(1.0)
        assert engine.path_violations == 1
        assert net.delivered_count(1, 3) == 0

    def test_naive_flooding_forwards_back(self):
        config = OverlayConfig(link_bandwidth_bps=None, naive_flooding=True)
        net = OverlayNetwork.build(ring(4), config)
        net.node(1).send_priority(3)
        net.run(1.0)
        # Every directed edge carries the message once: 8 transmissions.
        assert net.stats.counter("data_transmissions").value == 8

    def test_constrained_flooding_cheaper_than_naive(self):
        results = {}
        for naive in (False, True):
            config = OverlayConfig(link_bandwidth_bps=None, naive_flooding=naive)
            net = OverlayNetwork.build(clique(5), config)
            net.node(1).send_priority(3)
            net.run(1.0)
            results[naive] = net.stats.counter("data_transmissions").value
        assert results[False] < results[True]


class TestDestinationBehaviour:
    def test_destination_does_not_forward_flooded_messages(self):
        net = OverlayNetwork.build(line(3), FAST)
        net.node(1).send_priority(2)  # dest in the middle
        net.run(1.0)
        # Node 2 delivers; it does not push the message on to node 3.
        assert net.delivered_count(1, 2) == 1
        assert net.node(3).priority.duplicates_suppressed == 0
        assert net.node(2).links[3].data_transmissions == 0

    def test_source_does_not_deliver_own_messages(self):
        net = OverlayNetwork.build(ring(4), FAST)
        net.node(1).send_priority(3)
        net.run(1.0)
        assert net.delivered_count(1, 1) == 0


class TestParkedFlooding:
    """Inside a receive wakeup (live substrate: OverlayNode.begin_wakeup /
    end_wakeup) a new flooded message is forwarded once, at the end, to
    the neighbours not heard sending a verified copy of it."""

    def flooded(self, net, method=None, expire_after=None):
        """A signed priority message from node 1 to node 5, not injected."""
        source = net.node(1)
        sent = []
        source.cpu.sign = lambda handler, message, neighbor: sent.append(message)
        source.send_priority(5, method=method, expire_after=expire_after)
        return sent[0]

    def transmissions(self, node):
        return {n: link.data_transmissions for n, link in node.links.items()}

    def test_copies_from_two_neighbours_forward_once_to_neither(self):
        net = OverlayNetwork.build(clique(5), FAST)
        message, node = self.flooded(net), net.node(2)
        node.begin_wakeup()
        node.on_link_deliver(1, message, 100)
        node.on_link_deliver(3, message, 100)
        assert self.transmissions(node) == {1: 0, 3: 0, 4: 0, 5: 0}  # parked
        node.end_wakeup()
        assert self.transmissions(node) == {1: 0, 3: 0, 4: 1, 5: 1}
        assert node.parked is None
        assert node.priority.duplicates_suppressed == 1

    def test_second_copy_from_the_same_neighbour_is_not_heard_from(self):
        """A replayer's two copies (its replay and its own forward) can
        land in one wakeup.  The second must not put the parked copy's
        own sender into ``has_it``: ``flood_targets`` already excludes
        it, and a forward skips only neighbours other than its sender."""
        net = OverlayNetwork.build(clique(5), FAST)
        message, node = self.flooded(net), net.node(2)
        node.begin_wakeup()
        node.priority.handle(message, 1)
        node.priority.handle(message, 1)
        [parked] = node.parked.values()
        assert parked.from_neighbor == 1 and parked.has_it is None
        node.end_wakeup()
        assert self.transmissions(node) == {1: 0, 3: 1, 4: 1, 5: 1}

    def test_bad_signature_copy_removes_nobody_from_the_targets(self):
        from dataclasses import replace

        net = OverlayNetwork.build(clique(5), FAST)
        message, node = self.flooded(net), net.node(2)
        # Same uid, but the signature no longer fits the contents.
        forged = replace(message, size_bytes=message.size_bytes + 1)
        assert forged.uid == message.uid and not forged.verify(net.pki)
        node.begin_wakeup()
        node.on_link_deliver(1, message, 100)
        node.on_link_deliver(3, forged, 100)
        node.end_wakeup()
        assert self.transmissions(node) == {1: 0, 3: 1, 4: 1, 5: 1}
        assert node.invalid_messages_rejected == 1

    def test_kpaths_naive_and_outside_a_wakeup_forward_at_once(self):
        net = OverlayNetwork.build(clique(5), FAST)
        node = net.node(2)
        node.on_link_deliver(1, self.flooded(net), 100)  # no wakeup open
        assert self.transmissions(node) == {1: 0, 3: 1, 4: 1, 5: 1}

        net = OverlayNetwork.build(clique(5), FAST)
        node = net.node(2)
        kpaths = Message.create(
            net.pki, source=1, dest=5, seq=1, semantics=Semantics.PRIORITY, priority=5,
            expiration=100.0, flooding=False, paths=((1, 2, 5),),
        )
        node.begin_wakeup()
        node.on_link_deliver(1, kpaths, 100)
        assert self.transmissions(node) == {1: 0, 3: 0, 4: 0, 5: 1}
        assert node.parked == {}
        node.end_wakeup()

        naive = OverlayConfig(link_bandwidth_bps=None, naive_flooding=True)
        net = OverlayNetwork.build(clique(5), naive)
        node = net.node(2)
        node.begin_wakeup()
        node.on_link_deliver(1, self.flooded(net), 100)
        assert self.transmissions(node) == {1: 1, 3: 1, 4: 1, 5: 1}
        node.end_wakeup()

    def test_crash_inside_a_wakeup_drops_parked_messages(self):
        net = OverlayNetwork.build(clique(5), FAST)
        message, node = self.flooded(net), net.node(2)
        node.begin_wakeup()
        node.on_link_deliver(1, message, 100)
        assert len(node.parked) == 1
        node.crash()
        assert node.parked == {}
        node.end_wakeup()
        assert node.parked is None
        assert self.transmissions(node) == {1: 0, 3: 0, 4: 0, 5: 0}

    def test_expired_parked_message_is_counted_not_sent(self):
        net = OverlayNetwork.build(clique(5), FAST)
        message, node = self.flooded(net, expire_after=0.5), net.node(2)
        node.begin_wakeup()
        node.on_link_deliver(1, message, 100)
        net.run(1.0)  # (a live wakeup is far shorter; the check is what matters)
        node.end_wakeup()
        assert self.transmissions(node) == {1: 0, 3: 0, 4: 0, 5: 0}
        assert [node.links[n].priority_queue.dropped_expired for n in (3, 4, 5)] == [1, 1, 1]


class TestNanExpiration:
    """A source-signed NaN expiration counts as expired wherever an
    expiration is compared, so the message is dropped at the first node,
    as an expired one is, instead of raising from the dedup store's
    ``floor``."""

    def test_a_nan_expiration_is_dropped_at_the_first_node(self):
        from repro.topology import global_cloud

        net = OverlayNetwork.build(global_cloud.topology(), FAST)
        source = net.node(1)
        sent = []
        source.cpu.sign = lambda handler, message, neighbor: sent.append(message)
        source.send_priority(5, expire_after=float("nan"))
        [message] = sent
        assert math.isnan(message.expiration) and message.verify(net.pki)
        neighbor = sorted(source.links)[0]
        node = net.node(neighbor)
        node.on_link_deliver(1, message, 100)
        net.run(1.0)
        assert all(link.data_transmissions == 0 for link in node.links.values())
        assert net.delivered_count(1, 5) == 0
        assert node.priority.messages_delivered == 0
        assert message.is_expired(net.sim.now)
        assert not node.links[1].priority_queue.offer(message, net.sim.now)
