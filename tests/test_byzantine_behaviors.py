"""Unit tests for the composable Byzantine interception behaviours."""

import random

import pytest

from repro.byzantine.behaviors import (
    CorruptingBehavior,
    DelayingBehavior,
    DroppingBehavior,
    DuplicatingBehavior,
    HonestBehavior,
    ReorderingBehavior,
    SelectiveDropBehavior,
    StackedBehavior,
)
from repro.messaging.message import Message, Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import ring
from tests.fixtures import line

FAST = OverlayConfig(link_bandwidth_bps=None)


def pmsg(seq=1, source=1, dest=3):
    return Message(source=source, dest=dest, seq=seq,
                   semantics=Semantics.PRIORITY, expiration=100.0)


class TestHonest:
    def test_passes_everything_through(self):
        behavior = HonestBehavior()
        message = pmsg()
        assert behavior.filter_outgoing(message, 2, None) is message
        assert behavior.filter_incoming(message, 2, None) is message


class TestDropping:
    def test_drops_data_keeps_control(self):
        behavior = DroppingBehavior()
        assert behavior.filter_outgoing(pmsg(), 2, None) is None
        assert behavior.filter_outgoing("control", 2, None) == "control"
        assert behavior.dropped == 1

    def test_control_too(self):
        behavior = DroppingBehavior(control_too=True)
        assert behavior.filter_outgoing("control", 2, None) is None

    def test_gray_hole_fraction(self):
        behavior = DroppingBehavior(drop_fraction=0.5, rng=random.Random(1))
        outcomes = [behavior.filter_outgoing(pmsg(i), 2, None) for i in range(200)]
        dropped = sum(1 for o in outcomes if o is None)
        assert 60 < dropped < 140


class TestSelectiveDrop:
    def test_predicate_scoping(self):
        behavior = SelectiveDropBehavior(lambda m: m.flow == (1, 3))
        assert behavior.filter_outgoing(pmsg(source=1, dest=3), 2, None) is None
        other = pmsg(source=2, dest=3)
        assert behavior.filter_outgoing(other, 2, None) is other


class TestCorrupting:
    @pytest.mark.parametrize("field", ["priority", "dest", "size", "seq"])
    def test_mutations_break_signature(self, field):
        net = OverlayNetwork.build(ring(4), FAST)
        behavior = CorruptingBehavior(field)
        signed = net.node(1).send_priority(3)
        net.run(1.0)
        mutated = behavior.filter_outgoing(signed, 2, net.node(2))
        assert mutated is not None
        assert not mutated.verify(net.pki)
        assert behavior.corrupted == 1

    def test_control_untouched(self):
        behavior = CorruptingBehavior()
        assert behavior.filter_outgoing("ctl", 2, None) == "ctl"


class TestDelaying:
    def test_messages_held_then_released(self):
        net = OverlayNetwork.build(line(3), FAST)
        net.compromise(2, DelayingBehavior(delay=1.0))
        net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(0.5)
        assert net.delivered_count(1, 3) == 0
        net.run(2.0)
        assert net.delivered_count(1, 3) == 1
        latency = net.flow_latency(1, 3).mean()
        assert latency >= 1.0


class TestDuplicating:
    def test_counts_and_network_dedup(self):
        net = OverlayNetwork.build(line(3), FAST)
        behavior = DuplicatingBehavior(copies=3)
        net.compromise(2, behavior)
        net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert behavior.duplicated == 3
        assert net.delivered_count(1, 3) == 1  # dedup holds


class TestReordering:
    def test_batches_released_in_reverse(self):
        net = OverlayNetwork.build(line(3), FAST)
        net.compromise(2, ReorderingBehavior(batch=3))
        order = []
        net.node(3).on_deliver = lambda m: order.append(m.seq)
        for _ in range(3):
            net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert order == [3, 2, 1]  # reordered but all delivered

    def test_incomplete_batch_held(self):
        net = OverlayNetwork.build(line(3), FAST)
        net.compromise(2, ReorderingBehavior(batch=5))
        net.node(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0


class TestStacked:
    def test_composition_short_circuits_on_drop(self):
        dropper = DroppingBehavior()
        corrupter = CorruptingBehavior()
        stacked = StackedBehavior([dropper, corrupter])
        assert stacked.filter_outgoing(pmsg(), 2, None) is None
        assert corrupter.corrupted == 0  # never reached

    def test_composition_chains(self):
        net = OverlayNetwork.build(ring(4), FAST)
        stacked = StackedBehavior([CorruptingBehavior("priority")])
        signed = net.node(1).send_priority(3)
        out = stacked.filter_outgoing(signed, 2, net.node(2))
        assert out.priority == 10

    def test_incoming_chain(self):
        stacked = StackedBehavior([DroppingBehavior(control_too=True)])
        # DroppingBehavior only filters outgoing; incoming passes through.
        assert stacked.filter_incoming("x", 2, None) == "x"
