"""Unit tests for Reliable Messaging internals (engine-level, small nets)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging.message import E2eAck, Message, NeighborAck, Semantics
from repro.messaging import reliable
from repro.messaging.reliable import FlowState, ReliableLinkState, _Cursor
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import ring
from tests.fixtures import line


def rmsg(seq, source=1, dest=3, size=500, pki=None):
    """A reliable message, signed by ``source`` when ``pki`` is given."""
    fields = dict(
        source=source, dest=dest, seq=seq,
        semantics=Semantics.RELIABLE, size_bytes=size,
    )
    return Message.create(pki, **fields) if pki is not None else Message(**fields)


class TestFlowState:
    def test_apply_e2e_frees_prefix(self):
        state = FlowState()
        for seq in (1, 2, 3, 4):
            state.stored[seq] = rmsg(seq)
            state.stored_at[seq] = 0.0
            state.stored_h = seq
        assert state.apply_e2e(2)
        assert sorted(state.stored) == [3, 4]
        assert state.acked == 2
        assert state.buffer_used() == 2

    def test_apply_e2e_idempotent_and_monotone(self):
        state = FlowState()
        state.stored_h = 5
        assert state.apply_e2e(3)
        assert not state.apply_e2e(3)
        assert not state.apply_e2e(1)
        assert state.acked == 3

    def test_skip_forward_past_stored_h(self):
        """An E2E ack beyond what we stored means the network already
        delivered those messages: skip forward and drop everything."""
        state = FlowState()
        state.stored[1] = rmsg(1)
        state.stored_at[1] = 0.0
        state.stored_h = 1
        assert state.apply_e2e(10)
        assert state.stored == {}
        assert state.stored_h == state.acked == 10

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30))
    def test_property_invariant_stored_range(self, acks):
        state = FlowState()
        for seq in range(1, 41):
            state.stored[seq] = rmsg(seq)
            state.stored_at[seq] = 0.0
            state.stored_h = seq
        for ack in acks:
            state.apply_e2e(ack)
            assert state.acked <= state.stored_h
            assert all(state.acked < s <= state.stored_h for s in state.stored)


class TestLinkState:
    def test_cursor_defaults(self):
        link_state = ReliableLinkState(default_limit=8)
        cursor = link_state.cursor((1, 3))
        assert cursor.nbr_limit == 8
        assert cursor.sent_h == cursor.nbr_h == 0
        assert not cursor.primary

    def test_next_needed_uses_all_floors(self):
        link_state = ReliableLinkState(default_limit=64)
        state = FlowState()
        state.acked = 5
        cursor = link_state.cursor((1, 3))
        assert link_state.next_needed((1, 3), state) == 6
        cursor.sent_h = 9
        assert link_state.next_needed((1, 3), state) == 10
        cursor.nbr_h = 12
        assert link_state.next_needed((1, 3), state) == 13


def build_pair(**config_kwargs):
    """1 - 2 - 3 line, paced links."""
    defaults = dict(link_bandwidth_bps=1e6)
    defaults.update(config_kwargs)
    net = OverlayNetwork.build(line(3), OverlayConfig(**defaults))
    return net


class TestEnginePaths:
    def test_gap_drop_counted(self):
        net = build_pair()
        engine = net.node(2).reliable
        engine.handle(rmsg(5, pki=net.pki), from_neighbor=1)
        assert engine.gap_drops == 1
        assert engine.flows[(1, 3)].stored_h == 0

    def test_duplicate_drop_counted(self):
        net = build_pair()
        engine = net.node(2).reliable
        engine.handle(rmsg(1, pki=net.pki), from_neighbor=1)
        engine.handle(rmsg(1, pki=net.pki), from_neighbor=1)
        assert engine.duplicates_dropped == 1

    def test_backpressure_drop_at_intermediate(self):
        net = build_pair(reliable_buffer=2)
        engine = net.node(2).reliable
        for seq in (1, 2, 3):
            engine.handle(rmsg(seq, pki=net.pki), from_neighbor=1)
        assert engine.backpressure_drops == 1
        assert engine.flows[(1, 3)].stored_h == 2

    def test_destination_delivers_without_buffer_limit(self):
        net = build_pair(reliable_buffer=2)
        engine = net.node(3).reliable
        for seq in range(1, 11):
            engine.handle(rmsg(seq, pki=net.pki), from_neighbor=2)
        assert engine.messages_delivered == 10
        assert engine.flows[(1, 3)].acked == 10

    def test_e2e_ack_generation_requires_progress(self):
        net = build_pair()
        engine = net.node(3).reliable
        engine.generate_e2e_ack()
        assert engine.acks_generated == 0
        engine.handle(rmsg(1, pki=net.pki), from_neighbor=2)
        engine.generate_e2e_ack()
        assert engine.acks_generated == 1
        engine.generate_e2e_ack()  # no new progress
        assert engine.acks_generated == 1

    def test_no_progress_ack_not_forwarded(self):
        net = build_pair()
        engine = net.node(2).reliable
        ack1 = E2eAck.create(net.pki, 3, stamp=1, by_source={1: 5})
        engine.handle_e2e_ack(ack1, from_neighbor=3)
        rejected_before = engine.acks_rejected
        engine.handle_e2e_ack(ack1, from_neighbor=3)  # exact duplicate
        assert engine.acks_rejected == rejected_before + 1

    def test_neighbor_ack_updates_cursor_and_limit(self):
        net = build_pair()
        node2 = net.node(2)
        engine = node2.reliable
        engine.handle(rmsg(1, pki=net.pki), from_neighbor=1)
        ack = NeighborAck(3, ((("1", "3"), 1, 65),))
        engine.handle_neighbor_ack(ack, from_neighbor=3)
        cursor = node2.links[3].reliable.cursor((1, 3))
        assert cursor.nbr_h == 1
        assert cursor.nbr_limit == 65

    def test_flow_state_initialized_from_latest_ack(self):
        """A node that saw an E2E ack before any data skips the prefix."""
        net = build_pair()
        engine = net.node(2).reliable
        ack = E2eAck.create(net.pki, 3, stamp=1, by_source={1: 7})
        engine.handle_e2e_ack(ack, from_neighbor=3)
        state = engine.flow_state((1, 3))
        assert state.acked == 7
        assert state.stored_h == 7

    def test_check_stalls_rewinds_after_timeout(self, monkeypatch):
        """A cursor ahead of the neighbor with no progress is rewound by
        the stall check, and the message actually gets retransmitted."""
        monkeypatch.setattr(reliable, "RELIABLE_STALL_TIMEOUT", 1.0)
        net = build_pair()
        node2 = net.node(2)
        cursor = node2.links[3].reliable.cursor((1, 3))
        state = node2.reliable.flow_state((1, 3))
        state.stored[1] = rmsg(1, pki=net.pki)
        state.stored_at[1] = 0.0
        state.stored_h = 1
        cursor.sent_h = 1  # claims sent, but nothing ever went out
        cursor.nbr_progress_at = 0.0
        net.run(3.0)  # hello ticks invoke check_stalls
        # The rewind re-sent the message; the destination delivered it
        # and its neighbor ACK proves receipt.
        assert node2.links[3].data_transmissions >= 1
        assert cursor.nbr_h == 1
        assert net.node(3).reliable.messages_delivered == 1

    def test_source_seq_assignment_is_consecutive(self):
        net = build_pair()
        node = net.node(1)
        assert node.reliable.next_seq(3) == 1
        assert node.send_reliable(3)
        assert node.reliable.next_seq(3) == 2
        assert node.send_reliable(3)
        assert node.reliable.next_seq(3) == 3


class TestPrimaryRepairDesignation:
    def test_primary_is_shortest_path_next_hop(self):
        net = OverlayNetwork.build(ring(4), OverlayConfig(link_bandwidth_bps=1e6))
        node1 = net.node(1)
        node1.send_reliable(2)  # direct neighbor: link 1->2 is primary
        assert node1.links[2].reliable.cursor((1, 2)).primary
        assert not node1.links[4].reliable.cursor((1, 2)).primary

    def test_kpaths_links_always_eager(self):
        from repro.overlay.config import DisseminationMethod

        net = OverlayNetwork.build(ring(4), OverlayConfig(link_bandwidth_bps=1e6))
        node1 = net.node(1)
        node1.send_reliable(3, method=DisseminationMethod.k_paths(2))
        assert node1.links[2].reliable.cursor((1, 3)).primary
        assert node1.links[4].reliable.cursor((1, 3)).primary
