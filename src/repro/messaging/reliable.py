"""Reliable Messaging with Source-Destination Fairness (Section V-C2).

End-to-end reliable, in-order delivery per (source, destination) flow:

* every node stores a flow's messages **in order** in a statically sized
  per-flow buffer (``b`` messages) and "maintains responsibility for
  messages until they are acknowledged by the destination";
* when a flow's buffer fills the node stops accepting new messages for
  it, creating **back-pressure** all the way to the source;
* destinations periodically generate signed, flooded **E2E ACKs** (one
  cumulative sequence number per source) that let intermediate nodes
  discard acknowledged messages; nodes keep only the newest ACK per
  destination (overtaken-by-event), forward only ACKs that indicate
  progress, and no more often than the E2E timeout;
* **neighbor ACKs** ("I have stored flow F up to h") stop neighbors from
  sending messages a node already has and re-trigger sending when a
  buffer frees or a recovered node needs retransmission;
* per-link bandwidth is shared round-robin across **active flows**, with
  the next in-order message sent for the selected flow.

The engine is deliberately event-driven: there are no per-message
retransmission timers above the PoR link.  Retransmission across a hop
happens exactly when a neighbor ACK proves the downstream node is missing
data it is able to store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dissemination import path_targets
from repro.messaging.message import E2eAck, Message, NeighborAck
from repro.topology.graph import NodeId

Flow = Tuple[NodeId, NodeId]


@dataclass
class FlowState:
    """One flow's state at one node.

    Invariant: ``stored`` holds exactly the messages with sequence numbers
    in (acked, stored_h], and ``stored_h - acked <= buffer_size``.
    """

    stored: Dict[int, Message] = field(default_factory=dict)
    stored_at: Dict[int, float] = field(default_factory=dict)
    stored_h: int = 0
    acked: int = 0
    flooding: bool = True
    paths: Optional[Tuple[Tuple[NodeId, ...], ...]] = None

    def buffer_used(self) -> int:
        """Messages currently held beyond the acked prefix."""
        return self.stored_h - self.acked

    def apply_e2e(self, seq: int) -> bool:
        """Apply a cumulative E2E ack; returns True if it freed anything."""
        if seq <= self.acked:
            return False
        for s in range(self.acked + 1, min(seq, self.stored_h) + 1):
            self.stored.pop(s, None)
            self.stored_at.pop(s, None)
        self.acked = seq
        if self.stored_h < self.acked:
            # Messages up to ``seq`` are globally delivered; skip forward.
            self.stored_h = self.acked
            self.stored.clear()
        return True


@dataclass
class _Cursor:
    """Per-(link, flow) sending state."""

    sent_h: int = 0        # highest seq transmitted on this link
    nbr_h: int = 0         # highest seq the neighbor reported storing
    nbr_limit: int = 0     # highest seq the neighbor can store (acked + b)
    nbr_progress_at: float = 0.0  # when nbr_h last advanced
    #: True when this link is on the flow's shortest path toward its
    #: destination: primary links stream eagerly, the rest only *repair*
    #: (they serve a seq once it has aged ``reliable_forward_hold``
    #: seconds locally and the neighbor still lacks it).
    primary: bool = False
    wake_at: float = 0.0   # pending repair-wake time (0 = none)


class ReliableLinkState:
    """Per-outgoing-link reliable scheduling: flow cursors + round-robin."""

    def __init__(self, default_limit: int = 0) -> None:
        from repro.messaging.scheduler import RoundRobinQueue

        self.default_limit = default_limit
        self.cursors: Dict[Flow, _Cursor] = {}
        self.rr = RoundRobinQueue()

    def cursor(self, flow: Flow) -> _Cursor:
        """The (lazily created) cursor for ``flow`` on this link."""
        cursor = self.cursors.get(flow)
        if cursor is None:
            # A fresh neighbor's buffer is empty, so it can store at least
            # ``default_limit`` (= the static per-flow buffer size).
            cursor = _Cursor(nbr_limit=self.default_limit)
            self.cursors[flow] = cursor
        return cursor

    def next_needed(self, flow: Flow, state: FlowState) -> int:
        """Next sequence this link should transmit for ``flow``."""
        cursor = self.cursor(flow)
        return max(cursor.sent_h, cursor.nbr_h, state.acked) + 1


class ReliableEngine:
    """Node-level Reliable Messaging logic."""

    def __init__(self, node: "OverlayNode"):  # noqa: F821 - runtime duck type
        self._node = node
        self.flows: Dict[Flow, FlowState] = {}
        self.latest_acks: Dict[NodeId, E2eAck] = {}
        self._ack_forwarded_at: Dict[NodeId, float] = {}
        self._ack_flush_pending: Set[NodeId] = set()
        self._ack_stamp = 0
        self._delivered_since_ack = False
        self._dirty_flows: Set[Flow] = set()
        self._flush_scheduled = False
        self._id_by_str = {}
        # Observability.
        self.messages_delivered = 0
        self.duplicates_dropped = 0
        self.gap_drops = 0
        self.backpressure_drops = 0
        self.acks_generated = 0
        self.acks_rejected = 0

    # ------------------------------------------------------------------
    # Flow state helpers
    # ------------------------------------------------------------------
    def flow_state(self, flow: Flow) -> FlowState:
        """The (lazily created) local state for ``flow``, seeded from E2E ACKs."""
        state = self.flows.get(flow)
        if state is None:
            state = FlowState()
            latest = self.latest_acks.get(flow[1])
            if latest is not None:
                acked = latest.seq_for(flow[0])
                if acked > 0:
                    state.acked = acked
                    state.stored_h = acked
            self.flows[flow] = state
        return state

    def node_id_from_str(self, key: str) -> Optional[NodeId]:
        """Map a stringified member id back to the real node id."""
        if not self._id_by_str:
            for member in self._node.mtmw.members:
                self._id_by_str[str(member)] = member
        return self._id_by_str.get(key)

    def refresh_membership(self) -> None:
        """Invalidate the member-id cache after an MTMW change."""
        self._id_by_str = {}

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def try_send(self, message: Message) -> bool:
        """Source API: accept a new outgoing message unless back-pressured."""
        node = self._node
        flow = message.flow
        state = self.flow_state(flow)
        if state.buffer_used() >= node.config.reliable_buffer:
            self.backpressure_drops += 1
            return False
        assert message.seq == state.stored_h + 1, "source must send consecutive seqs"
        self._store(state, message)
        self._activate(flow, state, exclude=None)
        return True

    def next_seq(self, dest: NodeId) -> int:
        """The sequence number the next accepted message to ``dest`` will get."""
        return self.flow_state((self._node.node_id, dest)).stored_h + 1

    def can_send(self, dest: NodeId) -> bool:
        """Whether the per-flow buffer has room (no back-pressure)."""
        state = self.flow_state((self._node.node_id, dest))
        return state.buffer_used() < self._node.config.reliable_buffer

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def note_duplicate(self, message: Message, from_neighbor: Optional[NodeId]) -> None:
        """Cheap-path handling of a copy at or below stored_h: count it
        and remember that the sending neighbor evidently has it."""
        self.duplicates_dropped += 1
        if from_neighbor is not None:
            link = self._node.links.get(from_neighbor)
            if link is not None:
                cursor = link.reliable.cursor(message.flow)
                if message.seq > cursor.nbr_h:
                    cursor.nbr_h = message.seq
                    cursor.nbr_progress_at = self._node.sim.now

    def handle(self, message: Message, from_neighbor: Optional[NodeId]) -> None:
        """Process one verified reliable data message (receive path)."""
        node = self._node
        flow = message.flow
        state = self.flow_state(flow)
        if from_neighbor is not None:
            # The neighbor evidently has this message.
            link = node.links.get(from_neighbor)
            if link is not None:
                cursor = link.reliable.cursor(flow)
                if message.seq > cursor.nbr_h:
                    cursor.nbr_h = message.seq
                    cursor.nbr_progress_at = node.sim.now
        if message.seq <= state.stored_h:
            self.duplicates_dropped += 1
            return
        if message.seq > state.stored_h + 1:
            self.gap_drops += 1
            return
        if message.dest == node.node_id:
            # Destination: deliver immediately, no buffering needed.
            state.stored_h = message.seq
            state.acked = message.seq
            self.messages_delivered += 1
            self._delivered_since_ack = True
            node.deliver_local(message)
            self._mark_dirty(flow)
            return
        if state.buffer_used() >= node.config.reliable_buffer:
            self.backpressure_drops += 1
            return
        self._store(state, message)
        self._mark_dirty(flow)
        self._activate(flow, state, exclude=None)

    def _store(self, state: FlowState, message: Message) -> None:
        state.stored[message.seq] = message
        state.stored_at[message.seq] = self._node.sim.now
        state.stored_h = message.seq
        state.flooding = message.flooding
        state.paths = message.paths

    def _activate(self, flow: Flow, state: FlowState, exclude: Optional[NodeId]) -> None:
        """Mark the flow active on every outgoing link it should use.

        Under flooding, the link toward the destination's shortest-path
        next hop is the flow's *primary* link here and streams eagerly;
        every other link is a *repair* link that only serves messages the
        neighbor still lacks ``reliable_forward_hold`` seconds after we
        stored them.  This is the "engineered flooding" delay technique
        from Table III applied to Reliable Messaging (whose semantics
        allow it — Priority Messaging cannot delay): repair links remain
        a full-coverage safety net if the primary path is slow, failed,
        or compromised.  K-paths flows stream eagerly on their paths.
        """
        node = self._node
        primary = self._primary_next_hop(flow) if state.flooding else None
        for neighbor in self._forward_targets(flow, state):
            if neighbor == exclude:
                continue
            link = node.links[neighbor]
            link.reliable.cursor(flow).primary = (
                not state.flooding or neighbor == primary
            )
            link.reliable.rr.activate(flow)
            link.pump()

    def reactivate_link(self, link: "LinkSender") -> None:  # noqa: F821
        """Re-arm every known flow on a link whose cursors were rewound
        (the neighbor recovered from a crash)."""
        node = self._node
        for flow, state in self.flows.items():
            primary = self._primary_next_hop(flow) if state.flooding else None
            link.reliable.cursor(flow).primary = (
                not state.flooding or link.neighbor == primary
            )
            link.reliable.rr.activate(flow)

    def _primary_next_hop(self, flow: Flow) -> Optional[NodeId]:
        path = self._node.routing.shortest_path(self._node.node_id, flow[1])
        if path is not None and len(path) >= 2:
            return path[1]
        return None

    def _forward_targets(self, flow: Flow, state: FlowState) -> List[NodeId]:
        node = self._node
        if state.flooding or not state.paths:
            return list(node.links)
        return [
            n
            for n in path_targets(
                node.node_id, state.paths, metrics=node.stats.metrics
            )
            if n in node.links
        ]

    # ------------------------------------------------------------------
    # Link scheduler interface
    # ------------------------------------------------------------------
    def next_for_link(self, link: "LinkSender") -> Optional[Message]:  # noqa: F821
        """The next in-order message for the round-robin-selected flow."""
        flow = link.reliable.rr.select(link.reliable_has_work)
        if flow is None:
            return None
        state = self.flows[flow]
        needed = link.reliable.next_needed(flow, state)
        link.reliable.cursor(flow).sent_h = needed
        return state.stored[needed]

    def _link_has_work(self, link: "LinkSender", flow: Flow) -> bool:  # noqa: F821
        state = self.flows.get(flow)
        if state is None:
            return False
        needed = link.reliable.next_needed(flow, state)
        cursor = link.reliable.cursor(flow)
        # ``reliable_link_window`` bounds optimism: at most this many
        # messages beyond the neighbor's *confirmed* stored_h may be in
        # flight on one link.  Under flooding a neighbor usually receives
        # the stream from whichever link is fastest; without this bound a
        # slower parallel link would redundantly transmit the entire
        # buffer before neighbor ACKs caught up.
        window = self._node.config.reliable_link_window
        # The window is anchored at the neighbor's confirmed progress; a
        # global E2E ack counts as progress too (the neighbor will skip
        # forward to it), which matters when resuming after recovery.
        anchor = max(cursor.nbr_h, state.acked)
        # The neighbor's storage limit is its acked + buffer.  Our best
        # lower bound on its acked is our own (E2E ACKs are flooded, and
        # we forward ours to it), so a freshly created cursor — e.g.
        # toward a just-recovered neighbor — must not anchor the limit at
        # zero or the flow wedges below its current sequence range.
        limit = max(cursor.nbr_limit, state.acked + self._node.config.reliable_buffer)
        available = (
            needed <= state.stored_h
            and needed <= limit
            and needed <= anchor + window
            and needed in state.stored
        )
        if not available:
            return False
        if cursor.primary or not state.flooding:
            return True
        # Secondary (repair) link: serve this seq only once it has aged
        # ``reliable_forward_hold`` seconds here and the neighbor still
        # lacks it — by then, in the common case, the neighbor obtained
        # it through its primary path and the send is suppressed.
        hold = self._node.config.reliable_forward_hold
        if hold <= 0.0:
            return True
        ready_at = state.stored_at.get(needed, 0.0) + hold
        now = self._node.sim.now
        if ready_at <= now:
            return True
        # Nothing to send yet: arrange a wake-up so the repair actually
        # happens even if the link would otherwise go idle.
        if cursor.wake_at <= now:
            cursor.wake_at = ready_at
            self._node.sim.schedule(
                ready_at - now, self._repair_wake, link, flow
            )
        return False

    def _repair_wake(self, link: "LinkSender", flow: Flow) -> None:  # noqa: F821
        cursor = link.reliable.cursors.get(flow)
        if cursor is not None:
            cursor.wake_at = 0.0
        if not self._node.crashed:
            link.reliable.rr.activate(flow)
            link.pump()

    def has_work_for_link(self, link: "LinkSender") -> bool:  # noqa: F821
        """Whether any flow has a transmittable message for ``link``."""
        return any(
            self._link_has_work(link, flow) for flow in link.reliable.rr.keys()
        )

    # ------------------------------------------------------------------
    # E2E ACKs
    # ------------------------------------------------------------------
    def generate_e2e_ack(self) -> None:
        """Periodic destination-side ACK generation (called by a timer)."""
        node = self._node
        if not self._delivered_since_ack:
            return
        self._delivered_since_ack = False
        by_source = {
            src: state.acked
            for (src, dst), state in self.flows.items()
            if dst == node.node_id and state.acked > 0
        }
        if not by_source:
            return
        self._ack_stamp += 1
        ack = E2eAck.create(node.pki, node.node_id, self._ack_stamp, by_source)
        self.acks_generated += 1
        self._absorb_ack(ack)
        for link in node.links.values():
            link.enqueue_control(ack, ack.wire_size)
            link.pump()
        self._ack_forwarded_at[node.node_id] = node.sim.now

    def handle_e2e_ack(self, ack: E2eAck, from_neighbor: Optional[NodeId]) -> None:
        """Absorb and (rate-limited) forward a verified E2E ACK."""
        node = self._node
        latest = self.latest_acks.get(ack.dest)
        if not ack.indicates_progress_over(latest):
            self.acks_rejected += 1
            return
        self._absorb_ack(ack)
        # Forward, rate-limited: no more often than the E2E timeout per
        # dest.  A suppressed forward is deferred, not dropped: when the
        # limit clears, the *newest* stored ACK for that dest goes out.
        interval = node.config.e2e_ack_timeout * 0.9
        last = self._ack_forwarded_at.get(ack.dest)
        if last is not None and node.sim.now - last < interval:
            if ack.dest not in self._ack_flush_pending:
                self._ack_flush_pending.add(ack.dest)
                node.sim.schedule(
                    last + interval - node.sim.now, self._flush_ack, ack.dest
                )
            return
        self._forward_ack(ack, from_neighbor)

    def _flush_ack(self, dest: NodeId) -> None:
        self._ack_flush_pending.discard(dest)
        if self._node.crashed:
            return
        latest = self.latest_acks.get(dest)
        if latest is not None:
            self._forward_ack(latest, exclude=None)

    def _forward_ack(self, ack: E2eAck, exclude: Optional[NodeId]) -> None:
        node = self._node
        self._ack_forwarded_at[ack.dest] = node.sim.now
        for neighbor, link in node.links.items():
            if neighbor == exclude:
                continue
            link.enqueue_control(ack, ack.wire_size)
            link.pump()

    def _absorb_ack(self, ack: E2eAck) -> None:
        node = self._node
        self.latest_acks[ack.dest] = ack
        for src_str, seq in ack.cumulative:
            source = self.node_id_from_str(src_str)
            if source is None:
                continue
            flow = (source, ack.dest)
            state = self.flows.get(flow)
            if state is None:
                continue
            if state.apply_e2e(seq):
                # Buffer freed (or skipped forward): let neighbors know so
                # upstream can retransmit what we still need, and re-pump
                # downstream links whose floor just moved.
                self._mark_dirty(flow)
                self._activate(flow, state, exclude=None)

    # ------------------------------------------------------------------
    # Neighbor ACKs
    # ------------------------------------------------------------------
    def _mark_dirty(self, flow: Flow) -> None:
        self._dirty_flows.add(flow)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._node.sim.schedule(
                self._node.config.neighbor_ack_delay, self._flush_neighbor_acks
            )

    def _flush_neighbor_acks(self) -> None:
        self._flush_scheduled = False
        node = self._node
        if node.crashed or not self._dirty_flows:
            self._dirty_flows.clear()
            return
        buffer = node.config.reliable_buffer
        entries = tuple(
            (
                (str(flow[0]), str(flow[1])),
                self.flows[flow].stored_h,
                self.flows[flow].acked + buffer,
            )
            for flow in sorted(self._dirty_flows, key=str)
            if flow in self.flows
        )
        self._dirty_flows.clear()
        if not entries:
            return
        ack = NeighborAck(node.node_id, entries)
        for link in node.links.values():
            link.enqueue_control(ack, ack.wire_size)
            link.pump()

    def handle_neighbor_ack(self, ack: NeighborAck, from_neighbor: NodeId) -> None:
        """Update cursors/limits from a neighbor's stored/limit report."""
        node = self._node
        link = node.links.get(from_neighbor)
        if link is None:
            return
        now = node.sim.now
        for (src_str, dst_str), h, limit in ack.entries:
            source = self.node_id_from_str(src_str)
            dest = self.node_id_from_str(dst_str)
            if source is None or dest is None:
                continue
            flow = (source, dest)
            cursor = link.reliable.cursor(flow)
            if h > cursor.nbr_h:
                cursor.nbr_h = h
                cursor.nbr_progress_at = now
            if limit > cursor.nbr_limit:
                cursor.nbr_limit = limit
            state = self.flows.get(flow)
            if state is None:
                continue
            if h < state.acked:
                # The neighbor is behind global progress (e.g. it just
                # recovered from a crash): give it the newest E2E ACK so
                # it can skip forward, rate-limited like any forward.
                latest = self.latest_acks.get(dest)
                if latest is not None:
                    link.enqueue_control(latest, latest.wire_size)
            link.reliable.rr.activate(flow)
            if not node.config.e2e_acks_enabled:
                self._neighbor_coverage_release(flow, state)
        link.pump()

    def check_stalls(self) -> None:
        """Periodic (hello-tick) retransmission safety net.

        Honest flow control means a neighbor normally acknowledges (via
        neighbor ACKs) everything we send; if a cursor is ahead of the
        neighbor's report and no progress has happened for
        ``reliable_stall_timeout`` seconds — a crash we did not observe,
        a dropped-in-reset PoR packet, or a Byzantine neighbor — rewind
        and retransmit.
        """
        node = self._node
        now = node.sim.now
        timeout = node.config.reliable_stall_timeout
        for link in node.links.values():
            pumped = False
            for flow, cursor in link.reliable.cursors.items():
                if cursor.sent_h <= cursor.nbr_h:
                    continue
                if now - cursor.nbr_progress_at < timeout:
                    continue
                cursor.sent_h = cursor.nbr_h
                cursor.nbr_progress_at = now
                link.reliable.rr.activate(flow)
                pumped = True
            if pumped:
                link.pump()

    def _neighbor_coverage_release(self, flow: Flow, state: FlowState) -> None:
        """Without E2E ACKs (the Table IV ablation, not a correct
        protocol): release a message once every neighbor stored it."""
        node = self._node
        if not node.links:
            return
        coverage = min(
            link.reliable.cursor(flow).nbr_h for link in node.links.values()
        )
        if coverage > state.acked:
            if state.apply_e2e(min(coverage, state.stored_h)):
                self._mark_dirty(flow)
                self._activate(flow, state, exclude=None)

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all soft state, as a crash would."""
        self.flows.clear()
        self.latest_acks.clear()
        self._ack_forwarded_at.clear()
        self._ack_flush_pending.clear()
        self._dirty_flows.clear()
        self._delivered_since_ack = False
        self._id_by_str = {}

    def announce_all_flows(self) -> None:
        """After recovery: advertise (empty) stored state so neighbors
        rewind their cursors and retransmit what we need."""
        for flow in list(self.flows):
            self._mark_dirty(flow)
