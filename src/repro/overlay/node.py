"""The intrusion-tolerant overlay node.

One :class:`OverlayNode` glues every layer together (Figure layering in
DESIGN.md): Proof-of-Receipt links to each MTMW neighbor, the validated
link-state routing view, the two messaging engines, the dissemination
methods, per-node CPU accounting, link monitoring via hellos, and the
Byzantine behaviour hook.

The send path is *pull-based*: each outgoing link's :class:`LinkSender`
pumps messages out of the fair schedulers whenever the PoR link can
accept another packet, so the queueing discipline (round-robin across
sources/flows, eviction, priority order) is applied at the moment of
transmission exactly as in Section V-C.
"""

from __future__ import annotations

import hashlib
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.byzantine.behaviors import Behavior, HonestBehavior
from repro.crypto.pki import Pki
from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.link.por import PorEndpoint
from repro.messaging.admission import (
    TICK_INTERVAL as ADMISSION_TICK_INTERVAL,
    AdmissionController,
    AdmissionOutcome,
)
from repro.messaging.message import (
    AdmissionNack,
    E2eAck,
    Hello,
    Message,
    NeighborAck,
    Semantics,
    StateRequest,
)
from repro.messaging.metadata import MAX_MESSAGE_LIFETIME, MetadataStore
from repro.messaging.priority import ParkedFlood, PriorityEngine, PriorityLinkQueue
from repro.messaging.reliable import ReliableEngine, ReliableLinkState
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.routing.link_state import UPDATE_WIRE_SIZE, LinkStateUpdate
from repro.routing.state import FAILED_WEIGHT, RoutingState
from repro.routing.validation import UpdateResult
from repro.sim.cpu import Cpu
from repro.sim.engine import PeriodicTimer
from repro.sim.stats import StatsRegistry
from repro.telemetry.profiling import payload_kind

if TYPE_CHECKING:
    # The node runs over the substrate seam: a simulated or wall-clock
    # scheduler both satisfy SchedulerLike (see repro.runtime.interfaces).
    from repro.runtime.interfaces import CancellableHandle, SchedulerLike
from repro.topology.graph import NodeId
from repro.topology.mtmw import Mtmw, MtmwHolder, MtmwUpdateResult

#: Wire bytes of a redistributed MTMW: header + per-node and per-edge
#: entries + the administrator signature.
MTMW_BASE_SIZE = 32
MTMW_NODE_ENTRY = 8
MTMW_EDGE_ENTRY = 16

#: Priority of a message sent without one.
DEFAULT_PRIORITY = 5
#: When the CPU's queued work exceeds this many seconds, incoming
#: best-effort (priority) data is dropped instead of queued.
CPU_DROP_BACKLOG = 0.05

# Liveness probing and link quarantine (self-healing).  A link whose
# neighbor goes silent past ``hello_timeout`` is *quarantined*: it is
# reported failed to the link-state layer and regular hellos stop;
# instead the node probes it with exponential backoff + jitter.  Once
# the neighbor is heard again the link enters *probation* and is only
# reinstated after staying healthy for ``QUARANTINE_PROBATION`` seconds,
# so a flapping link cannot churn everyone's routing tables.
PROBE_BACKOFF_INITIAL = 1.0
PROBE_BACKOFF_FACTOR = 2.0
PROBE_BACKOFF_MAX = 4.0
#: Relative jitter: each probe interval is scaled by 1 ± jitter.
PROBE_JITTER = 0.2
QUARANTINE_PROBATION = 2.0


def mtmw_wire_size(mtmw: Mtmw, signature_size: int) -> int:
    """Wire bytes of a redistributed MTMW for size accounting."""
    topo = mtmw.topology
    return (
        MTMW_BASE_SIZE
        + MTMW_NODE_ENTRY * len(topo.nodes)
        + MTMW_EDGE_ENTRY * topo.edge_count
        + signature_size
    )


def _noop() -> None:
    return None


class LinkSender:
    """Everything a node keeps per outgoing overlay link.

    Scheduling order on the wire: control traffic (ACKs, routing updates,
    state requests) first — it is tiny and rate-limited — then data,
    alternating fairly between the Priority and Reliable engines when
    both have backlog.
    """

    def __init__(self, node: "OverlayNode", neighbor: NodeId, por: PorEndpoint):
        self.node = node
        self.neighbor = neighbor
        self.por = por
        self.control: Deque[Tuple[Any, int]] = deque()
        self.priority_queue = PriorityLinkQueue(node.config.priority_queue_capacity)
        self.reliable = ReliableLinkState(node.config.reliable_buffer)
        #: ``flow -> bool`` for the reliable round-robin on this link,
        #: bound once (``ReliableEngine.next_for_link`` polls with it).
        self.reliable_has_work = partial(node.reliable._link_has_work, self)
        self._serve_reliable_next = False
        #: A pump retry is scheduled (it is never cancelled: a retry that
        #: finds nothing to send is a no-op).
        self._pump_pending = False
        # Link monitoring / quarantine state.  ``monitor_up`` False means
        # the link is quarantined: reported failed to routing, regular
        # hellos replaced by backoff probes until probation completes.
        self.monitor_up = True
        self.last_heard: float = node.sim.now
        self.quarantined_at: Optional[float] = None
        self.probation_since: Optional[float] = None
        self.probe_interval: float = PROBE_BACKOFF_INITIAL
        self._probe_event: Optional[CancellableHandle] = None
        # Adaptive-defense vigilance: the feedback controller shrinks the
        # hello timeout toward a suspect neighbor (scale < 1) and
        # stretches its reinstatement probation (scale > 1).
        self.timeout_scale: float = 1.0
        self.probation_scale: float = 1.0
        # Observability.
        self.data_transmissions = 0
        self.control_transmissions = 0
        self.probes_sent = 0
        self.quarantine_count = 0
        self.reinstatements = 0
        self.probation_failures = 0
        self.invalid_rx = 0
        # Counter handles resolved once; pump() pays integer adds only.
        self._data_tx_counter = node.stats.counter("data_transmissions")

        por.on_deliver = self._on_deliver
        por.on_ready = self.pump
        por.on_hello = self._on_hello

    # ------------------------------------------------------------------
    def _on_deliver(self, payload: Any, size: int) -> None:
        self.node.on_link_deliver(self.neighbor, payload, size)

    def _on_hello(self, hello: Any) -> None:
        if isinstance(hello, Hello) and hello.sender == self.neighbor:
            self.last_heard = self.node.sim.now
            if not self.monitor_up:
                # Heard a quarantined neighbor: probe eagerly again and
                # start (or continue) the probation clock.
                self.probe_interval = PROBE_BACKOFF_INITIAL
                if self.probation_since is None:
                    self.probation_since = self.last_heard
                    # The pending probe may still sit at the backed-off
                    # interval; re-arm it so the peer hears us promptly.
                    self.node._schedule_probe(self)

    @property
    def quarantined(self) -> bool:
        """Whether this link is currently quarantined by the local monitor."""
        return not self.monitor_up

    def cancel_probe(self) -> None:
        """Cancel any scheduled liveness probe (used on teardown)."""
        if self._probe_event is not None:
            self._probe_event.cancel()
            self._probe_event = None

    def enqueue_control(self, payload: Any, size: int, raw: bool = False) -> None:
        """Queue a control payload.  ``raw=True`` bypasses the Byzantine
        outgoing filter — used by behaviours re-injecting traffic they
        already intercepted, so they don't re-filter their own output."""
        self.control.append((payload, size, raw))

    def send_hello(self, hello: Hello) -> None:
        """Send a liveness beacon on the PoR side-channel (accounted)."""
        tx_messages, tx_bytes = self.node.stats.tx_counters("hello")
        tx_messages.add()
        tx_bytes.add(Hello.WIRE_SIZE)
        self.por.send_hello(hello, Hello.WIRE_SIZE)

    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Transmit while the PoR link accepts; reschedule on pacing."""
        node = self.node
        if node.crashed:
            return
        if self.neighbor not in node._neighbor_set:
            return  # the administrator removed this link from the MTMW
        while self.por.can_accept():  # can_accept implies established
            item = self._next_item()
            if item is None:
                return
            payload, size, raw = item
            if raw or node._behavior_passthrough:
                filtered = payload
            else:
                filtered = node.behavior.filter_outgoing(payload, self.neighbor, node)
            if filtered is None:
                continue
            if isinstance(filtered, Message):
                self.data_transmissions += 1
                self._data_tx_counter.add()
            else:
                self.control_transmissions += 1
            tx_messages, tx_bytes = node.stats.tx_counters(payload_kind(filtered))
            tx_messages.add()
            tx_bytes.add(size)
            if node.cpu.enabled and node.cpu.costs.tx_packet > 0.0:
                node.cpu.execute(node.cpu.costs.tx_packet, _noop)
            self.por.send(filtered, size)
        if not self._pump_pending:
            # time_until_ready is the cheap test; only scan for backlog
            # (which walks the reliable engine's flows) when a retry could
            # actually be scheduled.
            delay = self.por.time_until_ready()
            if delay is not None and self._has_backlog():
                self._pump_pending = True
                sim = node.sim
                sim.schedule_transient_at(sim.now + max(delay, 1e-5), self._pump_retry)

    def send_if_idle(self, message: Message, now: float) -> bool:
        """Transmit a priority ``message`` at once when nothing on this
        link is waiting and the PoR link accepts; True when it was dealt
        with (sent, or dropped as expired).

        On an idle link ``priority_queue.offer`` + :meth:`pump` hand the
        message straight back; this does what they do -- the queue's
        round-robin bookkeeping, ``pump``'s accounting -- without the
        queue round trip.  False leaves everything untouched for that
        path: a backlog, queued control frames or reliable flows, a
        Byzantine behaviour or CPU model that ``pump`` must apply, a
        crashed node, a removed neighbour, a closed window.
        """
        node = self.node
        queue = self.priority_queue
        por = self.por
        if (
            queue._live_total
            or self.control
            or len(self.reliable.rr)
            or not node._behavior_passthrough
            or node.cpu.enabled
            or node.crashed
            or self.neighbor not in node._neighbor_set
            or not por.can_accept()
        ):
            return False
        if message.is_expired(now):
            queue.dropped_expired += 1
            return True
        self._serve_reliable_next = True
        self.data_transmissions += 1
        self._data_tx_counter.add()
        size = message.wire_size(node.signature_size)
        tx_messages, tx_bytes = node.stats.tx_counters("priority")
        tx_messages.add()
        tx_bytes.add(size)
        por.send(message, size)
        # pump() polls the queue once more only while the link accepts.
        queue.served_directly(message.source, polled_again=por.can_accept())
        return True

    def _pump_retry(self) -> None:
        self._pump_pending = False
        self.pump()

    def _has_backlog(self) -> bool:
        return bool(
            self.control
            or len(self.priority_queue)
            or self.node.reliable.has_work_for_link(self)
        )

    def _next_item(self) -> Optional[Tuple[Any, int, bool]]:
        node = self.node
        if self.control:
            return self.control.popleft()
        first_reliable = self._serve_reliable_next
        signature_size = node.signature_size
        for attempt in range(2):
            serve_reliable = first_reliable ^ (attempt == 1)
            if serve_reliable:
                message = node.reliable.next_for_link(self)
                if message is not None:
                    self._serve_reliable_next = False
                    return message, message.wire_size(signature_size), False
            else:
                message = self.priority_queue.next_message(node.sim.now)
                if message is not None:
                    self._serve_reliable_next = True
                    return message, message.wire_size(signature_size), False
        return None


class OverlayNode:
    """One overlay node: links, routing, messaging, monitoring."""

    def __init__(
        self,
        sim: SchedulerLike,
        node_id: NodeId,
        mtmw: Mtmw,
        pki: Pki,
        config: OverlayConfig,
        stats: StatsRegistry,
    ):
        self.sim = sim
        self.node_id = node_id
        self._mtmw_holder = MtmwHolder(pki, mtmw)
        self.pki = pki
        #: ``pki.signature_wire_size`` resolved once (the PKI mode never
        #: changes at runtime); used for per-packet size accounting.
        self.signature_size = pki.signature_wire_size
        self.config = config
        self.stats = stats
        self.cpu = Cpu(sim, config.cpu_costs, name=f"cpu:{node_id}")
        self.routing = RoutingState(mtmw, pki)
        self.links: Dict[NodeId, LinkSender] = {}
        # Authorized-neighbor set, denormalized from the MTMW: checked on
        # every single link delivery, so it must be one hash probe, not a
        # topology traversal.  Refreshed whenever a new MTMW is adopted.
        self._neighbor_set = self._authorized_neighbors(mtmw)
        self.metadata = MetadataStore()
        self.priority = PriorityEngine(self)
        self.reliable = ReliableEngine(self)
        self.behavior: Behavior = HonestBehavior()
        self.crashed = False
        #: New flooded messages waiting for the end of the current
        #: receive wakeup, by uid in arrival order; None outside a wakeup
        #: (always, on the simulator).  See :meth:`begin_wakeup`.
        self.parked: Optional[Dict[Tuple, ParkedFlood]] = None
        # deliver_local's instruments by (source, dest, priority): looked
        # up by name once, not on every delivery.
        self._delivery_meters: Dict[Tuple[NodeId, NodeId, int], Tuple] = {}
        self.on_deliver: Optional[Callable[[Message], None]] = None
        #: Instrumentation taps (e.g. the chaos InvariantMonitor): called
        #: as ``observer(message, node)`` on every local delivery, before
        #: the application's ``on_deliver``.
        self.delivery_observers: list = []
        #: Session-layer taps: called as ``observer(nack, node)`` for
        #: every :class:`AdmissionNack` whose ``home`` is this node
        #: (whether generated locally or received off the wire).
        self.nack_observers: list = []
        self._nack_seq = 0
        #: Parked offers whose deferred release found the destination
        #: departed (or this node crashed) — dropped at release time;
        #: the client's attempt timeout owns recovery.
        self.released_unroutable = 0
        self._probe_rng = sim.rngs.stream(f"probe:{node_id}")

        self.non_neighbor_rejected = 0
        self._priority_seq = 0
        self._ls_seqno = 0
        self._hello_stamp = 0
        self._e2e_timer = PeriodicTimer(sim, config.e2e_ack_timeout, self._e2e_tick)
        self._hello_timer = PeriodicTimer(sim, config.hello_interval, self._hello_tick)
        self.invalid_messages_rejected = 0
        # Client-tier admission stage (None unless configured): meters
        # per-client-source offers before they reach send_priority.
        self.admission: Optional[AdmissionController] = None
        self._admission_timer: Optional[PeriodicTimer] = None
        if config.admission is not None:
            self.admission = AdmissionController(
                config.admission,
                sim,
                load_fn=self._admission_load,
                stats=stats,
                name=f"admission:{node_id}",
            )
            self._admission_timer = PeriodicTimer(
                sim, ADMISSION_TICK_INTERVAL, self.admission.tick
            )

    @property
    def mtmw(self) -> Mtmw:
        """The node's current (newest validly signed) MTMW."""
        return self._mtmw_holder.current

    @property
    def behavior(self) -> Behavior:
        """The node's forwarding behavior (honest by default).

        Setting it keeps a pass-through flag in sync so honest nodes —
        the overwhelmingly common case — skip the per-packet Byzantine
        filter calls entirely."""
        return self._behavior

    @behavior.setter
    def behavior(self, behavior: Behavior) -> None:
        self._behavior = behavior
        # Exact type check: subclasses may override the filters.
        self._behavior_passthrough = type(behavior) is HonestBehavior

    def _authorized_neighbors(self, mtmw: Mtmw) -> frozenset:
        """This node's MTMW neighbor set (one hash probe on receive)."""
        topology = mtmw.topology
        if not topology.has_node(self.node_id):
            return frozenset()
        return frozenset(topology.neighbors(self.node_id))

    # ------------------------------------------------------------------
    # MTMW redistribution (Section V-A)
    # ------------------------------------------------------------------
    def adopt_mtmw(
        self, candidate: Mtmw, from_neighbor: Optional[NodeId] = None
    ) -> MtmwUpdateResult:
        """Offer a redistributed MTMW; adopt and flood it if fresh.

        "In the event that a change is needed, the offline system
        administrator can update, sign, and re-distribute the MTMW.  Each
        MTMW is assigned a unique monotonically increasing sequence
        number to defeat replay attacks."

        Adoption rebuilds the routing view against the new minimum
        weights; links no longer in the MTMW stop being used in either
        direction.  Flow and dedup state is preserved (topology changes
        are administrative, not crashes).
        """
        result = self._mtmw_holder.consider(candidate)
        if result is not MtmwUpdateResult.ACCEPTED:
            return result
        self._neighbor_set = self._authorized_neighbors(self.mtmw)
        self.routing = RoutingState(self.mtmw, self.pki)
        self.reliable.refresh_membership()
        # The rebuilt routing view forgot our own failure reports; links
        # still under quarantine must stay excluded from routing.
        for neighbor, link in self.links.items():
            if not link.monitor_up and self.mtmw.are_neighbors(self.node_id, neighbor):
                self._issue_link_update(neighbor, FAILED_WEIGHT)
        size = mtmw_wire_size(candidate, self.pki.signature_wire_size)
        for neighbor, link in self.links.items():
            if neighbor != from_neighbor:
                link.enqueue_control(candidate, size)
            # Pump every link, not just the flooded ones: adoption may
            # have re-authorized a previously removed neighbor whose
            # queue still holds messages with no other wake-up pending.
            link.pump()
        return result

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, neighbor: NodeId, tx: Any, rx: Any) -> LinkSender:
        """Build this node's half of the PoR link to ``neighbor`` over
        the ``tx``/``rx`` transport halves, and attach it.

        The one link-half recipe every substrate shares: the endpoint is
        keyed out of band from the PKI (both halves derive the same link
        secret from the seed, so each side keys itself — no cross-process
        handshake at boot) and its MAC operations count into this node's
        registry.  ``tx``/``rx`` are simulated channels or UDP halves.
        Raises :class:`ConfigurationError` for a non-neighbor.
        """
        por = PorEndpoint(
            self.sim, self.node_id, neighbor, tx, rx, self.pki,
            config=self.config.por,
        )
        por.establish_out_of_band()
        por.attach_mac_counters(self.stats)
        return self.attach_link(neighbor, por)

    def attach_link(self, neighbor: NodeId, por: PorEndpoint) -> LinkSender:
        """Wire a pre-built PoR endpoint to an MTMW neighbor as an
        outgoing link (tests and microbenchmarks inject their own
        endpoints; deployments use :meth:`connect`)."""
        if not self.mtmw.are_neighbors(self.node_id, neighbor):
            raise ConfigurationError(
                f"{self.node_id!r} and {neighbor!r} are not MTMW neighbors"
            )
        link = LinkSender(self, neighbor, por)
        self.links[neighbor] = link
        return link

    def start(self) -> None:
        """Arm periodic timers (phase-staggered per node id)."""
        # A stable digest, not hash(): the built-in string hash is
        # randomized per process, which made runs differ across
        # invocations of the same seed.
        digest = hashlib.sha256(str(self.node_id).encode()).digest()
        phase = (int.from_bytes(digest[:8], "big") % 1000) / 1000.0
        if self.config.e2e_acks_enabled:
            self._e2e_timer.start(phase=phase * self.config.e2e_ack_timeout)
        self._hello_timer.start(phase=phase * self.config.hello_interval)
        if self._admission_timer is not None:
            self._admission_timer.start(
                phase=phase * ADMISSION_TICK_INTERVAL
            )

    # ------------------------------------------------------------------
    # Application send API
    # ------------------------------------------------------------------
    def send_priority(
        self,
        dest: NodeId,
        size_bytes: int = 1000,
        priority: Optional[int] = None,
        method: Optional[DisseminationMethod] = None,
        payload: Any = None,
        expire_after: Optional[float] = None,
        explicit_paths: Optional[Tuple[Tuple[NodeId, ...], ...]] = None,
    ) -> Message:
        """Inject one Priority Messaging message as this node (the source).

        ``explicit_paths`` overrides the routing-computed paths (pure
        source routing): used to emulate external routing policies and by
        attack tests.
        """
        if self.crashed:
            raise ProtocolError(f"node {self.node_id!r} is crashed")
        method = method or DisseminationMethod.flooding()
        self._priority_seq += 1
        expiration = self.sim.now + (
            expire_after if expire_after is not None else self.config.default_expire_after
        )
        if explicit_paths is not None:
            flooding, paths = False, explicit_paths
        else:
            flooding = method.is_flooding
            paths = None if flooding else self._compute_paths(dest, method.k)
        message = Message(
            source=self.node_id,
            dest=dest,
            seq=self._priority_seq,
            semantics=Semantics.PRIORITY,
            priority=priority if priority is not None else DEFAULT_PRIORITY,
            expiration=expiration,
            size_bytes=size_bytes,
            flooding=flooding,
            paths=paths,
            sent_at=self.sim.now,
            payload=payload,
        ).sign(self.pki)
        self.stats.counter("messages_injected").add()
        self.priority.messages_originated += 1
        self.cpu.sign(self.priority.handle, message, None)
        return message

    def offer_priority(
        self,
        dest: NodeId,
        size_bytes: int = 1000,
        priority: Optional[int] = None,
        method: Optional[DisseminationMethod] = None,
        payload: Any = None,
        expire_after: Optional[float] = None,
        client: Any = None,
        nack_home: Optional[NodeId] = None,
        nack_key: str = "",
    ) -> AdmissionOutcome:
        """Client-tier injection: run one offer through the admission
        stage before :meth:`send_priority`.

        ``client`` identifies the offering client source for per-source
        metering (defaults to this node's id — one edge site, one
        source).  Without a configured admission stage every offer is
        admitted unconditionally, which keeps the client tier runnable
        against an unprotected overlay for A/B comparison.

        ``nack_home`` opts the offer into typed NACKs: if the offer is
        PARKED, its terminal resolution (released / expired / evicted /
        cleared) is reported as an :class:`AdmissionNack` tagged with
        ``nack_key`` and delivered to ``nack_home``'s ``nack_observers``
        — locally when the home *is* this ingress, over the wire when a
        failed-over session offered here from elsewhere.
        """
        if self.crashed:
            raise ProtocolError(f"node {self.node_id!r} is crashed")
        if self.admission is None:
            self.send_priority(
                dest,
                size_bytes=size_bytes,
                priority=priority,
                method=method,
                payload=payload,
                expire_after=expire_after,
            )
            return AdmissionOutcome.ADMITTED
        source = client if client is not None else self.node_id
        effective = (
            priority if priority is not None else DEFAULT_PRIORITY
        )
        on_final = None
        if nack_home is not None:
            client_tag = str(source)

            def on_final(outcome: str) -> None:
                self._emit_nack(nack_home, client_tag, nack_key, outcome)

        in_offer = True

        def release_send() -> None:
            # Runs either synchronously (ADMITTED, still inside the
            # offer call — let errors propagate so the caller keeps its
            # fast unroutable path) or deferred from an admission tick
            # (a PARKED offer being released).  By deferred-release time
            # the world may have changed — the destination departed via
            # a signed LEAVE, or this node crashed — and a timer
            # callback must never let that escape into the event loop.
            try:
                self.send_priority(
                    dest,
                    size_bytes=size_bytes,
                    priority=priority,
                    method=method,
                    payload=payload,
                    expire_after=expire_after,
                )
            except (ProtocolError, TopologyError):
                if in_offer:
                    raise
                self.released_unroutable += 1

        try:
            return self.admission.offer(
                source,
                effective,
                release_send,
                size_bytes=size_bytes,
                dest=dest,
                on_final=on_final,
            )
        finally:
            in_offer = False

    def _emit_nack(
        self, home: NodeId, client: str, key: str, outcome: str
    ) -> None:
        """Report an admission verdict to ``home``'s session layer:
        dispatched straight to the local observers when the home is this
        node, flooded as a typed control frame otherwise."""
        self._nack_seq += 1
        nack = AdmissionNack(
            ingress=self.node_id,
            home=home,
            client=client,
            key=key,
            outcome=outcome,
            seq=self._nack_seq,
        )
        if home == self.node_id:
            for observer in self.nack_observers:
                observer(nack, self)
            return
        self.metadata.check_and_record(
            nack.uid, self.sim.now + MAX_MESSAGE_LIFETIME, self.sim.now
        )
        for link in self.links.values():
            link.enqueue_control(nack, AdmissionNack.WIRE_SIZE)
            link.pump()

    def _handle_admission_nack(self, nack: AdmissionNack, neighbor: NodeId) -> None:
        """Flood-forward an admission NACK; consume it at its home."""
        if not self.metadata.check_and_record(
            nack.uid, self.sim.now + MAX_MESSAGE_LIFETIME, self.sim.now
        ):
            return
        if nack.home == self.node_id:
            for observer in self.nack_observers:
                observer(nack, self)
            return
        for other, link in self.links.items():
            if other != neighbor:
                link.enqueue_control(nack, AdmissionNack.WIRE_SIZE)
                link.pump()

    def _admission_load(self) -> float:
        """The admission load signal: worst outgoing priority-queue
        occupancy as a fraction of its capacity.  The bottleneck link is
        what overload control must protect, so the max (not the mean)
        drives the watermarks."""
        capacity = self.config.priority_queue_capacity
        worst = 0
        for link in self.links.values():
            backlog = len(link.priority_queue)
            if backlog > worst:
                worst = backlog
        return worst / capacity

    def send_reliable(
        self,
        dest: NodeId,
        size_bytes: int = 1000,
        method: Optional[DisseminationMethod] = None,
        payload: Any = None,
    ) -> bool:
        """Inject one Reliable Messaging message; False under back-pressure."""
        if self.crashed:
            raise ProtocolError(f"node {self.node_id!r} is crashed")
        if not self.reliable.can_send(dest):
            return False
        method = method or DisseminationMethod.flooding()
        message = Message(
            source=self.node_id,
            dest=dest,
            seq=self.reliable.next_seq(dest),
            semantics=Semantics.RELIABLE,
            size_bytes=size_bytes,
            flooding=method.is_flooding,
            paths=None if method.is_flooding else self._compute_paths(dest, method.k),
            sent_at=self.sim.now,
            payload=payload,
        ).sign(self.pki)
        accepted = self.reliable.try_send(message)
        if accepted:
            self.stats.counter("messages_injected").add()
            if self.cpu.enabled:
                self.cpu.execute(self.cpu.costs.rsa_sign, lambda: None)
        return accepted

    def reliable_can_send(self, dest: NodeId) -> bool:
        """Whether a reliable send to ``dest`` would currently be accepted."""
        return not self.crashed and self.reliable.can_send(dest)

    def _compute_paths(self, dest: NodeId, k: int) -> Tuple[Tuple[NodeId, ...], ...]:
        # The routing state hands out one shared tuple per (view, flow, k):
        # every message of a flow carries the identical object, which keeps
        # the route computation and downstream successor scans memoized.
        paths = self.routing.k_paths_tuple(self.node_id, dest, k)
        if not paths:
            raise ProtocolError(f"no path from {self.node_id!r} to {dest!r}")
        return paths

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------
    def on_link_deliver(self, neighbor: NodeId, payload: Any, size: int) -> None:
        """Entry point for every payload delivered by a PoR link."""
        if self.crashed:
            return
        if not self._behavior_passthrough:
            payload = self._behavior.filter_incoming(payload, neighbor, self)
            if payload is None:
                return
        if neighbor not in self._neighbor_set:
            # "Overlay nodes only accept messages from their direct
            # neighbors in the MTMW."  A redistributed MTMW itself is
            # still accepted (it is admin-signed and replay-protected,
            # and the sender may hold a fresher topology than we do).
            if not isinstance(payload, Mtmw):
                self.non_neighbor_rejected += 1
                return
        if not self.cpu.enabled:
            self._dispatch(payload, neighbor)
            return
        # Duplicate copies take the cheap path: recognized by the dedup
        # state *before* any expensive work (and before signature
        # verification — only verified messages populate the dedup state,
        # so this cannot be used to suppress genuine traffic).
        if isinstance(payload, Message) and self._is_known_duplicate(payload):
            self.cpu.execute(
                self.cpu.costs.duplicate_packet, self._dispatch_duplicate, payload, neighbor
            )
            return
        # Bounded input queues: when the CPU is overloaded, best-effort
        # (priority) data is dropped rather than queued forever; reliable
        # data and control traffic are flow-controlled and rate-limited,
        # so their volume is already bounded.
        if (
            isinstance(payload, Message)
            and payload.semantics is Semantics.PRIORITY
            and self.cpu.backlog() > CPU_DROP_BACKLOG
        ):
            self.cpu.overload_drops += 1
            self.stats.counter("cpu_overload_drops").add()
            return
        self.cpu.execute(
            self.cpu.costs.process_packet + self.cpu.costs.hmac,
            self._dispatch,
            payload,
            neighbor,
        )

    def _is_known_duplicate(self, message: Message) -> bool:
        if message.semantics is Semantics.PRIORITY:
            return self.metadata.seen(message.uid, self.sim.now)
        state = self.reliable.flows.get(message.flow)
        return state is not None and message.seq <= state.stored_h

    def _dispatch_duplicate(self, message: Message, neighbor: NodeId) -> None:
        if self.crashed:
            return
        if message.semantics is Semantics.PRIORITY:
            self.priority.note_duplicate(message, neighbor)
        else:
            self.reliable.note_duplicate(message, neighbor)

    def _dispatch(self, payload: Any, neighbor: NodeId) -> None:
        if self.crashed:
            return
        if isinstance(payload, Message):
            # Data is the hot path: with the CPU model disabled, run the
            # verify-and-handle sequence inline instead of paying two
            # extra frames (_charge_verify -> _handle_data) per packet.
            if self.cpu.enabled:
                self.cpu.verify(self._handle_data, payload, neighbor)
            elif not payload.verify(self.pki):
                self._note_invalid(neighbor)
            elif payload.semantics is Semantics.PRIORITY:
                self.priority.handle(payload, neighbor)
            else:
                self.reliable.handle(payload, neighbor)
        elif isinstance(payload, NeighborAck):
            self.reliable.handle_neighbor_ack(payload, neighbor)
        elif isinstance(payload, E2eAck):
            self._charge_verify(self._handle_e2e_ack, payload, neighbor)
        elif isinstance(payload, LinkStateUpdate):
            self._charge_verify(self._handle_link_state, payload, neighbor)
        elif isinstance(payload, Mtmw):
            self._charge_verify(self.adopt_mtmw, payload, neighbor)
        elif isinstance(payload, StateRequest):
            self._handle_state_request(payload, neighbor)
        elif isinstance(payload, AdmissionNack):
            self._handle_admission_nack(payload, neighbor)

    def _charge_verify(self, handler: Callable[..., None], *args: Any) -> None:
        if self.cpu.enabled:
            self.cpu.verify(handler, *args)
        else:
            handler(*args)

    def _note_invalid(self, neighbor: NodeId) -> None:
        """Count an invalid signature, attributed to the delivering link
        (the adaptive defense folds per-neighbor counts into beliefs)."""
        self.invalid_messages_rejected += 1
        self.stats.counter("invalid_signatures").add()
        link = self.links.get(neighbor)
        if link is not None:
            link.invalid_rx += 1

    def _handle_data(self, message: Message, neighbor: NodeId) -> None:
        if self.crashed:
            return
        if not message.verify(self.pki):
            self._note_invalid(neighbor)
            return
        if message.semantics is Semantics.PRIORITY:
            self.priority.handle(message, neighbor)
        else:
            self.reliable.handle(message, neighbor)

    def _handle_e2e_ack(self, ack: E2eAck, neighbor: NodeId) -> None:
        if self.crashed:
            return
        if not ack.verify(self.pki):
            self.invalid_messages_rejected += 1
            return
        self.reliable.handle_e2e_ack(ack, neighbor)

    def _handle_link_state(self, update: LinkStateUpdate, neighbor: NodeId) -> None:
        if self.crashed:
            return
        result = self.routing.apply_update(update, now=self.sim.now)
        self.stats.counter(f"routing.update.{result.value}").add()
        if result is UpdateResult.ACCEPTED:
            for other, link in self.links.items():
                if other != neighbor:
                    link.enqueue_control(update, UPDATE_WIRE_SIZE)
                    link.pump()

    def _handle_state_request(self, request: StateRequest, neighbor: NodeId) -> None:
        link = self.links.get(neighbor)
        if link is None or request.sender != neighbor:
            return
        # Rewind all sending cursors: the neighbor lost its soft state.
        link.reliable = ReliableLinkState(self.config.reliable_buffer)
        for dest_ack in self.reliable.latest_acks.values():
            link.enqueue_control(dest_ack, dest_ack.wire_size)
        self.reliable.reactivate_link(link)
        link.pump()

    # ------------------------------------------------------------------
    # Local delivery
    # ------------------------------------------------------------------
    def deliver_local(self, message: Message) -> None:
        """Deliver a message addressed to this node: record stats, call the app."""
        now = self.sim.now
        key = (message.source, message.dest, message.priority)
        meters = self._delivery_meters.get(key)
        if meters is None:
            stats = self.stats
            flow_name = f"{message.source}->{message.dest}"
            meters = self._delivery_meters[key] = (
                stats.goodput(f"flow:{flow_name}"),
                stats.goodput("delivered"),
                stats.latency(f"latency:{flow_name}"),
                stats.counter("messages_delivered"),
                stats.series(f"priority-count:{flow_name}:{message.priority}"),
            )
        flow_goodput, delivered, flow_latency, count, priority_count = meters
        flow_goodput.record(message.size_bytes)
        delivered.record(message.size_bytes)
        flow_latency.record(now, now - message.sent_at)
        count.add()
        priority_count.record(now, 1.0)
        for observer in self.delivery_observers:
            observer(message, self)
        if self.on_deliver is not None:
            self.on_deliver(message)

    # ------------------------------------------------------------------
    # Timers: E2E ACK generation and link monitoring
    # ------------------------------------------------------------------
    def _e2e_tick(self) -> None:
        if not self.crashed:
            self.reliable.generate_e2e_ack()

    def _hello_tick(self) -> None:
        if self.crashed:
            return
        self._hello_stamp += 1
        hello = Hello(self.node_id, self._hello_stamp)
        for neighbor, link in self.links.items():
            # Quarantined links are served by their backoff probe loop
            # instead of the regular beacon — a dead neighbor shouldn't
            # cost full hello bandwidth forever.
            if link.monitor_up and self.mtmw.are_neighbors(self.node_id, neighbor):
                link.send_hello(hello)
        self._check_link_liveness()
        self.reliable.check_stalls()

    def _check_link_liveness(self) -> None:
        now = self.sim.now
        for neighbor, link in self.links.items():
            if not self.mtmw.are_neighbors(self.node_id, neighbor):
                continue  # administratively removed from the topology
            alive = (
                now - link.last_heard
                <= self.config.hello_timeout * link.timeout_scale
            )
            if link.monitor_up:
                if not alive:
                    self._quarantine_link(neighbor, link)
            elif not alive:
                # Went silent again during probation; restart the clock.
                if link.probation_since is not None:
                    link.probation_failures += 1
                    self.stats.counter("link_probation_failures").add()
                link.probation_since = None
            elif (
                link.probation_since is not None
                and now - link.probation_since
                >= QUARANTINE_PROBATION * link.probation_scale
            ):
                self._reinstate_link(neighbor, link)

    def _quarantine_link(self, neighbor: NodeId, link: LinkSender) -> None:
        """Mark a silent link failed and switch to backoff probing."""
        link.monitor_up = False
        link.quarantined_at = self.sim.now
        link.probation_since = None
        link.probe_interval = PROBE_BACKOFF_INITIAL
        link.quarantine_count += 1
        self.stats.counter("link_quarantines").add()
        self._issue_link_update(neighbor, FAILED_WEIGHT)
        self._schedule_probe(link)

    def _reinstate_link(self, neighbor: NodeId, link: LinkSender) -> None:
        """Probation passed: restore the link's weight and resume service."""
        if link.quarantined_at is not None:
            dwell = self.sim.now - link.quarantined_at
            self.stats.series("link-quarantine-seconds").record(self.sim.now, dwell)
            # Per-neighbor dwell series + aggregate gauge: `repro stats`
            # reports quarantine downtime budgets from these.
            self.stats.series(f"quarantine-dwell:{neighbor}").record(
                self.sim.now, dwell
            )
            self.stats.gauge("quarantine.dwell_seconds_total").add(dwell)
        link.monitor_up = True
        link.quarantined_at = None
        link.probation_since = None
        link.probe_interval = PROBE_BACKOFF_INITIAL
        link.cancel_probe()
        link.reinstatements += 1
        self.stats.counter("link_reinstatements").add()
        self._issue_link_update(
            neighbor, self.mtmw.min_weight(self.node_id, neighbor)
        )
        # Beacon immediately: the peer's probation clock should not have
        # to wait out our next hello tick.
        self._hello_stamp += 1
        link.send_hello(Hello(self.node_id, self._hello_stamp))
        link.pump()

    def _schedule_probe(self, link: LinkSender) -> None:
        link.cancel_probe()
        jitter = 1.0 + PROBE_JITTER * (2.0 * self._probe_rng.random() - 1.0)
        link._probe_event = self.sim.schedule(
            link.probe_interval * jitter, self._probe_link, link.neighbor
        )

    def _probe_link(self, neighbor: NodeId) -> None:
        link = self.links.get(neighbor)
        if link is None:
            return
        link._probe_event = None
        if self.crashed or link.monitor_up:
            return
        if not self.mtmw.are_neighbors(self.node_id, neighbor):
            return  # administratively removed; stop probing
        self._hello_stamp += 1
        link.send_hello(Hello(self.node_id, self._hello_stamp))
        link.probes_sent += 1
        link.probe_interval = min(
            link.probe_interval * PROBE_BACKOFF_FACTOR,
            PROBE_BACKOFF_MAX,
        )
        self._schedule_probe(link)

    def quarantined_neighbors(self) -> list:
        """Neighbors whose link this node currently holds in quarantine."""
        return [
            neighbor for neighbor, link in self.links.items() if not link.monitor_up
        ]

    def set_link_vigilance(
        self,
        neighbor: NodeId,
        timeout_scale: float = 1.0,
        probation_scale: float = 1.0,
    ) -> None:
        """Adaptive-defense hook: scale liveness thresholds toward one
        neighbor.  ``timeout_scale < 1`` quarantines a silent link
        faster; ``probation_scale > 1`` makes it earn reinstatement for
        longer.  ``(1.0, 1.0)`` restores the configured thresholds."""
        link = self.links.get(neighbor)
        if link is None:
            return
        link.timeout_scale = timeout_scale
        link.probation_scale = probation_scale

    def _issue_link_update(self, neighbor: NodeId, weight: float) -> None:
        self._ls_seqno += 1
        self.stats.counter("routing.updates_issued").add()
        update = self.routing.make_update(self.node_id, neighbor, weight, self._ls_seqno)
        self.routing.apply_update(update, now=self.sim.now)
        for link in self.links.values():
            link.enqueue_control(update, UPDATE_WIRE_SIZE)
            link.pump()

    # ------------------------------------------------------------------
    # Receive wakeups (live substrate)
    # ------------------------------------------------------------------
    def begin_wakeup(self) -> None:
        """The node's transport starts processing a burst of received
        datagrams without returning to the event loop in between.

        Under constrained flooding most of a burst is copies of the same
        few messages from different neighbors.  Forwarding the first copy
        at once sends it to neighbors whose own copy sits a few datagrams
        further down the same burst; so until :meth:`end_wakeup` the
        Priority engine parks each new flooded message and notes which
        neighbors it then hears the message from.  Nothing waits across
        loop iterations: the burst is processed back to back and the
        forwards leave before the transport returns to the loop.
        """
        self.parked = {}

    def end_wakeup(self) -> None:
        """Forward what the wakeup parked, each message once, to the
        neighbors not heard sending it."""
        parked, self.parked = self.parked, None
        if parked:  # (a crash in between emptied it)
            self.priority.forward_parked(parked.values())

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all soft state and stop participating."""
        self.crashed = True
        if self.parked is not None:
            self.parked = {}
        self.metadata = MetadataStore()
        self.reliable.reset()
        if self.admission is not None:
            self.admission.clear()
        for link in self.links.values():
            link.control.clear()
            link.priority_queue = PriorityLinkQueue(self.config.priority_queue_capacity)
            link.reliable = ReliableLinkState(self.config.reliable_buffer)
            link.cancel_probe()

    def recover(self) -> None:
        """Restart: reset link sessions and ask neighbors for state."""
        self.crashed = False
        for link in self.links.values():
            link.por.reset()
            link.last_heard = self.sim.now
            if not link.monitor_up:
                # Resume the probe loop for links quarantined before the
                # crash; probation will reinstate them once healthy.
                link.probe_interval = PROBE_BACKOFF_INITIAL
                self._schedule_probe(link)
            request = StateRequest(self.node_id)
            link.enqueue_control(request, StateRequest.WIRE_SIZE)
            link.pump()

    def __repr__(self) -> str:  # pragma: no cover
        return f"OverlayNode({self.node_id!r}, links={sorted(map(str, self.links))})"
