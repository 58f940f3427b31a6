"""Boot, drive, and tear down a live N-node overlay on localhost UDP.

:class:`LiveDeployment` is the live counterpart of
:class:`repro.workloads.experiment.Deployment`: it assembles the *same*
protocol stack — :class:`~repro.overlay.node.OverlayNode`, Proof-of-
Receipt links, priority + reliable messaging, link-state routing over an
administrator-signed MTMW — but wires every node to a real UDP socket
(:mod:`repro.runtime.transport`) driven by a real asyncio event loop
(:class:`~repro.runtime.scheduler.AsyncioScheduler`).  No protocol logic
is forked: the only substitution is the substrate behind the
Clock/Scheduler/Transport seam (:mod:`repro.runtime.interfaces`).

One :class:`NodeProcess` per overlay node owns the node's socket, its
:class:`~repro.sim.stats.StatsRegistry` (so telemetry is collected *per
node*, as a real deployment would), and its PoR endpoints.  Traffic is
injected by the stock :class:`repro.workloads.traffic.CbrTraffic`
generators — they only use the ``sim`` / ``node()`` duck type, so they
drive wall-clock runs unchanged.

Shutdown is graceful on both timeout and SIGINT: traffic stops, the run
drains in-flight messages, every scheduled callback is cancelled, and
all sockets close before the report is built.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clients.generators import (
    ClientTier,
    ClientWorkloadConfig,
    ranked_destinations,
)
from repro.clients.session import SessionTier, SessionWorkloadConfig
from repro.crypto.pki import Pki
from repro.errors import ConfigurationError, LiveRuntimeError
from repro.faults.invariants import InvariantMonitor
from repro.faults.schedule import ChaosSpec, FaultSchedule
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.node import OverlayNode
from repro.runtime.chaos import (
    ChaosUdpTransport,
    DatagramFaultInjector,
    LiveChaosEngine,
)
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.supervision import NodeSupervisor, SupervisionConfig
from repro.runtime.transport import AsyncioUdpTransport
from repro.sim.stats import StatsRegistry
from repro.topology import generators
from repro.topology.graph import NodeId, Topology
from repro.topology.mtmw import Mtmw
from repro.workloads.traffic import CbrTraffic

#: Cap on recorded runtime errors: a poisoned receive handler fires per
#: datagram, and an unbounded error list would dwarf the report.
MAX_RUNTIME_ERRORS = 50

#: Per-socket transport counters summed into a report's ``transport`` row.
TRANSPORT_COUNTERS = (
    "datagrams_received",
    "bytes_received",
    "decode_errors",
    "misdirected",
    "unknown_sender",
    "encode_errors",
    "dispatch_errors",
    "send_errors",
    "send_retries",
    "send_drops",
    "datagrams_drained",
)

#: ``LiveConfig.chaos_preset`` values -> schedule factories.
CHAOS_PRESETS = {
    "link": ChaosSpec.link_level,
    "full": ChaosSpec.full,
    "soak": ChaosSpec.live_soak,
}


@dataclass(frozen=True)
class LiveConfig:
    """Tunables of a live localhost run.

    ``duration`` covers injection plus a trailing ``drain`` window during
    which no new traffic is offered so in-flight messages can land (the
    delivery ratio is measured over everything injected).
    """

    nodes: int = 4
    duration: float = 5.0
    seed: int = 0
    method: DisseminationMethod = field(default_factory=DisseminationMethod.flooding)
    rate_msgs_per_sec: float = 20.0
    size_bytes: int = 256
    host: str = "127.0.0.1"
    drain: float = 1.5
    overlay: OverlayConfig = field(default_factory=OverlayConfig)
    #: When set, every flow injects exactly this many messages and then
    #: stops on its own (the sim-vs-live conformance test uses this to
    #: offer the identical message set to both substrates).
    messages_per_flow: Optional[int] = None
    #: False disables the built-in CBR flow plan entirely (a scripted or
    #: client-tier driver offers the load instead).
    flow_traffic: bool = True
    #: When set, a :class:`~repro.clients.generators.ClientTier`
    #: population workload (diurnal Poisson arrivals, Zipf fan-in,
    #: heavy-tailed bursts) runs on top of — or instead of — the flow
    #: plan, offered through each node's admission stage when
    #: ``overlay.admission`` is configured.
    clients: Optional[ClientWorkloadConfig] = None
    #: When set, a :class:`~repro.clients.session.SessionTier` — the
    #: client-side reliability state machine (deadlines, budgeted
    #: retries, idempotency keys + destination dedup, ingress failover
    #: behind circuit breakers) — runs its request/ack workload over
    #: the live wire path.  The tier's client-visible outcome
    #: accounting lands in ``report().sessions``.
    sessions: Optional[SessionWorkloadConfig] = None
    #: An explicit fault schedule to inject (wins over ``chaos_preset``).
    chaos: Optional[FaultSchedule] = None
    #: Or a named :class:`~repro.faults.schedule.ChaosSpec` preset
    #: ("link", "full", "soak") generated over the run's inject window
    #: from the run seed.
    chaos_preset: Optional[str] = None
    chaos_intensity: float = 1.0
    #: Restart policy for the always-on node supervisor.
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    #: Proactive-recovery mode: ``None`` (no rotation), ``"fixed"``
    #: (staggered schedule through the defense engine's baseline path),
    #: or ``"adaptive"`` (belief-driven feedback controller).  The
    #: cadence comes from ``overlay.defense`` (recovery_period /
    #: recovery_downtime).
    recovery: Optional[str] = None
    #: Arm the sim's InvariantMonitor (dedup / ordering / quarantine
    #: routing) against the live deployment.
    monitor_invariants: bool = True
    invariant_check_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ConfigurationError("a live overlay needs at least 2 nodes")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.rate_msgs_per_sec <= 0:
            raise ConfigurationError("rate must be positive")
        if self.size_bytes < 1:
            raise ConfigurationError("size_bytes must be >= 1")
        if self.messages_per_flow is not None and self.messages_per_flow < 1:
            raise ConfigurationError("messages_per_flow must be >= 1 when set")
        if self.chaos_preset is not None and self.chaos_preset not in CHAOS_PRESETS:
            raise ConfigurationError(
                f"unknown chaos preset {self.chaos_preset!r} "
                f"(known: {', '.join(sorted(CHAOS_PRESETS))})"
            )
        if self.chaos is not None and self.chaos_preset is not None:
            raise ConfigurationError(
                "set either an explicit chaos schedule or a preset, not both"
            )
        if self.chaos_intensity <= 0:
            raise ConfigurationError("chaos_intensity must be positive")
        if self.recovery not in (None, "fixed", "adaptive"):
            raise ConfigurationError(
                f"recovery must be None, 'fixed', or 'adaptive' "
                f"(got {self.recovery!r})"
            )
        if self.invariant_check_interval <= 0:
            raise ConfigurationError("invariant_check_interval must be positive")

    @property
    def inject_seconds(self) -> float:
        """How long traffic is offered before the drain window."""
        return max(self.duration - min(self.drain, 0.4 * self.duration), 0.1)


class NodeProcess:
    """One live overlay node: socket, stats registry, protocol stack."""

    def __init__(
        self,
        node_id: NodeId,
        scheduler: AsyncioScheduler,
        transport: AsyncioUdpTransport,
        overlay: OverlayNode,
        stats: StatsRegistry,
    ):
        self.node_id = node_id
        self.scheduler = scheduler
        self.transport = transport
        self.overlay = overlay
        self.stats = stats

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) this node's UDP socket is bound to."""
        return self.transport.local_address

    def snapshot(self) -> Dict[str, Any]:
        """This node's full telemetry snapshot (counters, meters, series)."""
        return self.stats.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeProcess({self.node_id!r} @ {self.transport.local_address})"


@dataclass
class FlowOutcome:
    """Per-flow delivery outcome of a live run."""

    source: NodeId
    dest: NodeId
    semantics: str
    sent: int
    delivered: int
    mean_latency: Optional[float]

    @property
    def ratio(self) -> float:
        return 1.0 if self.sent == 0 else self.delivered / self.sent


@dataclass
class LiveReport:
    """Aggregate outcome of one live run (JSON-serializable)."""

    nodes: int
    duration: float
    seed: int
    method: str
    interrupted: bool
    wall_seconds: float
    flows: List[FlowOutcome]
    per_node: Dict[str, Dict[str, Any]]
    transport: Dict[str, int]
    runtime_errors: List[str]
    #: Chaos/supervision/invariant summaries; None when that machinery
    #: was not armed for the run.
    chaos: Optional[Dict[str, Any]] = None
    supervision: Optional[Dict[str, Any]] = None
    invariants: Optional[Dict[str, Any]] = None
    #: Adaptive-defense summary; None when no defense controller ran.
    adaptive: Optional[Dict[str, Any]] = None
    #: Client-tier offer accounting + aggregated per-node admission
    #: counters; None when neither a client tier nor an admission stage
    #: was configured.
    admission: Optional[Dict[str, Any]] = None
    #: Session-tier client-visible outcome accounting (success ratio,
    #: retry amplification, failovers, invariant violations); None when
    #: no session tier was configured.
    sessions: Optional[Dict[str, Any]] = None
    #: Set when a node-attributed runtime failure occurred (a raising
    #: receive handler, an unhandled loop exception): the run's results
    #: are suspect even if delivery looks fine.
    failed: bool = False

    def _ratio(self, semantics: Optional[str] = None) -> float:
        flows = [
            f for f in self.flows if semantics is None or f.semantics == semantics
        ]
        sent = sum(f.sent for f in flows)
        delivered = sum(f.delivered for f in flows)
        return 1.0 if sent == 0 else delivered / sent

    @property
    def delivery_ratio(self) -> float:
        """Delivered / injected over every flow."""
        return self._ratio()

    @property
    def priority_ratio(self) -> float:
        return self._ratio(Semantics.PRIORITY.value)

    @property
    def reliable_ratio(self) -> float:
        return self._ratio(Semantics.RELIABLE.value)

    @property
    def faulted_node_ids(self) -> set:
        """Nodes (as strings) that crashed or sat inside a partition side
        during the run — the non-correct endpoints a delivery gate must
        not hold the overlay accountable for."""
        faulted: set = set()
        if self.supervision:
            faulted.update(self.supervision.get("crashed_nodes", ()))
        if self.chaos:
            faulted.update(self.chaos.get("faulted_nodes", ()))
        return faulted

    @property
    def correct_flows(self) -> List[FlowOutcome]:
        """Flows between nodes that stayed correct the whole run."""
        faulted = self.faulted_node_ids
        return [
            f for f in self.flows
            if str(f.source) not in faulted and str(f.dest) not in faulted
        ]

    @property
    def correct_flow_ratio(self) -> float:
        """Delivered / injected over flows between correct nodes — the
        paper's guarantee (and the soak gate) is about these; flows whose
        endpoint lost state or connectivity wholesale are reported but
        not gated."""
        flows = self.correct_flows
        sent = sum(f.sent for f in flows)
        delivered = sum(f.delivered for f in flows)
        return 1.0 if sent == 0 else delivered / sent

    @property
    def violations(self) -> int:
        return self.invariants.get("violations", 0) if self.invariants else 0

    @property
    def ok(self) -> bool:
        """No runtime failures and no invariant violations."""
        return not self.failed and not self.runtime_errors and self.violations == 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (written by ``repro live --output``)."""
        return {
            "nodes": self.nodes,
            "duration": self.duration,
            "seed": self.seed,
            "method": self.method,
            "interrupted": self.interrupted,
            "wall_seconds": self.wall_seconds,
            "delivery_ratio": self.delivery_ratio,
            "priority_ratio": self.priority_ratio,
            "reliable_ratio": self.reliable_ratio,
            "flows": [
                {
                    "source": f.source,
                    "dest": f.dest,
                    "semantics": f.semantics,
                    "sent": f.sent,
                    "delivered": f.delivered,
                    "ratio": f.ratio,
                    "mean_latency": f.mean_latency,
                }
                for f in self.flows
            ],
            "per_node": self.per_node,
            "transport": self.transport,
            "runtime_errors": self.runtime_errors,
            "correct_flow_ratio": self.correct_flow_ratio,
            "faulted_nodes": sorted(self.faulted_node_ids),
            "chaos": self.chaos,
            "supervision": self.supervision,
            "invariants": self.invariants,
            "adaptive": self.adaptive,
            "admission": self.admission,
            "sessions": self.sessions,
            "failed": self.failed,
            "ok": self.ok,
        }


def flow_plan(node_ids: List[NodeId]) -> List[Tuple[NodeId, NodeId, Semantics]]:
    """The deployment's traffic matrix: one CBR flow per node, aimed
    roughly across the overlay, alternating priority/reliable semantics.

    Factored out so the sim-vs-live conformance test can offer the
    *identical* flow set to an :class:`~repro.overlay.network.OverlayNetwork`
    and a :class:`LiveDeployment`.
    """
    n = len(node_ids)
    plan: List[Tuple[NodeId, NodeId, Semantics]] = []
    for index, source in enumerate(node_ids):
        dest = node_ids[(index + max(1, n // 2)) % n]
        if dest == source:
            continue
        semantics = Semantics.PRIORITY if index % 2 == 0 else Semantics.RELIABLE
        plan.append((source, dest, semantics))
    return plan


def live_topology(n: int) -> Topology:
    """The localhost lab topology: small cliques, chordal rings beyond.

    Weights are 1 ms — routing needs *some* administrator-signed minimum
    weight, but real latency on loopback is what it is.
    """
    if n <= 4:
        return generators.clique(n, weight=0.001)
    return generators.chordal_ring(n, chords=2, weight=0.001)


def preset_schedule(config: Any, topology: Topology) -> Optional[FaultSchedule]:
    """The named ``config.chaos_preset`` generated over the run's inject
    window from the run seed (None without a preset).  ``config`` is a
    :class:`LiveConfig` or a cluster's ``ClusterConfig``."""
    if config.chaos_preset is None:
        return None
    spec = CHAOS_PRESETS[config.chaos_preset](
        duration=config.inject_seconds, intensity=config.chaos_intensity
    )
    return spec.generate(topology, seed=config.seed)


class LiveDeployment:
    """A fully wired live overlay on localhost (see module docstring).

    Usage (inside a running event loop)::

        deployment = LiveDeployment(LiveConfig(nodes=4, duration=5.0))
        await deployment.start()
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        report = deployment.report()

    Or synchronously: :func:`run_live`.
    """

    def __init__(self, config: Optional[LiveConfig] = None):
        self.config = config or LiveConfig()
        self.topology = live_topology(self.config.nodes)
        self.scheduler: Optional[AsyncioScheduler] = None
        self.pki: Optional[Pki] = None
        self.mtmw: Optional[Mtmw] = None
        #: The nodes this deployment binds sockets and runs stacks for;
        #: None means every topology node, resolved in :meth:`start`
        #: (callers assign ``topology`` after construction).  A cluster
        #: shard hosts a slice; ``topology``/``pki``/``mtmw`` always
        #: cover the full overlay.
        self.local_nodes: Optional[List[NodeId]] = None
        #: Shared clock origin (None: this loop's "now"); cluster shards
        #: set the coordinator-distributed epoch.
        self.epoch: Optional[float] = None
        #: Source every Nth flow of the plan (every process hosting part
        #: of the overlay computes the same plan, so a stride selects the
        #: same flows everywhere).
        self.flow_stride = 1
        #: Names the session tier's RNG stream and idempotency keys;
        #: distinct per shard of a cluster.
        self.tier_name = "sessions"
        self.processes: Dict[NodeId, NodeProcess] = {}
        #: node -> (host, port) of every node this deployment wires
        #: links to: the local binds, plus whatever :meth:`_after_bind`
        #: learned about remote ones.
        self.addresses: Dict[NodeId, Tuple[str, int]] = {}
        self._stats: Optional[StatsRegistry] = None
        self.traffic: List[CbrTraffic] = []
        self.client_tier: Optional[ClientTier] = None
        self.session_tier: Optional[SessionTier] = None
        self._interrupted = False
        self._started_at: Optional[float] = None
        self._stopped = False
        self._runtime_errors: List[str] = []
        self._errors_dropped = 0
        self._failed = False
        # Fault machinery (wired in start()).
        self.supervisor: Optional[NodeSupervisor] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.injector: Optional[DatagramFaultInjector] = None
        self.chaos_engine: Optional[LiveChaosEngine] = None
        self.chaos_schedule: Optional[FaultSchedule] = None
        self.defense: Optional[Any] = None

    # ------------------------------------------------------------------
    # Duck-type parity with OverlayNetwork / Deployment
    # ------------------------------------------------------------------
    @property
    def sim(self) -> AsyncioScheduler:
        """The shared scheduler (named ``sim`` for generator duck-typing)."""
        if self.scheduler is None:
            raise LiveRuntimeError("deployment not started")
        return self.scheduler

    def node(self, node_id: NodeId) -> OverlayNode:
        """The overlay node for ``node_id`` (generator duck-typing)."""
        return self.processes[node_id].overlay

    @property
    def nodes(self) -> Dict[NodeId, OverlayNode]:
        """Overlay nodes keyed by id (InvariantMonitor duck-typing)."""
        return {
            node_id: process.overlay
            for node_id, process in self.processes.items()
        }

    @property
    def stats(self) -> StatsRegistry:
        """The deployment-wide registry (ChaosEngine duck-typing): the
        one the shared PKI's crypto counters were attached to."""
        if self._stats is None:
            raise LiveRuntimeError("deployment not started")
        return self._stats

    def crash(self, node_id: NodeId) -> None:
        """Lose a node's overlay soft state (supervisor kill path).
        Plain instance method so an armed InvariantMonitor can wrap it
        exactly as it wraps :meth:`OverlayNetwork.crash`."""
        self.processes[node_id].overlay.crash()

    def recover(self, node_id: NodeId) -> None:
        """Re-initialize a node's overlay state after a restart."""
        self.processes[node_id].overlay.recover()

    def announce_restart(self, node_id: NodeId, address: Any) -> None:
        """Supervisor hook after a node rebinds.  All neighbors live in
        this process for a single-loop deployment, so the supervisor's
        direct re-pointing already covered them; a sharded cluster
        deployment extends this to relay the new address to remote
        shards over the control plane."""
        self.addresses[node_id] = (address[0], int(address[1]))

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind sockets, wire links, arm timers, and start traffic.

        Partial-failure safe: if any node's bind or link wiring fails,
        everything already started is torn down (via the idempotent
        :meth:`stop`) before the error propagates — a failed boot never
        leaks bound sockets or armed timers.
        """
        if self.scheduler is not None:
            raise LiveRuntimeError("deployment already started")
        try:
            await self._boot()
        except BaseException:
            await self.stop()
            raise

    async def _boot(self) -> None:
        config = self.config
        loop = asyncio.get_event_loop()
        loop.set_exception_handler(self._on_loop_exception)
        self.scheduler = AsyncioScheduler(
            seed=config.seed, loop=loop, epoch=self.epoch
        )
        self.pki = Pki(mode=config.overlay.crypto.pki_mode, seed=config.seed)
        for node_id in self.topology.nodes:
            self.pki.register(node_id)
        self.mtmw = Mtmw.create(self.topology, self.pki)
        # The run's fault schedule: explicit, from a preset, or none.
        self.chaos_schedule = config.chaos
        if self.chaos_schedule is None:
            self.chaos_schedule = preset_schedule(config, self.topology)
        if self.chaos_schedule is not None:
            self.injector = DatagramFaultInjector(
                self.scheduler.rngs.stream("live-chaos")
            )
        if self.local_nodes is None:
            self.local_nodes = sorted(self.topology.nodes)

        # Phase 1: bind every local node's socket (ephemeral ports: the
        # OS guarantees no collisions, and the MTMW does not care about
        # port numbers).
        for node_id in sorted(self.local_nodes):
            await self._boot_node(node_id)
        self.addresses = {
            node_id: process.address
            for node_id, process in self.processes.items()
        }
        await self._after_bind()

        # Phase 2: now that every address is known, wire one PoR half per
        # (local endpoint, MTMW edge), exactly as the simulator's builder
        # does — only the channels are UDP halves instead of simulated
        # pipes, and a remote half lives in whichever process hosts the
        # other end.
        for a, b in self.topology.edges():
            for local, remote in ((a, b), (b, a)):
                if local in self.processes:
                    self._wire_half(local, remote, self.addresses[remote])
        for process in self.processes.values():
            process.overlay.start()

        # Safety + fault machinery.  Order matters: the monitor wraps
        # this deployment's crash/recover first, so every supervised kill
        # and restart passes through its state-loss bookkeeping.
        if config.monitor_invariants:
            self.monitor = InvariantMonitor(
                self, check_interval=config.invariant_check_interval
            )
            self.monitor.arm()
        self.supervisor = NodeSupervisor(self, config.supervision)
        self.supervisor.arm()
        if self.chaos_schedule is not None:
            assert self.injector is not None
            self.chaos_engine = LiveChaosEngine(
                self, self.chaos_schedule, self.injector, self.supervisor
            )
        await self._before_traffic()
        if self.chaos_engine is not None:
            self.chaos_engine.arm()
        if config.recovery is not None:
            # The feedback-controlled defense runs the proactive-recovery
            # rotation on the live substrate too: beliefs come from the
            # same per-node instruments the sim reads, plus live-only
            # transport drop and unexpected-restart counters.
            from repro.resilience.adaptive import (
                AdaptiveDefense,
                LiveRecoveryActuator,
            )

            self.defense = AdaptiveDefense(
                self,
                LiveRecoveryActuator(self),
                config=config.overlay.defense,
                adaptive=(config.recovery == "adaptive"),
                monitor=self.monitor,
                extra_signals=self._defense_signals,
            )
            self.defense.start()

        self._started_at = loop.time()
        self._start_traffic()

    async def _after_bind(self) -> None:
        """Boot hook: the local sockets are bound and ``addresses`` holds
        them; nothing is wired yet.  A cluster shard trades addresses
        with the other shards here."""

    async def _before_traffic(self) -> None:
        """Boot hook: every node is wired, started and supervised; chaos
        is not armed and no traffic flows yet.  A cluster shard waits
        here for the cluster-wide START."""

    async def _boot_node(self, node_id: NodeId) -> None:
        """Bind one local node's socket and build its protocol stack."""
        config = self.config
        stats = StatsRegistry(self.scheduler)
        if self._stats is None:
            # The PKI is shared process-wide, so its crypto-op counters
            # can only live in one registry; credit them to the first
            # node booted (attach_metrics replaces, not adds) and make
            # that registry the deployment-wide one.
            self._stats = stats
            self.pki.attach_metrics(stats.metrics)
        if self.injector is not None:
            transport: AsyncioUdpTransport = await ChaosUdpTransport.open(
                node_id, host=config.host, metrics=stats.metrics,
                injector=self.injector,
            )
        else:
            transport = await AsyncioUdpTransport.open(
                node_id, host=config.host, metrics=stats.metrics
            )
        transport.on_dispatch_error = (
            lambda exc, _node=node_id: self._on_dispatch_error(_node, exc)
        )
        overlay = OverlayNode(
            self.scheduler, node_id, self.mtmw, self.pki, config.overlay, stats
        )
        # One socket wakeup is the node's unit of work: flooded forwards
        # are decided once at its end and leave before it returns.
        transport.on_wakeup_start = overlay.begin_wakeup
        transport.on_wakeup_end = overlay.end_wakeup
        self.processes[node_id] = NodeProcess(
            node_id, self.scheduler, transport, overlay, stats
        )

    def _wire_half(
        self, local: NodeId, remote: NodeId, address: Tuple[str, int]
    ) -> None:
        """This process's half of the PoR link ``local <-> remote``,
        with ``remote`` reachable at ``address``."""
        process = self.processes[local]
        rx = process.transport.register_peer(remote, address)
        link = process.overlay.connect(
            remote, process.transport.send_channel(remote, coalesce=True), rx
        )
        # One PoR ACK per received datagram, not per ack_coalesce frames.
        rx.on_datagram_start = link.por.begin_datagram
        rx.on_datagram_end = link.por.end_datagram

    def _defense_signals(self, node_id: NodeId) -> Dict[str, float]:
        """Live-only belief signals for one node: transport-level drops
        at its socket, and supervisor kills it did not initiate itself
        (crash faults, watchdog-detected socket deaths)."""
        process = self.processes[node_id]
        transport = process.transport
        signals: Dict[str, float] = {
            "transport.drop": float(
                transport.decode_errors
                + transport.misdirected
                + transport.unknown_sender
            ),
        }
        if self.supervisor is not None:
            record = self.supervisor.records.get(node_id)
            if record is not None:
                proactive = (
                    self.defense.proactive_downs(node_id)
                    if self.defense is not None
                    else 0
                )
                signals["supervisor.restart"] = float(
                    max(0, record.kills - proactive)
                )
        return signals

    def _start_traffic(self) -> None:
        """One CBR flow per node; alternating priority/reliable semantics.
        Client- and session-tier population workloads ride on top when
        configured.  Only locally hosted sources are driven (a flow's
        destination may be remote; delivery lands in its host's stats),
        while destination rankings span the full overlay."""
        config = self.config
        if config.flow_traffic:
            plan = flow_plan(sorted(self.topology.nodes))
            for source, dest, semantics in plan[:: self.flow_stride]:
                if source in self.processes:
                    self._launch_flow(source, dest, semantics)
        local = sorted(self.local_nodes)
        if config.clients is not None:
            self.client_tier = ClientTier(
                self,
                local,
                ranked_destinations(
                    self.sim, self.topology.nodes, "overload:dest-rank"
                ),
                config=config.clients,
                method=config.method,
            )
            self.client_tier.start()
        if config.sessions is not None:
            self.session_tier = SessionTier(
                self,
                local,
                ranked_destinations(self.sim, self.topology.nodes, "slo:dest-rank"),
                workload=config.sessions,
                name=self.tier_name,
            )
            self.session_tier.start()

    def _launch_flow(
        self, source: NodeId, dest: NodeId, semantics: Semantics
    ) -> None:
        config = self.config
        generator = CbrTraffic(
            self,  # duck-typed: CbrTraffic uses only .sim and .node()
            source,
            dest,
            rate_bps=config.rate_msgs_per_sec * config.size_bytes * 8.0,
            size_bytes=config.size_bytes,
            semantics=semantics,
            method=config.method,
            max_messages=config.messages_per_flow,
        )
        self.traffic.append(generator)
        generator.start()

    def _stop_injection(self) -> None:
        for generator in self.traffic:
            generator.stop()
        if self.client_tier is not None:
            self.client_tier.stop()
        if self.session_tier is not None:
            self.session_tier.stop()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    async def serve(self) -> bool:
        """Inject for the configured window, then drain; returns True if
        the run was interrupted by SIGINT instead of running to time."""
        config = self.config
        stop_event = asyncio.Event()
        loop = asyncio.get_event_loop()
        sigint_armed = False
        try:
            loop.add_signal_handler(signal.SIGINT, stop_event.set)
            sigint_armed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal support; timeout still applies
        try:
            self._interrupted = await self._wait(stop_event, config.inject_seconds)
            self._stop_injection()
            if not self._interrupted:
                drain = config.duration - config.inject_seconds
                self._interrupted = await self._wait(stop_event, drain)
        finally:
            if sigint_armed:
                loop.remove_signal_handler(signal.SIGINT)
        return self._interrupted

    @staticmethod
    async def _wait(stop_event: asyncio.Event, seconds: float) -> bool:
        """Wait ``seconds`` or until the event fires; True when it fired."""
        if seconds <= 0:
            return stop_event.is_set()
        try:
            await asyncio.wait_for(stop_event.wait(), timeout=seconds)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Graceful teardown: stop traffic and timers, close every socket.
        Idempotent, and safe to call after a partially failed start."""
        if self._stopped:
            return
        self._stopped = True
        self._stop_injection()
        if self.session_tier is not None:
            self.session_tier.finalize()
        if self.defense is not None:
            self.defense.stop()
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.scheduler is not None:
            self.scheduler.shutdown()
        for process in self.processes.values():
            process.transport.close()
        # Give asyncio one cycle to run transport close callbacks (and
        # the cancelled watchdog task's unwinding).
        await asyncio.sleep(0)

    def _on_loop_exception(self, loop: Any, context: Dict[str, Any]) -> None:
        """An exception escaped into the event loop: attribute it to the
        owning node where possible, record it, and fail the run."""
        message = context.get("message") or "event-loop error"
        exception = context.get("exception")
        if exception is not None:
            message = f"{message}: {type(exception).__name__}: {exception}"
        node_id = None
        for key in ("protocol", "transport"):
            owner = getattr(context.get(key), "node_id", None)
            if owner is not None and owner in self.processes:
                node_id = owner
                break
        if node_id is not None:
            message = f"node {node_id!r}: {message}"
            self.processes[node_id].stats.counter("live.loop.exceptions").add()
        self._failed = True
        self._record_error(message)

    def _on_dispatch_error(self, node_id: NodeId, exc: BaseException) -> None:
        """A receive handler raised (caught in the transport so the
        node's receive path survives): charge the owning node and fail
        the run — delivery numbers from a node that throws on receive
        prove nothing."""
        self._failed = True
        process = self.processes.get(node_id)
        if process is not None:
            process.stats.counter("live.loop.exceptions").add()
        self._record_error(
            f"node {node_id!r}: receive dispatch failed: "
            f"{type(exc).__name__}: {exc}"
        )

    def _record_error(self, message: str) -> None:
        if len(self._runtime_errors) < MAX_RUNTIME_ERRORS:
            self._runtime_errors.append(message)
        else:
            self._errors_dropped += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report_sections(self) -> Dict[str, Any]:
        """The report sections every live substrate shares — per-node
        snapshots, transport totals, capped runtime errors, and the
        chaos/supervision/invariant/session summaries — keyed as both
        :class:`LiveReport` and a cluster shard report name them."""
        transport_totals = dict.fromkeys(TRANSPORT_COUNTERS, 0)
        for process in self.processes.values():
            for key in transport_totals:
                transport_totals[key] += getattr(process.transport, key)
        runtime_errors = list(self._runtime_errors)
        if self._errors_dropped:
            runtime_errors.append(
                f"... {self._errors_dropped} further runtime error(s) dropped"
            )
        chaos_summary = None
        if self.chaos_engine is not None:
            chaos_summary = self.chaos_engine.summary()
            chaos_summary["injector"] = self.injector.summary()
            chaos_summary["schedule_counts"] = self.chaos_schedule.counts()
        return {
            "per_node": {
                str(node_id): process.snapshot()
                for node_id, process in sorted(
                    self.processes.items(), key=lambda item: str(item[0])
                )
            },
            "transport": transport_totals,
            "runtime_errors": runtime_errors,
            "chaos": chaos_summary,
            "supervision": (
                self.supervisor.summary() if self.supervisor is not None else None
            ),
            "invariants": (
                self.monitor.summary() if self.monitor is not None else None
            ),
            "sessions": (
                self.session_tier.snapshot()
                if self.session_tier is not None
                else None
            ),
            "failed": self._failed,
        }

    def report(self) -> LiveReport:
        """Build the run report from per-node telemetry registries."""
        if self.scheduler is None or self._started_at is None:
            raise LiveRuntimeError("deployment never started")
        flows: List[FlowOutcome] = []
        for generator in self.traffic:
            source, dest = generator.source, generator.dest
            recorder = self.processes[dest].stats.latency(
                f"latency:{source}->{dest}"
            )
            flows.append(
                FlowOutcome(
                    source=source,
                    dest=dest,
                    semantics=generator.semantics.value,
                    sent=generator.messages_sent,
                    delivered=recorder.count,
                    mean_latency=recorder.mean() if recorder.count else None,
                )
            )
        admission_summary: Optional[Dict[str, Any]] = None
        per_node_admission = {
            str(node_id): process.overlay.admission.snapshot()
            for node_id, process in sorted(
                self.processes.items(), key=lambda item: str(item[0])
            )
            if process.overlay.admission is not None
        }
        if per_node_admission or self.client_tier is not None:
            admission_summary = {"per_node": per_node_admission}
            totals: Dict[str, int] = {}
            for snapshot in per_node_admission.values():
                for key, value in snapshot.items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
            admission_summary["totals"] = totals
            if self.client_tier is not None:
                admission_summary["clients"] = self.client_tier.snapshot()
        return LiveReport(
            nodes=self.config.nodes,
            duration=self.config.duration,
            seed=self.config.seed,
            method=self.config.method.kind
            if self.config.method.is_flooding
            else f"kpaths:{self.config.method.k}",
            interrupted=self._interrupted,
            wall_seconds=self.scheduler.now,
            flows=flows,
            adaptive=(
                self.defense.summary() if self.defense is not None else None
            ),
            admission=admission_summary,
            **self._report_sections(),
        )


async def _run_async(config: LiveConfig) -> LiveReport:
    deployment = LiveDeployment(config)
    await deployment.start()
    try:
        await deployment.serve()
    finally:
        await deployment.stop()
    return deployment.report()


def run_live(config: Optional[LiveConfig] = None) -> LiveReport:
    """Boot a live overlay, run it to completion (or SIGINT), and report."""
    return asyncio.run(_run_async(config or LiveConfig()))
