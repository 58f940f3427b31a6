"""Node supervision for the live runtime: kill, watch, restart.

A real intrusion-tolerant deployment does not assume its daemons stay
up — it assumes they *will* die (crash faults, proactive recovery, an
operator's kill -9) and builds the rejoin path: tear the socket down,
lose the soft state, come back after a backoff, re-announce to the
neighbors, and let the protocol re-converge.  The
:class:`NodeSupervisor` is that path for :class:`~repro.runtime.live.
LiveDeployment` node processes.

Restart discipline follows the standard supervisor pattern:

* **Exponential backoff with jitter** — the *n*-th restart of a node
  waits ``BACKOFF_INITIAL * BACKOFF_FACTOR**n`` seconds (capped), scaled
  by a seeded ±jitter so a mass failure does not produce a synchronized
  thundering herd of rebinds.
* **Max-restart circuit breaker** — a node that keeps dying is marked
  ``broken`` after ``MAX_RESTARTS`` attempts and left down; flapping
  forever would only mask a real defect.
* **Watchdog** — an asyncio task sweeps every ``WATCHDOG_INTERVAL``
  seconds: it notices sockets that died without anyone calling
  :meth:`NodeSupervisor.kill` (and schedules their restart), and it
  performs due restarts.  Restarts are asynchronous (rebinding a socket
  awaits the loop), which is why they live on the watchdog task instead
  of a scheduler callback.

The restart sequence mirrors :meth:`repro.overlay.network.
OverlayNetwork.recover` — peers' PoR endpoints facing the node are
reset *before* the node's own recovery, so both ends restart their link
epochs — plus the live-only steps: bind a fresh socket (new ephemeral
port) and re-point every neighbor's peer table at the new address.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.errors import LiveRuntimeError

#: NodeRecord.state values.
RUNNING = "running"
DOWN = "down"
BROKEN = "broken"
#: A node decommissioned by a signed membership LEAVE: permanently down
#: by design, never restarted, and not a failure.
DEPARTED = "departed"


# Restart policy (see module docstring).
BACKOFF_INITIAL = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0
#: Relative jitter: each backoff is scaled by 1 ± jitter.
BACKOFF_JITTER = 0.1
#: Circuit breaker: give up on a node after this many restart attempts
#: (successful or failed).
MAX_RESTARTS = 8
WATCHDOG_INTERVAL = 0.05
#: Bind attempts per restart: the supervisor first tries to reclaim the
#: port the node was bound to before it died (so peers' registrations
#: stay valid), then falls back to fresh ephemeral binds.  Under many
#: processes on one host an ephemeral bind can race another process
#: grabbing the same port, so even port-0 binds get bounded retries.
REBIND_ATTEMPTS = 3


class NodeRecord:
    """Supervision state of one node process."""

    __slots__ = (
        "state", "kills", "restarts", "consecutive_failures",
        "backoffs", "held", "down_since", "next_restart_at", "last_reason",
    )

    def __init__(self) -> None:
        self.state = RUNNING
        self.kills = 0
        self.restarts = 0
        self.consecutive_failures = 0
        #: Every backoff actually chosen, in order (observability: tests
        #: assert the exponential growth on this).
        self.backoffs: List[float] = []
        #: True while a fault driver holds the node down (the chaos
        #: engine kills at fault start and releases at fault end); the
        #: watchdog never restarts a held node.
        self.held = False
        self.down_since: Optional[float] = None
        self.next_restart_at: Optional[float] = None
        self.last_reason = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON form of this node's supervision history."""
        return {
            "state": self.state,
            "kills": self.kills,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "backoffs": [round(b, 6) for b in self.backoffs],
            "last_reason": self.last_reason,
        }


class NodeSupervisor:
    """Watches and restarts the node processes of a live deployment.

    ``deployment`` duck type: ``sim`` (scheduler: ``now`` + ``rngs``),
    ``processes`` (node id -> process with ``transport`` / ``overlay`` /
    ``stats``), ``topology``, and ``crash(node_id)`` / ``recover(node_id)``
    instance methods — looked up per call, so an armed
    :class:`~repro.faults.invariants.InvariantMonitor` that wrapped them
    observes every supervised state loss.
    """

    def __init__(self, deployment: Any):
        self.deployment = deployment
        self.records: Dict[Any, NodeRecord] = {}
        self.events: List[tuple] = []  # (time, text) observability log
        # One seeded jitter stream *per node*: with a single shared
        # stream the jitter a node receives depended on the wall-clock
        # interleaving of other nodes' kills, so same-seed soak runs
        # were not reproducible across retries.
        self._rngs: Dict[Any, Any] = {}
        self._task: Optional[asyncio.Task] = None
        self._armed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start supervising every current node process.  Call once,
        after the deployment booted, inside the running loop."""
        if self._armed:
            raise LiveRuntimeError("NodeSupervisor.arm() called twice")
        self._armed = True
        for node_id in self.deployment.processes:
            self.records[node_id] = NodeRecord()
        self._task = asyncio.get_event_loop().create_task(self._watchdog())

    def stop(self) -> None:
        """Cancel the watchdog; in-progress restarts are abandoned."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    # Kill / release (the fault drivers' API)
    # ------------------------------------------------------------------
    def kill(self, node_id: Any, reason: str = "fault", hold: bool = False) -> None:
        """Kill a node process: overlay soft state is lost (via the
        deployment's ``crash``, so invariant monitors notice) and its
        socket closes.  The watchdog restarts it after the node's
        current backoff — unless ``hold`` is set, in which case the
        restart additionally waits for :meth:`release`."""
        record = self._record(node_id)
        if record.state in (BROKEN, DEPARTED):
            return
        if record.state == DOWN:
            # Overlapping fault (e.g. crash inside churn): just extend.
            record.held = record.held or hold
            return
        now = self.deployment.sim.now
        record.state = DOWN
        record.kills += 1
        record.held = hold
        record.down_since = now
        record.last_reason = reason
        backoff = self._next_backoff(node_id, record)
        record.backoffs.append(backoff)
        record.next_restart_at = now + backoff
        process = self.deployment.processes[node_id]
        self.deployment.crash(node_id)
        process.transport.close()
        process.stats.counter("supervisor.kills").add()
        self.events.append((now, f"kill {node_id!r} ({reason})"))

    def release(self, node_id: Any) -> None:
        """Drop the hold placed by ``kill(..., hold=True)``: the node
        becomes eligible to restart once its backoff expires."""
        self._record(node_id).held = False

    # ------------------------------------------------------------------
    # Dynamic membership (cluster shards)
    # ------------------------------------------------------------------
    def adopt(self, node_id: Any) -> None:
        """Start supervising a node added after :meth:`arm` (a signed
        mid-run JOIN booted it).  Idempotent."""
        if node_id not in self.records:
            self.records[node_id] = NodeRecord()

    def retire(self, node_id: Any) -> None:
        """Permanently decommission a node (a signed LEAVE): kill it if
        still running, then pin it DEPARTED so neither the watchdog nor
        a chaos-engine release can ever restart it."""
        record = self._record(node_id)
        if record.state == RUNNING:
            self.kill(node_id, reason="membership leave")
        record.state = DEPARTED
        record.held = False
        record.next_restart_at = None
        self.events.append((self.deployment.sim.now, f"retire {node_id!r}"))

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    async def _watchdog(self) -> None:
        try:
            while True:
                await asyncio.sleep(WATCHDOG_INTERVAL)
                self._detect_dead_sockets()
                for node_id in self._due_restarts():
                    await self._restart(node_id)
        except asyncio.CancelledError:  # graceful shutdown
            raise

    def _detect_dead_sockets(self) -> None:
        """Notice nodes whose socket died without a ``kill`` call."""
        for node_id, record in self.records.items():
            if record.state != RUNNING:
                continue
            if self.deployment.processes[node_id].transport.closed:
                self.kill(node_id, reason="watchdog: socket closed")

    def _due_restarts(self) -> List[Any]:
        now = self.deployment.sim.now
        return [
            node_id
            for node_id, record in self.records.items()
            if record.state == DOWN
            and not record.held
            and record.next_restart_at is not None
            and now >= record.next_restart_at
        ]

    async def _restart(self, node_id: Any) -> None:
        record = self._record(node_id)
        now = self.deployment.sim.now
        process = self.deployment.processes[node_id]
        if record.restarts + record.consecutive_failures >= MAX_RESTARTS:
            record.state = BROKEN
            process.stats.counter("supervisor.broken").add()
            self.events.append((
                now, f"circuit open for {node_id!r} after "
                f"{record.restarts} restarts"
            ))
            return
        try:
            address = await self._rebind(process.transport)
            for neighbor in self.deployment.topology.neighbors(node_id):
                # In a sharded cluster some neighbors live in other OS
                # processes; their re-pointing happens via the control
                # plane (deployment.announce_restart below).
                peer = self.deployment.processes.get(neighbor)
                if peer is None:
                    continue
                peer.transport.update_peer_address(node_id, address)
                # Reset the peer-facing PoR epoch, as OverlayNetwork.
                # recover does: both ends must agree the link restarted.
                peer.overlay.links[node_id].por.reset()
            self.deployment.recover(node_id)
            announce = getattr(self.deployment, "announce_restart", None)
            if announce is not None:
                announce(node_id, address)
        except Exception as exc:
            record.consecutive_failures += 1
            backoff = self._next_backoff(node_id, record)
            record.backoffs.append(backoff)
            record.next_restart_at = self.deployment.sim.now + backoff
            process.stats.counter("supervisor.restart_failures").add()
            self.events.append((
                now, f"restart of {node_id!r} failed: "
                f"{type(exc).__name__}: {exc}"
            ))
            return
        record.state = RUNNING
        record.restarts += 1
        record.consecutive_failures = 0
        record.down_since = None
        record.next_restart_at = None
        process.stats.counter("supervisor.restarts").add()
        self.events.append((now, f"restart {node_id!r} @ {address}"))

    async def _rebind(self, transport: Any) -> Any:
        """Reopen the node's socket with bounded bind attempts.

        The first attempt tries to reclaim the port the socket was bound
        to before the kill (``transport.last_local_port``): if it
        succeeds, every peer's registration is already correct and the
        re-announce is a formality.  If another process won the port in
        the meantime (bind race under many workers per host), the
        remaining attempts fall back to fresh ephemeral binds.  All
        attempts failing re-raises the last ``OSError`` into the normal
        restart-failure backoff path.
        """
        last_port = getattr(transport, "last_local_port", None)
        last_error: Optional[BaseException] = None
        for attempt in range(REBIND_ATTEMPTS):
            port = last_port if (attempt == 0 and last_port) else 0
            try:
                return await transport.reopen(port=port)
            except OSError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _next_backoff(self, node_id: Any, record: NodeRecord) -> float:
        """Exponential in the node's attempt count, jittered, capped.
        Jitter draws come from the node's own seeded substream, so a
        node's backoff sequence is a pure function of the run seed and
        its own kill count — independent of when other nodes die."""
        attempt = record.restarts + record.consecutive_failures
        base = min(BACKOFF_INITIAL * BACKOFF_FACTOR ** attempt, BACKOFF_MAX)
        rng = self._rngs.get(node_id)
        if rng is None:
            rng = self._rngs[node_id] = self.deployment.sim.rngs.stream(
                f"supervision:{node_id}"
            )
        jitter = 1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0)
        return base * jitter

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record(self, node_id: Any) -> NodeRecord:
        try:
            return self.records[node_id]
        except KeyError:
            raise LiveRuntimeError(
                f"supervisor does not manage node {node_id!r}"
            ) from None

    @property
    def total_kills(self) -> int:
        return sum(r.kills for r in self.records.values())

    @property
    def total_restarts(self) -> int:
        return sum(r.restarts for r in self.records.values())

    def crashed_nodes(self) -> List[Any]:
        """Every node that was killed at least once during the run."""
        return [n for n, r in self.records.items() if r.kills > 0]

    def summary(self) -> Dict[str, Any]:
        """Aggregate + per-node supervision summary (JSON-serializable,
        lands in :attr:`LiveReport.supervision`)."""
        return {
            "kills": self.total_kills,
            "restarts": self.total_restarts,
            "broken": sorted(
                str(n) for n, r in self.records.items() if r.state == BROKEN
            ),
            "departed": sorted(
                str(n) for n, r in self.records.items() if r.state == DEPARTED
            ),
            "crashed_nodes": sorted(str(n) for n in self.crashed_nodes()),
            "nodes": {
                str(n): r.to_dict()
                for n, r in sorted(self.records.items(), key=lambda kv: str(kv[0]))
            },
        }
