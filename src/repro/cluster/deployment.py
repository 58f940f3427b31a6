"""The cluster coordinator: spawn shards, drive membership, aggregate.

:class:`ClusterDeployment` is the control plane of a multi-process run:

1. Generate and validate a large MTMW topology
   (:func:`~repro.topology.generators.large_overlay`, spot-checked for
   disjoint-path headroom), partition it into contiguous
   :class:`~repro.cluster.spec.ShardSpec` slices.
2. Generate the chaos schedule once and slice it per shard
   (:meth:`~repro.faults.schedule.FaultSchedule.restricted_to`), so the
   cluster-wide fault story is one seeded schedule, not N independent
   ones.
3. Spawn one ``multiprocessing`` (spawn) worker per shard with
   ``PYTHONHASHSEED`` pinned — the SIMULATED PKI's builtin-``hash`` MACs
   must agree across processes — and a single shared ``CLOCK_MONOTONIC``
   epoch so cross-shard latency stamps are comparable.
4. Run the HELLO → ADDR_MAP → READY → START boot barrier over an
   HMAC-authenticated TCP control plane, then drive signed JOIN/LEAVE
   membership changes mid-run and relay restart re-announcements
   between shards.
5. Gather per-shard reports and join them into a
   :class:`ClusterReport`; a worker that died instead of reporting is
   *attributed* (exit code + the nodes it hosted), never awaited
   forever.

The delivery join is a pure function (:func:`rollup`): a flow's ``sent``
count lives in the source node's shard, its ``delivered`` count in the
destination node's latency recorder — possibly a different process — so
only the coordinator can compute end-to-end ratios.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.control import control_key, read_frame, write_frame
from repro.cluster.membership import (
    LEAVE,
    MembershipRecord,
    membership_key,
    next_join_record,
)
from repro.cluster.spec import ClusterConfig, ShardSpec, partition_topology
from repro.cluster.worker import _node, worker_main
from repro.crypto.pki import Pki, PkiMode
from repro.errors import ConfigurationError, LiveRuntimeError
from repro.faults.schedule import FaultSchedule
from repro.runtime.live import preset_schedule
from repro.topology.disjoint import max_node_disjoint_paths
from repro.topology.generators import large_overlay
from repro.topology.graph import NodeId, Topology
from repro.topology.mtmw import Mtmw

#: How long a join waits for the hosting shard's JOIN_ACK.
JOIN_ACK_TIMEOUT = 8.0

#: Anchor-link weight for joining nodes (administrator-assigned minimum,
#: same 10 ms order as the generated topology's weights).
JOIN_ANCHOR_WEIGHT = 0.01

#: Disjoint-path spot checks on the generated topology: sampled pairs.
VALIDATE_PAIR_SAMPLES = 6

#: Control-plane patience: how long the coordinator waits for every
#: worker to boot (HELLO, then READY), and for a shard's final report.
READY_TIMEOUT = 30.0
REPORT_TIMEOUT = 20.0


class _ShardHandle:
    """Coordinator-side state for one worker process."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.hello_event = asyncio.Event()
        self.ready_event = asyncio.Event()
        self.report_event = asyncio.Event()
        self.addresses: Dict[NodeId, Tuple[str, int]] = {}
        self.report: Optional[Dict[str, Any]] = None
        self.heartbeats = 0
        self.last_heartbeat: Optional[float] = None
        self.failure: Optional[str] = None

    def attribution(self) -> str:
        """Which nodes this worker hosted (for failure messages)."""
        return ", ".join(str(n) for n in self.spec.nodes)


# ----------------------------------------------------------------------
# Pure aggregation (unit-testable without processes)
# ----------------------------------------------------------------------
def rollup(shard_reports: Dict[int, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Join every shard's sent-side flows with the destination shard's
    delivered-side latency recorders.  A flow's latency lives in its
    destination's process, so mean, p50 and p99 are read straight from
    that snapshot entry; nothing is merged across processes.  A
    destination hosted by a dead (unreported) shard yields
    ``delivered=0`` and ``None`` latencies — the gate then excludes that
    flow via the dead shard's nodes, but the join never fails."""
    node_home: Dict[str, Dict[str, Any]] = {}
    for report in shard_reports.values():
        for node_str in report.get("per_node", {}):
            node_home[node_str] = report
    flows: List[Dict[str, Any]] = []
    for shard_id in sorted(shard_reports):
        report = shard_reports[shard_id]
        for flow in report.get("flows", []):
            source, dest = flow["source"], flow["dest"]
            entry: Dict[str, Any] = {}
            dest_report = node_home.get(str(dest))
            if dest_report is not None:
                entry = (
                    dest_report["per_node"][str(dest)]
                    .get("latency", {})
                    .get(f"latency:{source}->{dest}")
                ) or {}
            delivered = int(entry.get("count", 0))
            sent = int(flow["sent"])
            flows.append(
                {
                    "source": source,
                    "dest": dest,
                    "semantics": flow["semantics"],
                    "post_join": bool(flow.get("post_join")),
                    "shard": shard_id,
                    "sent": sent,
                    "delivered": delivered,
                    "ratio": 1.0 if sent == 0 else delivered / sent,
                    "mean_latency": entry.get("mean"),
                    "p50_latency": entry.get("p50"),
                    "p99_latency": entry.get("p99"),
                }
            )
    return flows


def excluded_nodes(
    shard_reports: Dict[int, Dict[str, Any]],
    dead_nodes: Set[str] = frozenset(),
) -> Set[str]:
    """Endpoints the delivery gate must not hold the overlay accountable
    for: chaos-faulted, supervisor-crashed, departed, or hosted by a
    worker that died without reporting."""
    excluded: Set[str] = set(dead_nodes)
    for report in shard_reports.values():
        supervision = report.get("supervision") or {}
        excluded.update(str(n) for n in supervision.get("crashed_nodes", ()))
        excluded.update(str(n) for n in supervision.get("departed", ()))
        chaos = report.get("chaos") or {}
        excluded.update(str(n) for n in chaos.get("faulted_nodes", ()))
        excluded.update(str(n) for n in report.get("departed", ()))
    return excluded


def _flows_ratio(flows: List[Dict[str, Any]]) -> float:
    sent = sum(f["sent"] for f in flows)
    delivered = sum(f["delivered"] for f in flows)
    return 1.0 if sent == 0 else delivered / sent


@dataclass
class ClusterReport:
    """Aggregate outcome of one sharded cluster run (JSON-serializable)."""

    nodes: int
    shards: int
    duration: float
    seed: int
    topology_edges: int
    wall_seconds: float
    flows: List[Dict[str, Any]]
    shard_reports: Dict[str, Any]
    joined: List[Any]
    departed: List[Any]
    membership_events: List[Dict[str, Any]]
    excluded: List[str]
    failures: List[str]

    @property
    def correct_flows(self) -> List[Dict[str, Any]]:
        excluded = set(self.excluded)
        return [
            f
            for f in self.flows
            if str(f["source"]) not in excluded and str(f["dest"]) not in excluded
        ]

    @property
    def delivery_ratio(self) -> float:
        return _flows_ratio(self.flows)

    @property
    def correct_flow_ratio(self) -> float:
        return _flows_ratio(self.correct_flows)

    @property
    def post_join_flows(self) -> List[Dict[str, Any]]:
        return [f for f in self.correct_flows if f["post_join"]]

    @property
    def post_join_ratio(self) -> float:
        """Delivery over the mid-run joiners' flows (correct endpoints
        only) — the membership gate's number."""
        return _flows_ratio(self.post_join_flows)

    @property
    def sessions(self) -> Optional[Dict[str, Any]]:
        """Cluster-wide session-tier rollup: integer counters summed
        across shard slices, ratios recomputed from the sums.  None when
        no shard ran a session tier."""
        snapshots = [
            report.get("sessions")
            for report in self.shard_reports.values()
            if isinstance(report, dict) and report.get("sessions")
        ]
        if not snapshots:
            return None
        totals: Dict[str, Any] = {}
        for snap in snapshots:
            for key, value in snap.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if key in ("success_ratio", "amplification", "retry_budget",
                           "retry_tokens"):
                    continue
                totals[key] = totals.get(key, 0) + value
        requests = totals.get("requests", 0)
        totals["success_ratio"] = (
            round(totals.get("succeeded", 0) / requests, 6) if requests else 1.0
        )
        base = totals.get("base_offers", 0)
        totals["amplification"] = (
            round((base + totals.get("retry_offers", 0)) / base, 4)
            if base
            else 1.0
        )
        return totals

    @property
    def violations(self) -> int:
        total = 0
        for report in self.shard_reports.values():
            invariants = (
                report.get("invariants") if isinstance(report, dict) else None
            )
            if invariants:
                total += int(invariants.get("violations", 0))
        return total

    @property
    def failed(self) -> bool:
        if self.failures:
            return True
        return any(
            isinstance(report, dict) and report.get("failed")
            for report in self.shard_reports.values()
        )

    @property
    def ok(self) -> bool:
        return not self.failed and self.violations == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: the rollup ratios, per-flow results
        (shard-tagged), per-shard detail, and membership timeline."""
        return {
            "nodes": self.nodes,
            "shards": self.shards,
            "duration": self.duration,
            "seed": self.seed,
            "topology_edges": self.topology_edges,
            "wall_seconds": self.wall_seconds,
            "delivery_ratio": self.delivery_ratio,
            "correct_flow_ratio": self.correct_flow_ratio,
            "post_join_ratio": self.post_join_ratio,
            "flows": self.flows,
            "shards_detail": self.shard_reports,
            "joined": self.joined,
            "departed": self.departed,
            "membership_events": self.membership_events,
            "excluded_nodes": sorted(self.excluded),
            "failures": self.failures,
            "sessions": self.sessions,
            "violations": self.violations,
            "failed": self.failed,
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ClusterDeployment:
    """Spawns, synchronizes, and aggregates a sharded cluster run."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self.topology = large_overlay(self.config.nodes, seed=self.config.seed)
        self._validate_topology()
        self.shards: List[ShardSpec] = partition_topology(
            self.topology, self.config.shards
        )
        self.handles: Dict[int, _ShardHandle] = {
            spec.shard_id: _ShardHandle(spec) for spec in self.shards
        }
        self._key = control_key(self.config.seed)
        self._mkey = membership_key(self.config.seed)
        self._seqno = 1  # the boot MTMW's
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None
        self._stopped = False
        self._pending_join: Optional[asyncio.Future] = None
        self._current_nodes: List[NodeId] = sorted(self.topology.nodes)
        self.chaos_schedule: Optional[FaultSchedule] = None
        self.addresses: Dict[NodeId, Tuple[str, int]] = {}
        self.joined: List[Any] = []
        self.departed: List[Any] = []
        self.membership_events: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        #: The spawned worker processes, in shard order (tests kill one
        #: mid-run to exercise dead-worker attribution).
        self.workers: List[multiprocessing.process.BaseProcess] = []

    def _validate_topology(self) -> None:
        """The generated graph must be a valid, signable MTMW with
        disjoint-path headroom (sampled k-connectivity spot checks —
        exhaustive max-flow over all pairs is O(n^2) and the circulant
        construction is degree-connected by design)."""
        pki = Pki(mode=PkiMode.SIMULATED, seed=self.config.seed)
        for node_id in self.topology.nodes:
            pki.register(node_id)
        mtmw = Mtmw.create(self.topology, pki)
        if not mtmw.verify(pki):
            raise ConfigurationError("generated MTMW failed verification")
        nodes = sorted(self.topology.nodes)
        rng = random.Random(f"cluster-validate:{self.config.seed}")
        for _ in range(min(VALIDATE_PAIR_SAMPLES, len(nodes) // 2)):
            a, b = rng.sample(nodes, 2)
            paths = max_node_disjoint_paths(self.topology, a, b)
            if paths < 2:
                raise ConfigurationError(
                    f"generated topology has only {paths} disjoint "
                    f"path(s) between {a!r} and {b!r}"
                )

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the shard workers and run the boot barrier to START."""
        config = self.config
        loop = asyncio.get_event_loop()
        if self._server is not None:
            raise LiveRuntimeError("cluster already started")
        self._server = await asyncio.start_server(
            self._on_connection, config.host, 0
        )
        control_port = self._server.sockets[0].getsockname()[1]

        self.chaos_schedule = preset_schedule(config, self.topology)

        # One shared monotonic epoch: every shard's scheduler measures
        # time as CLOCK_MONOTONIC minus this, so a latency stamp written
        # in one process reads correctly in another.
        epoch = time.monotonic()
        all_nodes = sorted(self.topology.nodes)
        edges = [
            [a, b, self.topology.weight(a, b)] for a, b in self.topology.edges()
        ]
        seed_nodes = {spec.shard_id: spec.seed_node for spec in self.shards}

        # SIMULATED crypto tags use builtin hash(); pin the children's
        # hash randomization so tags agree across the process boundary
        # (spawn re-execs the interpreter, so the env var takes effect).
        previous_hashseed = os.environ.get("PYTHONHASHSEED")
        os.environ["PYTHONHASHSEED"] = str(config.seed % 4294967296)
        try:
            ctx = multiprocessing.get_context("spawn")
            for spec in self.shards:
                chaos_slice = None
                if self.chaos_schedule is not None:
                    chaos_slice = self.chaos_schedule.restricted_to(
                        set(spec.nodes)
                    ).to_dict()
                payload = {
                    "shard_id": spec.shard_id,
                    "nodes": list(spec.nodes),
                    "all_nodes": all_nodes,
                    "edges": edges,
                    "seed": config.seed,
                    "total_nodes": config.nodes,
                    "duration": config.duration,
                    "rate_msgs_per_sec": config.rate_msgs_per_sec,
                    "size_bytes": config.size_bytes,
                    "host": config.host,
                    "drain": config.drain,
                    "kpaths": config.kpaths,
                    "flow_stride": config.flow_stride,
                    "session_rate": config.session_rate,
                    "chaos": chaos_slice,
                    "epoch": epoch,
                    "control_host": config.host,
                    "control_port": control_port,
                    "seed_nodes": seed_nodes,
                }
                process = ctx.Process(
                    target=worker_main, args=(payload,), daemon=True
                )
                process.start()
                self.handles[spec.shard_id].process = process
                self.workers.append(process)
        finally:
            if previous_hashseed is None:
                os.environ.pop("PYTHONHASHSEED", None)
            else:
                os.environ["PYTHONHASHSEED"] = previous_hashseed

        # Boot barrier: everyone binds (HELLO), learns the cluster-wide
        # address map, wires links (READY), then starts together.
        await self._await_all("hello_event", READY_TIMEOUT, "hello")
        for handle in self.handles.values():
            self.addresses.update(handle.addresses)
        await self._broadcast(
            {
                "kind": "addr_map",
                "addresses": {
                    str(node): list(address)
                    for node, address in self.addresses.items()
                },
            }
        )
        await self._await_all("ready_event", READY_TIMEOUT, "ready")
        await self._broadcast({"kind": "start"})
        self._started_at = loop.time()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await read_frame(reader, self._key)
        except (
            LiveRuntimeError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            writer.close()
            return
        if frame.get("kind") != "hello":
            writer.close()
            return
        handle = self.handles.get(int(frame.get("shard", -1)))
        if handle is None or handle.writer is not None:
            writer.close()
            return
        handle.reader = reader
        handle.writer = writer
        handle.addresses = {
            _node(node): (address[0], int(address[1]))
            for node, address in frame.get("addresses", {}).items()
        }
        handle.hello_event.set()
        handle.reader_task = asyncio.get_event_loop().create_task(
            self._shard_reader(handle)
        )

    async def _shard_reader(self, handle: _ShardHandle) -> None:
        """Demultiplex one shard's control frames until its stream ends."""
        try:
            while True:
                frame = await read_frame(handle.reader, self._key)
                kind = frame.get("kind")
                if kind == "heartbeat":
                    handle.heartbeats += 1
                    handle.last_heartbeat = frame.get("now")
                elif kind == "ready":
                    handle.ready_event.set()
                elif kind == "announce":
                    await self._relay_peer_update(handle.spec.shard_id, frame)
                elif kind == "join_ack":
                    if (
                        self._pending_join is not None
                        and not self._pending_join.done()
                    ):
                        self._pending_join.set_result(frame)
                elif kind == "report":
                    handle.report = frame.get("report")
                    handle.report_event.set()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # stream closed; exitcode attribution happens at gather
        except LiveRuntimeError as exc:
            handle.failure = (
                f"shard {handle.spec.shard_id}: control-plane frame "
                f"rejected: {exc}"
            )

    async def _relay_peer_update(
        self, origin_shard: int, frame: Dict[str, Any]
    ) -> None:
        """A node restarted on a new port: tell every *other* shard."""
        body = {
            "kind": "peer_update",
            "node": frame["node"],
            "address": frame["address"],
        }
        for shard_id, handle in self.handles.items():
            if shard_id == origin_shard or handle.writer is None:
                continue
            try:
                await write_frame(handle.writer, self._key, body)
            except (ConnectionError, OSError):
                continue

    async def _await_all(
        self, event_name: str, timeout: float, what: str
    ) -> None:
        """Wait for every shard's event, failing fast — with exit-code
        and node attribution — if a worker dies before producing it."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while True:
            pending = [
                handle
                for handle in self.handles.values()
                if not getattr(handle, event_name).is_set()
            ]
            if not pending:
                return
            for handle in pending:
                process = handle.process
                if process is not None and process.exitcode is not None:
                    raise LiveRuntimeError(
                        f"shard {handle.spec.shard_id} worker exited with "
                        f"code {process.exitcode} before {what} "
                        f"(nodes {handle.attribution()})"
                    )
            if loop.time() > deadline:
                shard_ids = sorted(h.spec.shard_id for h in pending)
                raise LiveRuntimeError(
                    f"timed out waiting for {what} from shards {shard_ids}"
                )
            await asyncio.sleep(0.05)

    async def _broadcast(self, body: Dict[str, Any]) -> None:
        for handle in self.handles.values():
            if handle.writer is None:
                continue
            try:
                await write_frame(handle.writer, self._key, body)
            except (ConnectionError, OSError):
                continue

    # ------------------------------------------------------------------
    # Run: membership timeline, then STOP
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Drive the membership timeline over the inject window and send
        STOP after the drain: joins land around 35% of injection, leaves
        around 65%, so joiners source a meaningful post-join flow span
        and leavers drain while traffic still runs."""
        config = self.config
        if self._started_at is None:
            raise LiveRuntimeError("cluster not started")
        inject = config.inject_seconds
        timeline: List[Tuple[float, str, Optional[NodeId]]] = []
        for index in range(config.joins):
            timeline.append((inject * 0.35 + index * 0.6, "join", None))
        for index, node in enumerate(self._pick_leavers(config.leaves)):
            timeline.append((inject * 0.65 + index * 0.6, "leave", node))
        timeline.sort(key=lambda item: item[0])
        for offset, action, node in timeline:
            await self._sleep_until(self._started_at + offset)
            if action == "join":
                await self._do_join()
            else:
                await self._do_leave(node)
        await self._sleep_until(self._started_at + config.duration + 1.0)
        await self._broadcast({"kind": "stop"})

    @staticmethod
    async def _sleep_until(when: float) -> None:
        delay = when - asyncio.get_event_loop().time()
        if delay > 0:
            await asyncio.sleep(delay)

    def _pick_leavers(self, count: int) -> List[NodeId]:
        """Leave candidates: non-seed nodes (seed nodes anchor discovery
        and joins), picked from the back of the shard list."""
        seeds = {spec.seed_node for spec in self.shards}
        candidates: List[NodeId] = []
        for spec in reversed(self.shards):
            for node in reversed(spec.nodes):
                if node not in seeds:
                    candidates.append(node)
        return candidates[:count]

    async def _do_join(self) -> None:
        """One signed JOIN: host shard boots the node, acks its address,
        then every other shard folds it in."""
        loop = asyncio.get_event_loop()
        self._seqno += 1
        anchors = tuple(
            (spec.seed_node, JOIN_ANCHOR_WEIGHT)
            for spec in self.shards[: min(3, len(self.shards))]
        )
        record = next_join_record(
            self._current_nodes, self._seqno, anchors
        ).signed(self._mkey)
        host = self.handles[self.shards[-1].shard_id]
        if host.writer is None:
            self.failures.append(
                f"join {record.node}: host shard {host.spec.shard_id} "
                f"has no control connection"
            )
            return
        future: asyncio.Future = loop.create_future()
        self._pending_join = future
        try:
            await write_frame(
                host.writer,
                self._key,
                {
                    "kind": "join",
                    "record": record.to_dict(),
                    "host_shard": host.spec.shard_id,
                },
            )
            try:
                ack = await asyncio.wait_for(future, JOIN_ACK_TIMEOUT)
            except asyncio.TimeoutError:
                self.failures.append(
                    f"join {record.node}: no JOIN_ACK from shard "
                    f"{host.spec.shard_id} within {JOIN_ACK_TIMEOUT}s"
                )
                return
        except (ConnectionError, OSError) as exc:
            self.failures.append(f"join {record.node}: control plane: {exc}")
            return
        finally:
            self._pending_join = None
        if not ack.get("ok"):
            self.failures.append(
                f"join {record.node}: host shard rejected record "
                f"({ack.get('result')!r})"
            )
            return
        address = ack["address"]
        self._current_nodes.append(record.node)
        self.joined.append(record.node)
        self.addresses[record.node] = (address[0], int(address[1]))
        self.membership_events.append(
            {
                "action": "join",
                "node": record.node,
                "seqno": record.seqno,
                "host_shard": host.spec.shard_id,
                "anchors": [peer for peer, _ in anchors],
            }
        )
        body = {
            "kind": "join",
            "record": record.to_dict(),
            "host_shard": host.spec.shard_id,
            "address": address,
        }
        for shard_id, handle in self.handles.items():
            if shard_id == host.spec.shard_id or handle.writer is None:
                continue
            try:
                await write_frame(handle.writer, self._key, body)
            except (ConnectionError, OSError):
                continue

    async def _do_leave(self, node: NodeId) -> None:
        """One signed LEAVE, broadcast to every shard."""
        self._seqno += 1
        record = MembershipRecord(LEAVE, node, self._seqno).signed(self._mkey)
        if node in self._current_nodes:
            self._current_nodes.remove(node)
        self.departed.append(node)
        self.membership_events.append(
            {"action": "leave", "node": node, "seqno": record.seqno}
        )
        await self._broadcast({"kind": "leave", "record": record.to_dict()})

    # ------------------------------------------------------------------
    # Gather, stop, report
    # ------------------------------------------------------------------
    async def finish(self) -> ClusterReport:
        """Collect every shard's report (attributing dead workers), tear
        everything down, and build the aggregate report."""
        for handle in self.handles.values():
            await self._gather_report(handle)
        await self.stop()
        return self._build_report()

    async def _gather_report(self, handle: _ShardHandle) -> None:
        """Wait for one shard's report — but never past a dead worker:
        an exited process is given one beat for its final frame to drain
        and is then attributed by exit code and hosted nodes."""
        loop = asyncio.get_event_loop()
        process = handle.process
        if process is None:
            if handle.failure is None:
                handle.failure = (
                    f"shard {handle.spec.shard_id} worker never started "
                    f"(nodes {handle.attribution()})"
                )
            return
        deadline = loop.time() + REPORT_TIMEOUT
        while handle.report is None:
            if process.exitcode is not None:
                await asyncio.sleep(0.2)  # let a final frame drain
                if handle.report is None:
                    handle.failure = (
                        f"shard {handle.spec.shard_id} worker exited with "
                        f"code {process.exitcode} before reporting "
                        f"(nodes {handle.attribution()})"
                    )
                    return
                break
            if loop.time() > deadline:
                handle.failure = (
                    f"shard {handle.spec.shard_id} worker unresponsive "
                    f"(no report within {REPORT_TIMEOUT}s; "
                    f"nodes {handle.attribution()})"
                )
                return
            try:
                await asyncio.wait_for(handle.report_event.wait(), 0.25)
            except asyncio.TimeoutError:
                continue

    async def stop(self) -> None:
        """Teardown: close the control plane, reap every worker with a
        bounded escalation (poll → terminate → kill) so a wedged child
        can never hang the coordinator.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for handle in self.handles.values():
            if handle.reader_task is not None:
                handle.reader_task.cancel()
            if handle.writer is not None:
                try:
                    handle.writer.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for handle in self.handles.values():
            await self._reap(handle)

    async def _reap(
        self, handle: _ShardHandle, grace: float = 3.0
    ) -> None:
        process = handle.process
        if process is None:
            return
        loop = asyncio.get_event_loop()
        deadline = loop.time() + grace
        while process.is_alive() and loop.time() < deadline:
            await asyncio.sleep(0.05)
        if process.is_alive():
            process.terminate()
            terminate_deadline = loop.time() + 1.0
            while process.is_alive() and loop.time() < terminate_deadline:
                await asyncio.sleep(0.05)
        if process.is_alive():  # pragma: no cover - last resort
            process.kill()
        process.join(timeout=0.5)

    def _build_report(self) -> ClusterReport:
        loop = asyncio.get_event_loop()
        reports: Dict[int, Dict[str, Any]] = {}
        dead_nodes: Set[str] = set()
        failures = list(self.failures)
        shard_detail: Dict[str, Any] = {}
        for shard_id in sorted(self.handles):
            handle = self.handles[shard_id]
            if handle.failure is not None:
                failures.append(handle.failure)
            if handle.report is not None:
                reports[shard_id] = handle.report
                shard_detail[str(shard_id)] = handle.report
            else:
                dead_nodes.update(str(n) for n in handle.spec.nodes)
                shard_detail[str(shard_id)] = {
                    "failed": True,
                    "nodes": [str(n) for n in handle.spec.nodes],
                    "heartbeats": handle.heartbeats,
                }
        flows = rollup(reports)
        excluded = excluded_nodes(reports, dead_nodes)
        excluded.update(str(n) for n in self.departed)
        wall = max(
            [r.get("wall_seconds", 0.0) for r in reports.values()]
            or [
                loop.time() - self._started_at
                if self._started_at is not None
                else 0.0
            ]
        )
        return ClusterReport(
            nodes=self.config.nodes,
            shards=self.config.shards,
            duration=self.config.duration,
            seed=self.config.seed,
            topology_edges=len(self.topology.edges()),
            wall_seconds=wall,
            flows=flows,
            shard_reports=shard_detail,
            joined=list(self.joined),
            departed=list(self.departed),
            membership_events=list(self.membership_events),
            excluded=sorted(excluded),
            failures=failures,
        )


async def _run_cluster_async(config: ClusterConfig) -> ClusterReport:
    deployment = ClusterDeployment(config)
    try:
        await deployment.start()
        await deployment.serve()
    except LiveRuntimeError as exc:
        deployment.failures.append(str(exc))
        await deployment._broadcast({"kind": "stop"})  # best effort
    return await deployment.finish()


def run_cluster(config: Optional[ClusterConfig] = None) -> ClusterReport:
    """Boot a sharded cluster, run it to completion, and aggregate."""
    return asyncio.run(_run_cluster_async(config or ClusterConfig()))
