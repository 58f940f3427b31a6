"""One cluster shard: a worker process running its slice of the overlay.

``worker_main`` is the ``multiprocessing`` (spawn) entry point.  Its
``payload`` is a dict of primitives only — node lists, edge triples, a
serialized chaos slice, scalars — so the spawn pickle never depends on
repro object versions.  The worker connects back to the coordinator's
TCP control plane, boots a :class:`ShardDeployment` (a
:class:`~repro.runtime.live.LiveDeployment` that binds sockets only for
its *local* nodes and wires cross-shard Proof-of-Receipt links against
the coordinator-distributed address map), and then serves control frames
— signed membership JOIN/LEAVE, peer re-announcements — until STOP.

Cross-process determinism contract: the coordinator sets
``PYTHONHASHSEED`` before spawning, so the SIMULATED PKI's builtin-hash
MACs agree between workers; link secrets and the membership/control HMAC
keys are sha256-derived from the run seed and agree by construction.
Every worker regenerates the identical topology, PKI, and boot MTMW from
``(edges, seed)`` alone — nothing protocol-level crosses the process
boundary except real UDP datagrams and signed control frames.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.clients.session import SessionWorkloadConfig
from repro.cluster.control import control_key, read_frame, write_frame
from repro.cluster.discovery import SeedDirectory, query_addresses
from repro.cluster.membership import (
    MembershipLedger,
    MembershipRecord,
    membership_key,
)
from repro.errors import LiveRuntimeError
from repro.faults.schedule import FaultSchedule
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod
from repro.runtime.live import LiveConfig, LiveDeployment
from repro.runtime.wire import AddrAnnounce, encode_datagram
from repro.topology.graph import NodeId, Topology
from repro.topology.mtmw import MtmwUpdateResult

#: Seconds between a LEAVE's traffic stop and the node's final kill, so
#: in-flight messages drain before the socket disappears.
LEAVE_DRAIN_GRACE = 0.3

#: Slack past the configured duration before a shard self-stops when the
#: coordinator's STOP frame never arrives (dead coordinator safety net).
STOP_DEADLINE_SLACK = 60.0

#: Seconds between a shard's heartbeats to the coordinator.
HEARTBEAT_INTERVAL = 0.5


def _node(value: Any) -> Any:
    """JSON object keys arrive as strings; our node ids are ints."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _worker_live_config(payload: Dict[str, Any]) -> LiveConfig:
    kpaths = int(payload.get("kpaths", 0))
    method = (
        DisseminationMethod.k_paths(kpaths)
        if kpaths
        else DisseminationMethod.flooding()
    )
    chaos = (
        FaultSchedule.from_dict(payload["chaos"]) if payload.get("chaos") else None
    )
    # The shard hosts the session-tier slice homed on its local nodes,
    # offering its node-share of the cluster-wide rate; destinations
    # span the full overlay.  Requests to remote destinations are
    # answered by that destination's own shard's tier — responders only
    # need the local dedup state.
    session_rate = float(payload.get("session_rate", 0.0))
    share = session_rate * len(payload["nodes"]) / len(payload["all_nodes"])
    return LiveConfig(
        nodes=int(payload["total_nodes"]),
        duration=float(payload["duration"]),
        seed=int(payload["seed"]),
        method=method,
        rate_msgs_per_sec=float(payload["rate_msgs_per_sec"]),
        size_bytes=int(payload["size_bytes"]),
        host=str(payload["host"]),
        drain=float(payload["drain"]),
        sessions=SessionWorkloadConfig(arrival_rate=share) if share > 0 else None,
        chaos=chaos,
    )


class ShardDeployment(LiveDeployment):
    """A LiveDeployment hosting one shard of a sharded cluster.

    ``processes`` holds only the shard's local nodes; ``topology``,
    ``pki``, and ``mtmw`` cover the *full* overlay (regenerated
    deterministically), so routing, chaos partitions, and membership
    updates see the same world every other shard sees.  Assembly is
    :class:`LiveDeployment`'s; the shard adds only what crosses the
    process boundary — the control-plane boot barrier (HELLO ->
    ADDR_MAP on :meth:`_after_bind`, READY -> START on
    :meth:`_before_traffic`), the shared clock epoch, seed-node
    discovery, signed JOIN/LEAVE, and restart re-announcement.
    """

    def __init__(
        self,
        payload: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        super().__init__(_worker_live_config(payload))
        self.shard_id = int(payload["shard_id"])
        self.local_nodes = [_node(n) for n in payload["nodes"]]
        self.epoch = float(payload["epoch"])
        self.tier_name = f"shard{self.shard_id}"
        topo = Topology()
        for node in payload["all_nodes"]:
            topo.add_node(_node(node))
        for a, b, weight in payload["edges"]:
            topo.add_edge(_node(a), _node(b), float(weight))
        self.topology = topo
        self._key = control_key(int(payload["seed"]))
        self.ledger = MembershipLedger(membership_key(int(payload["seed"])))
        self._reader = reader
        self._writer = writer
        #: shard id -> that shard's bootstrap seed node.
        self.seed_nodes: Dict[int, NodeId] = {
            int(shard): _node(node)
            for shard, node in payload.get("seed_nodes", {}).items()
        }
        self.flow_stride = max(1, int(payload.get("flow_stride", 1)))
        self.joined: List[NodeId] = []
        self.departed: List[NodeId] = []
        #: Set once the address map is known; membership and restart
        #: handlers only run after that.
        self.directory: Optional[SeedDirectory] = None
        self._join_nonce = 0

    # ------------------------------------------------------------------
    # Boot (control-plane two-phase: HELLO -> ADDR_MAP -> READY -> START)
    # ------------------------------------------------------------------
    async def _after_bind(self) -> None:
        """Tell the coordinator where our nodes landed; learn where
        everyone else's landed (``addresses`` then covers the cluster
        and is kept current by announces/joins)."""
        await self._send(
            {
                "kind": "hello",
                "shard": self.shard_id,
                "addresses": {
                    str(n): list(self.processes[n].address)
                    for n in self.local_nodes
                },
            }
        )
        frame = await self._expect("addr_map")
        self.addresses = {
            _node(node): (addr[0], int(addr[1]))
            for node, addr in frame["addresses"].items()
        }
        # The shard's first node doubles as its bootstrap seed node.
        self.directory = SeedDirectory(
            self.processes[self.local_nodes[0]].transport, self.addresses
        )

    async def _before_traffic(self) -> None:
        """Cluster-wide barrier: no shard arms chaos or offers traffic
        until every shard is wired."""
        await self._send({"kind": "ready", "shard": self.shard_id})
        await self._expect("start")

    async def _expect(self, kind: str) -> Dict[str, Any]:
        frame = await read_frame(self._reader, self._key)
        if frame.get("kind") != kind:
            raise LiveRuntimeError(f"expected {kind}, got {frame.get('kind')!r}")
        return frame

    # ------------------------------------------------------------------
    # Run loop: serve control frames until STOP
    # ------------------------------------------------------------------
    async def serve_cluster(self) -> None:
        """Inject, apply membership/peer frames as they arrive, stop on
        the coordinator's STOP (or a generous deadline if it dies)."""
        config = self.config
        loop = asyncio.get_event_loop()
        self.scheduler.schedule(config.inject_seconds, self._stop_injection)
        heartbeats = loop.create_task(self._heartbeats())
        deadline = loop.time() + config.duration + STOP_DEADLINE_SLACK
        try:
            while True:
                try:
                    # A non-positive timeout (deadline already passed)
                    # times out at once.
                    frame = await asyncio.wait_for(
                        read_frame(self._reader, self._key),
                        deadline - loop.time(),
                    )
                except asyncio.TimeoutError:
                    self._record_error(
                        "control plane: no STOP before deadline; self-stopping"
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    self._record_error("control plane: connection lost")
                    return
                kind = frame.get("kind")
                if kind == "stop":
                    return
                if kind == "join":
                    await self._handle_join(frame)
                elif kind == "leave":
                    self._handle_leave(frame)
                elif kind == "peer_update":
                    self._handle_peer_update(frame)
                # Unknown kinds are ignored (forward compatibility).
        finally:
            heartbeats.cancel()

    async def _heartbeats(self) -> None:
        try:
            while True:
                await asyncio.sleep(HEARTBEAT_INTERVAL)
                await self._send(
                    {
                        "kind": "heartbeat",
                        "shard": self.shard_id,
                        "now": self.scheduler.now if self.scheduler else 0.0,
                    }
                )
        except (ConnectionError, OSError):
            return

    async def _send(self, body: Dict[str, Any]) -> None:
        await write_frame(self._writer, self._key, body)

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    async def _handle_join(self, frame: Dict[str, Any]) -> None:
        record = MembershipRecord.from_dict(frame["record"])
        hosting = int(frame.get("host_shard", -1)) == self.shard_id
        result = self.ledger.consider(record)
        if result is not MtmwUpdateResult.ACCEPTED:
            if hosting:
                await self._send(
                    {
                        "kind": "join_ack",
                        "shard": self.shard_id,
                        "node": record.node,
                        "ok": False,
                        "result": result.value,
                    }
                )
            return

        # Fold the new member into topology, PKI, and a successor MTMW —
        # identical on every shard, because all inputs are identical.
        new_topo = self.topology.copy()
        new_topo.add_node(record.node)
        for peer, weight in record.links:
            new_topo.add_edge(record.node, peer, weight)
        self.topology = new_topo
        self.pki.register(record.node)
        self.mtmw = self.mtmw.successor(new_topo, self.pki)

        address = frame.get("address")
        if address is not None:
            self.addresses[record.node] = (address[0], int(address[1]))

        # Local overlays adopt first, so are_neighbors checks pass when
        # anchor links attach below (adoption also floods the successor
        # MTMW over existing links — remote nodes converge both ways).
        for node_id, process in list(self.processes.items()):
            process.overlay.adopt_mtmw(self.mtmw)
        if record.node in self.addresses:
            self.directory.update(record.node, self.addresses[record.node])

        if hosting:
            await self._boot_joiner(record)
        elif record.node in self.addresses:
            # Wire the local halves of the joiner's anchor links.
            # (A departed local node keeps its ``processes`` entry for
            # the report, but its transport is gone.)
            for peer, _weight in record.links:
                if peer in self.processes and peer not in self.departed:
                    self._wire_half(
                        peer, record.node, self.addresses[record.node]
                    )

    async def _boot_joiner(self, record: MembershipRecord) -> None:
        """Boot the joining node in this shard and report its address."""
        node_id = record.node
        await self._boot_node(node_id)
        process = self.processes[node_id]
        self.local_nodes.append(node_id)
        self.joined.append(node_id)
        address = process.address
        self.addresses[node_id] = address
        self.directory.update(node_id, address)

        # Bootstrap discovery: resolve anchor addresses through the
        # shard's seed node over the UDP data plane (the address map is
        # the fallback if the lossy discovery exchange times out).
        seed_node = self.local_nodes[0]
        self._join_nonce += 1
        resolved: Dict[NodeId, Tuple[str, int]] = {}
        if seed_node != node_id and seed_node in self.addresses:
            try:
                resolved = await query_addresses(
                    process.transport,
                    seed_node,
                    self.addresses[seed_node],
                    tuple(peer for peer, _ in record.links),
                    nonce=record.seqno * 1000 + self._join_nonce,
                )
            except LiveRuntimeError:
                resolved = {}
        for peer, _weight in record.links:
            peer_address = resolved.get(peer, self.addresses.get(peer))
            if peer_address is None:
                self._record_error(
                    f"join: no address for anchor {peer!r}; link skipped"
                )
                continue
            self._wire_half(node_id, peer, peer_address)
            # Anchor peers hosted in this shard wire their halves now;
            # remote anchors wire theirs when the broadcast reaches them.
            if peer in self.processes and peer not in self.departed:
                self._wire_half(peer, node_id, address)
        process.overlay.start()
        self.supervisor.adopt(node_id)
        if self.monitor is not None:
            self.monitor.watch(process.overlay)

        # The joiner immediately sources traffic: one priority and one
        # reliable flow aimed across the overlay (gated as post-join).
        others = [n for n in sorted(self.topology.nodes) if n != node_id]
        if others:
            self._launch_flow(node_id, others[len(others) // 2], Semantics.PRIORITY)
            self._launch_flow(node_id, others[len(others) // 3], Semantics.RELIABLE)
        await self._send(
            {
                "kind": "join_ack",
                "shard": self.shard_id,
                "node": node_id,
                "address": list(address),
                "ok": True,
            }
        )

    def _handle_leave(self, frame: Dict[str, Any]) -> None:
        record = MembershipRecord.from_dict(frame["record"])
        if self.ledger.consider(record) is not MtmwUpdateResult.ACCEPTED:
            return
        node = record.node
        new_topo = self.topology.copy()
        new_topo.remove_node(node)
        self.topology = new_topo
        self.mtmw = self.mtmw.successor(new_topo, self.pki)
        # Flows touching the leaver stop everywhere: its own sources
        # drain out, and remote sources must not keep offering traffic
        # to a destination the successor MTMW no longer routes to.
        for generator in self.traffic:
            if node in (generator.source, generator.dest):
                generator.stop()
        if node in self.processes:
            # Drain discipline: traffic stopped above; let in-flight
            # messages land, then retire the node for good.
            self.departed.append(node)
            self.scheduler.schedule(
                LEAVE_DRAIN_GRACE, self.supervisor.retire, node
            )
        self.directory.forget(node)
        self.addresses.pop(node, None)
        for node_id, process in self.processes.items():
            if node_id != node:
                process.overlay.adopt_mtmw(self.mtmw)

    # ------------------------------------------------------------------
    # Cross-shard restart re-announcement
    # ------------------------------------------------------------------
    def announce_restart(self, node_id: NodeId, address: Any) -> None:
        super().announce_restart(node_id, address)
        address = self.addresses[node_id]
        self.directory.update(node_id, address)
        # Reliable path: the coordinator relays a peer_update to every
        # other shard.
        asyncio.get_event_loop().create_task(
            self._send(
                {
                    "kind": "announce",
                    "shard": self.shard_id,
                    "node": node_id,
                    "address": list(address),
                }
            )
        )
        # Fast path: refresh the other shards' seed directories directly
        # over UDP (best-effort; a lost announce only delays discovery).
        process = self.processes.get(node_id)
        if process is None:
            return
        for shard, seed in self.seed_nodes.items():
            if shard == self.shard_id:
                continue
            seed_address = self.addresses.get(seed)
            if seed_address is not None:
                process.transport.sendto_address(
                    encode_datagram(
                        node_id,
                        seed,
                        AddrAnnounce(node_id, address[0], address[1]),
                    ),
                    seed_address,
                )

    def _handle_peer_update(self, frame: Dict[str, Any]) -> None:
        node = _node(frame["node"])
        address = (frame["address"][0], int(frame["address"][1]))
        self.addresses[node] = address
        self.directory.update(node, address)
        for process in self.processes.values():
            try:
                process.transport.update_peer_address(node, address)
            except LiveRuntimeError:
                continue  # this node has no link to the restarted peer
            link = process.overlay.links.get(node)
            if link is not None:
                # Both ends must agree the link restarted (the restarting
                # shard reset its own half already).
                link.por.reset()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def shard_report(self) -> Dict[str, Any]:
        """This shard's JSON report (the coordinator aggregates these).

        Unlike :meth:`LiveDeployment.report`, delivery counts are *not*
        joined here — a flow's destination may live in another process —
        so flows carry only the send side; the coordinator joins them
        against every shard's per-node latency recorders.
        """
        return {
            "shard": self.shard_id,
            "nodes": [n for n in sorted(self.local_nodes, key=str)],
            "joined": list(self.joined),
            "departed": list(self.departed),
            "wall_seconds": self.scheduler.now if self.scheduler else 0.0,
            "flows": [
                {
                    "source": generator.source,
                    "dest": generator.dest,
                    "semantics": generator.semantics.value,
                    "sent": generator.messages_sent,
                    # Joiners (fresh ids, never boot-plan sources) are
                    # gated separately by the coordinator.
                    "post_join": generator.source in self.joined,
                }
                for generator in self.traffic
            ],
            "membership": self.ledger.summary(),
            **self._report_sections(),
        }


async def _worker(payload: Dict[str, Any]) -> None:
    reader, writer = await asyncio.open_connection(
        payload["control_host"], int(payload["control_port"])
    )
    deployment = ShardDeployment(payload, reader, writer)
    try:
        try:
            await deployment.start()
            await deployment.serve_cluster()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            deployment._failed = True
            deployment._record_error(
                f"shard {deployment.shard_id}: {type(exc).__name__}: {exc}"
            )
        finally:
            await deployment.stop()
        try:
            await deployment._send(
                {
                    "kind": "report",
                    "shard": deployment.shard_id,
                    "report": deployment.shard_report(),
                }
            )
        except (ConnectionError, OSError):
            pass  # coordinator gone; exit code still tells the story
    finally:
        writer.close()


def worker_main(payload: Dict[str, Any]) -> None:
    """The ``multiprocessing`` spawn entry point for one shard."""
    asyncio.run(_worker(payload))
