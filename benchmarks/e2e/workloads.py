"""The six workloads: what is built, what offers the load, what is counted.

Names are fixed — later issues cite them.  Each workload is one row of
:data:`WORKLOADS`; ``why`` is the reason it exists (also in ``BENCHMARK.json``
and the README).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.overlay.config import DisseminationMethod
from repro.topology import global_cloud
from repro.workloads.experiment import DEFAULT_PAYLOAD

from benchmarks.e2e.generators import (
    ClosedLoop,
    Generator,
    PacedOpenLoop,
    ReliableOffer,
    SimPoisson,
    make_payloads,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "closed" | "paced" | "reliable" | "sim"
    why: str
    nodes: int = 12
    flooding: bool = False
    k: int = 2
    size_bytes: int = DEFAULT_PAYLOAD
    window: int = 0  # in flight per flow (closed loop)
    rate: float = 0.0  # messages/s (open loop) or share of link capacity (sim)
    #: ``rss_mb`` is read when this many messages have been delivered (every
    #: full-length run gets there), so a faster build is not charged for the
    #: extra messages it moves in the same time.
    rss_at: int = 0

    @property
    def method(self) -> DisseminationMethod:
        if self.flooding:
            return DisseminationMethod.flooding()
        return DisseminationMethod.k_paths(self.k)

    @property
    def live(self) -> bool:
        return self.kind != "sim"

    @property
    def saturating(self) -> bool:
        return self.kind in ("closed", "reliable")


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "link_small", "closed", nodes=2, k=1, size_bytes=64, window=32, rss_at=40_000,
        why="2 nodes, one PoR link, empty payload, closed loop: fixed per-frame "
            "cost (wire, PoR, MAC, syscalls, loop) is nearly all the work",
    ),
    Workload(
        "cloud_kpaths", "closed", window=8, rss_at=12_000,
        why="12-node cloud on live UDP, K=2, 5 flows, 882 B, closed loop: the "
            "multi-hop forward pipeline at saturation with batching in effect",
    ),
    Workload(
        "cloud_flood", "closed", flooding=True, window=4, rss_at=1_200,
        why="same cloud under constrained flooding: fan-out > 1 and most copies "
            "are duplicates, so per-out-link encode and decode-before-dedup show",
    ),
    Workload(
        "cloud_reliable", "reliable", window=4, rss_at=8_000,
        why="36 reliable K=2 flows, 4 in flight each, topped up on a 5 ms poll: signed "
            "E2E ACKs, neighbour ACKs and control frames under CPU-bound load",
    ),
    Workload(
        "cloud_paced", "paced", rate=200.0, rss_at=2_000,
        why="cloud_kpaths set-up, open loop at 200 msg/s (~1/3 CPU): almost no "
            "batching, so added waiting shows in latency, not in throughput",
    ),
    Workload(
        "sim_cloud", "sim", rate=0.2, rss_at=2_500,
        why="the simulator, 5 flows alternating priority+flooding / reliable+K=2: "
            "no codec, sockets or asyncio, so a wire change must read no change",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Open-loop schedule length: far more than any run sends (built up front).
PACED_SCHEDULE_S = 120.0


def reliable_flows(nodes: Sequence[int]) -> List[Tuple[int, int]]:
    """Each node sends to the nodes 3, 6 and 9 places after it."""
    ordered = sorted(nodes)
    n = len(ordered)
    return [
        (source, ordered[(i + step) % n])
        for i, source in enumerate(ordered)
        for step in (3, 6, 9)
    ]


def make_live_generator(spec: Workload, deployment: Any, seed: int, loop: Any) -> Generator:
    """The generator that offers ``spec``'s load to a started deployment."""
    node_of = deployment.node
    payloads = make_payloads(seed, spec.size_bytes) if spec.nodes > 2 else None
    if spec.nodes == 2:
        flows = [tuple(sorted(deployment.topology.nodes))]
    elif spec.kind == "reliable":
        flows = reliable_flows(deployment.topology.nodes)
    else:
        flows = list(global_cloud.EVALUATION_FLOWS)
    if spec.kind == "closed":
        return ClosedLoop(node_of, flows, spec.method, spec.size_bytes, spec.window, payloads)
    if spec.kind == "paced":
        total = int(spec.rate * PACED_SCHEDULE_S)
        return PacedOpenLoop(
            node_of, flows, spec.method, spec.size_bytes, spec.rate, payloads, loop, total
        )
    return ReliableOffer(
        node_of, flows, spec.method, spec.size_bytes, spec.window, payloads, loop
    )


def make_sim_generator(spec: Workload, deployment: Any, seed: int) -> SimPoisson:
    """Five seeded Poisson flows, each offering ``spec.rate`` x link capacity
    (0.2: three flooded flows then load every link to 0.6; at the 0.5 the
    issue names, flooding overloads the links and priority messages drop)."""
    rate = spec.rate * deployment.link_capacity_bps / (spec.size_bytes * 8.0)
    plan = []
    for index, (source, dest) in enumerate(global_cloud.EVALUATION_FLOWS):
        reliable = index % 2 == 1
        method = DisseminationMethod.k_paths(2) if reliable else DisseminationMethod.flooding()
        plan.append((source, dest, reliable, method, rate))
    return SimPoisson(deployment.sim, deployment.network.node, plan, spec.size_bytes, seed)


# ----------------------------------------------------------------------
# Counters the code already exposes
# ----------------------------------------------------------------------
_REGISTRY_COUNTERS = (
    "crypto.verify", "crypto.mac_sign", "crypto.mac_verify",
    "dissemination.flood.calls", "dissemination.flood.fanout",
    "dissemination.kpaths.calls", "dissemination.kpaths.successors",
    "tx.priority.messages", "tx.reliable.messages",
    "tx.e2e_ack.messages", "tx.neighbor_ack.messages",
)


def snapshot_counters(
    nodes: Sequence[Any],
    registries: Sequence[Any],
    pki: Any,
    scheduler: Any,
    transports: Sequence[Any] = (),
) -> Dict[str, float]:
    """Totals of the public counters the per-layer metrics are built from."""
    c: Dict[str, float] = {name: 0.0 for name in _REGISTRY_COUNTERS}
    for registry in registries:
        for name in _REGISTRY_COUNTERS:
            c[name] += registry.counter(name).value
    for key in (
        "datagrams_received", "datagrams_drained", "send_retries", "send_drops",
        "decode_errors", "dispatch_errors",
    ):
        c[key] = float(sum(getattr(t, key) for t in transports))
    for key in (
        "frames_sent", "wire_bytes", "datagrams_sent", "por_data_sent",
        "por_retransmitted", "por_acks_sent", "por_dup_dropped", "macs_rejected",
        "link_tx", "evictions", "expired", "duplicates", "invalid_signatures", "dedup_entries", "route_hits", "route_misses",
    ):
        c[key] = 0.0
    for node in nodes:
        for link in node.links.values():
            por, channel, queue = link.por, link.por.out_channel, link.priority_queue
            c["frames_sent"] += channel.packets_sent
            c["wire_bytes"] += channel.bytes_sent
            c["datagrams_sent"] += getattr(channel, "datagrams_sent", channel.packets_sent)
            c["por_data_sent"] += por.data_sent
            c["por_retransmitted"] += por.data_retransmitted
            c["por_acks_sent"] += por.acks_sent
            c["por_dup_dropped"] += por.duplicates_dropped
            c["macs_rejected"] += por.macs_rejected
            c["link_tx"] += link.data_transmissions
            c["evictions"] += queue.dropped_for_space
            c["expired"] += queue.dropped_expired
        c["duplicates"] += node.priority.duplicates_suppressed + node.reliable.duplicates_dropped
        c["invalid_signatures"] += node.invalid_messages_rejected
        c["dedup_entries"] += len(node.metadata)
        hits, misses, _ = node.routing.route_cache_stats
        c["route_hits"] += hits
        c["route_misses"] += misses
    # The simulated verifier's LRU memo sits behind private names; without
    # them the ratio reads 0 rather than failing the run.
    memo = getattr(getattr(pki, "_sim_verifier", None), "_memo", None)
    c["verify_memo_hits"] = float(getattr(memo, "hits", 0))
    c["verify_memo_misses"] = float(getattr(memo, "misses", 0))
    c["events_run"] = float(scheduler.events_run)
    return c


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counter_metrics(
    before: Dict[str, float], after: Dict[str, float], delivered: int, live: bool
) -> Dict[str, float]:
    """The per-layer metrics that come from counter deltas over the traced
    slices (``dedup_entries_end`` and the error totals are end values).
    Scheduler callbacks belong to ``runtime.scheduler`` on the live runtime
    and to ``sim.engine`` on the simulator."""
    d = {key: after[key] - before.get(key, 0.0) for key in after}
    per_msg = 1.0 / max(delivered, 1)
    data_tx = d["tx.priority.messages"] + d["tx.reliable.messages"]
    events_per_msg = d["events_run"] * per_msg
    return {
        "runtime.scheduler.timers_per_msg": events_per_msg if live else 0.0,
        "sim.engine.events_per_msg": 0.0 if live else events_per_msg,
        "runtime.wire.frames_per_datagram": _ratio(d["frames_sent"], d["datagrams_sent"]),
        "runtime.wire.wire_bytes_per_msg": d["wire_bytes"] * per_msg,
        "runtime.wire.encodes_per_msg": d["frames_sent"] * per_msg,
        "runtime.transport.datagrams_per_msg": d["datagrams_sent"] * per_msg,
        "runtime.transport.drained_share": _ratio(
            d["datagrams_drained"], d["datagrams_received"]
        ),
        "runtime.transport.send_retries": after["send_retries"],
        "runtime.transport.send_drops": after["send_drops"],
        "runtime.transport.decode_errors": after["decode_errors"],
        "link.por.acks_per_data": _ratio(d["por_acks_sent"], d["por_data_sent"]),
        "link.por.retransmit_ratio": _ratio(d["por_retransmitted"], d["por_data_sent"]),
        "link.por.dup_dropped": d["por_dup_dropped"],
        "link.por.macs_rejected": after["macs_rejected"],
        "crypto.mac_ops_per_msg": (d["crypto.mac_sign"] + d["crypto.mac_verify"]) * per_msg,
        "crypto.sig_verifies_per_msg": d["crypto.verify"] * per_msg,
        "crypto.verify_memo_hit_ratio": _ratio(
            d["verify_memo_hits"], d["verify_memo_hits"] + d["verify_memo_misses"]
        ),
        "overlay.node.link_tx_per_msg": d["link_tx"] * per_msg,
        "overlay.node.duplicate_share": _ratio(d["duplicates"], data_tx),
        "overlay.node.invalid_signatures": after["invalid_signatures"],
        "messaging.metadata.dedup_entries_end": after["dedup_entries"],
        "dissemination-routing.route_cache_hit_ratio": _ratio(
            d["route_hits"], d["route_hits"] + d["route_misses"]
        ),
        "dissemination-routing.fanout_per_hop": _ratio(
            d["dissemination.flood.fanout"] + d["dissemination.kpaths.successors"],
            d["dissemination.flood.calls"] + d["dissemination.kpaths.calls"],
        ),
        "messaging.priority.evictions": d["evictions"],
        "messaging.priority.expired": d["expired"],
        "messaging.reliable.e2e_acks_per_msg": d["tx.e2e_ack.messages"] * per_msg,
        "messaging.reliable.neighbor_acks_per_msg": d["tx.neighbor_ack.messages"] * per_msg,
    }
