"""The overload sweep: goodput and tail latency versus offered load.

For each admission arm ("on" / "off") and each load multiplier, a fresh
seeded simulation runs the :class:`~repro.clients.generators.ClientTier`
population workload against a chordal-ring overlay and measures what the
destinations actually receive.  Without admission control the Zipf-hot
destinations' queues overflow under surging offered load: messages that
already consumed interior-link transmissions are dropped at the last
hop, wasted bandwidth crowds out deliverable traffic, and goodput
collapses while tail latency blows up.  With the admission stage in
front of Priority Messaging, offered load is throttled to roughly the
sustainable rate at the *source*, so goodput holds near the 1x level and
latency stays bounded no matter the offered multiplier.

The sweep is deterministic given its seed: every stage builds its own
:class:`~repro.overlay.network.OverlayNetwork` (own ``Simulator``, own
RNG registry) so arms and multipliers cannot perturb one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clients.generators import (
    ClientTier,
    ClientWorkloadConfig,
    ranked_destinations,
)
from repro.messaging.admission import AdmissionConfig
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.stats import LatencyRecorder
from repro.topology import generators


@dataclass
class OverloadStage:
    """Measured outcome of one (admission arm, multiplier) stage."""

    multiplier: float
    admission: bool
    duration: float
    offered: int
    delivered: int
    goodput_msgs: float  # deliveries/second over the offered window
    p50_ms: float
    p99_ms: float
    mean_ms: float
    outcomes: Dict[str, int] = field(default_factory=dict)
    admission_totals: Dict[str, int] = field(default_factory=dict)
    queue_dropped: int = 0
    queue_expired: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly stage record (ratios rounded for the report)."""
        return {
            "multiplier": self.multiplier,
            "admission": self.admission,
            "duration_s": self.duration,
            "offered": self.offered,
            "delivered": self.delivered,
            "delivery_ratio": round(
                self.delivered / self.offered if self.offered else 0.0, 4
            ),
            "goodput_msgs_per_s": round(self.goodput_msgs, 2),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "mean_ms": round(self.mean_ms, 2),
            "outcomes": dict(self.outcomes),
            "admission_totals": dict(self.admission_totals),
            "queue_dropped": self.queue_dropped,
            "queue_expired": self.queue_expired,
        }


#: The sweep's default admission tuning.  Sized for the benchmark-scale
#: deployment (16 nodes, ~25 clients/node, 1x tier rate in the low
#: hundreds of bursts/s): per-source allowance spans 0.5-3 msg/s with a
#: small burst allowance, and the park buffer is a shallow shock
#: absorber (single-message release batches) rather than a second
#: queue.  The 1x workload is comfortably admitted; 10x is mostly shed
#: at the source.
OVERLOAD_ADMISSION = AdmissionConfig(
    capacity_rate=25.0,
    floor_min=0.5,
    floor_max=3.0,
    burst_tokens=3.0,
    surge_max=1.5,
    park_capacity=32,
    park_timeout=0.3,
    release_batch=1,
    park_low=0.15,
    park_high=0.30,
    reject_low=0.40,
    reject_high=0.60,
)


# ----------------------------------------------------------------------
# The sweep driver (shared with repro.clients.slo)
# ----------------------------------------------------------------------
def stage_network(
    *,
    seed: int,
    nodes: int,
    admission: Optional[AdmissionConfig],
    link_bandwidth_bps: float,
) -> OverlayNetwork:
    """A fresh seeded chordal-ring overlay for one sweep stage."""
    config = OverlayConfig(
        admission=admission, link_bandwidth_bps=link_bandwidth_bps
    )
    topology = generators.chordal_ring(nodes, chords=2, weight=0.001)
    return OverlayNetwork.build(topology, config, seed=seed)


def run_tier(net: OverlayNetwork, tier: Any, duration: float, drain: float) -> None:
    """Offer ``tier``'s load for ``duration``, then let the network
    drain with no new offers."""
    tier.start()
    net.run(duration)
    tier.stop()
    net.run(drain)


_ADMISSION_KEYS = (
    "offered",
    "admitted",
    "parked",
    "rejected",
    "evicted",
    "released",
    "expired",
    "cleared",
)


def admission_totals(net: OverlayNetwork) -> Dict[str, int]:
    """Network-wide offer counters (all zero with admission off)."""
    totals = {key: 0 for key in _ADMISSION_KEYS}
    for node in net.nodes.values():
        if node.admission is not None:
            snapshot = node.admission.snapshot()
            for key in _ADMISSION_KEYS:
                totals[key] += snapshot[key]
    return totals


def run_sweep(
    arms: Sequence[Tuple[str, Any]],
    multipliers: Sequence[float],
    run_stage: Callable[[Any, float], Any],
    progress: Optional[Any] = None,
) -> List[Any]:
    """``run_stage(arm, multiplier)`` for every ``(label, arm)`` in
    ``arms`` x every multiplier, in that order; ``progress`` (if given)
    is told which stage is about to run."""
    stages = []
    for label, arm in arms:
        for multiplier in multipliers:
            if progress is not None:
                progress(f"{label} x{multiplier:g}")
            stages.append(run_stage(arm, multiplier))
    return stages


def stage_for(stages: Sequence[Any], arm: str, on: bool, multiplier: float) -> Any:
    """The first stage whose boolean ``arm`` attribute is ``on`` at
    ``multiplier``, or None."""
    for stage in stages:
        if getattr(stage, arm) is on and stage.multiplier == multiplier:
            return stage
    return None


def run_overload(
    *,
    seed: int = 0,
    nodes: int = 8,
    duration: float = 20.0,
    drain: float = 5.0,
    base_rate: float = 15.0,
    multipliers: Sequence[float] = (1.0, 2.0, 4.0, 7.0, 10.0),
    workload: Optional[ClientWorkloadConfig] = None,
    admission: Optional[AdmissionConfig] = None,
    include_off: bool = True,
    k: int = 2,
    link_bandwidth_bps: float = 3e5,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Sweep offered load over ``multipliers`` with admission on and off.

    ``base_rate`` is the 1x burst-arrival rate for the whole tier;
    offered *messages* scale by the mean burst-train length on top of
    it.  Returns a JSON-ready report whose ``summary`` holds the
    headline ratios: each arm's goodput at the highest multiplier
    relative to its own 1x goodput.
    """
    # Client messages carry a delivery deadline by default: overload is
    # only *visible* as lost goodput when messages stuck behind saturated
    # queues die after consuming interior-link capacity (the congestion-
    # collapse mechanism), instead of arriving arbitrarily late.
    workload = workload or ClientWorkloadConfig(
        arrival_rate=base_rate, expire_after=3.0
    )
    admission = admission or OVERLOAD_ADMISSION
    method = DisseminationMethod.k_paths(k)

    def run_stage(arm: Optional[AdmissionConfig], multiplier: float) -> OverloadStage:
        net = stage_network(
            seed=seed, nodes=nodes, admission=arm,
            link_bandwidth_bps=link_bandwidth_bps,
        )

        # One recorder for the whole client tier, fed by a delivery
        # observer on every node — client messages are tagged in their
        # payload, so protocol traffic and any other flows never pollute
        # the numbers.
        recorder = LatencyRecorder("overload")

        def observe(message: Any, node: Any) -> None:
            payload = message.payload
            if isinstance(payload, str) and payload.startswith("clients:"):
                recorder.record(node.sim.now, node.sim.now - message.sent_at)

        for node in net.nodes.values():
            node.delivery_observers.append(observe)

        tier = ClientTier(
            net,
            sorted(net.nodes),
            ranked_destinations(net.sim, net.nodes, "overload:dest-rank"),
            config=replace(workload, arrival_rate=base_rate * multiplier),
            method=method,
        )
        run_tier(net, tier, duration, drain)

        queues = [
            link.priority_queue
            for node in net.nodes.values()
            for link in node.links.values()
        ]
        delivered = recorder.count
        latencies_ms = sorted(lat * 1000.0 for lat in recorder.latencies())

        def pct(p: float) -> float:
            if not latencies_ms:
                return 0.0
            last = len(latencies_ms) - 1
            return latencies_ms[min(last, int(round(p / 100.0 * last)))]

        return OverloadStage(
            multiplier=multiplier,
            admission=arm is not None,
            duration=duration,
            offered=tier.offered,
            delivered=delivered,
            goodput_msgs=delivered / duration if duration > 0 else 0.0,
            p50_ms=pct(50.0),
            p99_ms=pct(99.0),
            mean_ms=recorder.mean() * 1000.0,
            outcomes=dict(tier.outcomes),
            admission_totals=admission_totals(net),
            queue_dropped=sum(queue.dropped_for_space for queue in queues),
            queue_expired=sum(queue.dropped_expired for queue in queues),
        )

    arms: List[Tuple[str, Optional[AdmissionConfig]]] = [("admission=on", admission)]
    if include_off:
        arms.append(("admission=off", None))
    stages: List[OverloadStage] = run_sweep(arms, multipliers, run_stage, progress)

    low, high = min(multipliers), max(multipliers)

    def arm_summary(arm_on: bool) -> Dict[str, float]:
        base = stage_for(stages, "admission", arm_on, low)
        peak = stage_for(stages, "admission", arm_on, high)
        if base is None or peak is None:
            return {"goodput_ratio": 0.0}
        ratio = peak.goodput_msgs / base.goodput_msgs if base.goodput_msgs > 0 else 0.0
        return {
            "goodput_ratio": round(ratio, 4),
            "delivery_ratio_at_1x": round(
                base.delivered / base.offered if base.offered else 0.0, 4
            ),
            "delivery_ratio_at_max": round(
                peak.delivered / peak.offered if peak.offered else 0.0, 4
            ),
            "p50_ms_at_max": round(peak.p50_ms, 2),
            "p99_ms_at_max": round(peak.p99_ms, 2),
        }

    on = arm_summary(True)
    summary: Dict[str, Any] = {
        "offered_total": sum(stage.offered for stage in stages),
        "max_multiplier": high,
        "goodput_ratio_on": on["goodput_ratio"],
        "p99_ms_on_at_max": on.get("p99_ms_at_max", 0.0),
        "admission_on": on,
    }
    if include_off:
        off = arm_summary(False)
        summary["goodput_ratio_off"] = off["goodput_ratio"]
        summary["p99_ms_off_at_max"] = off.get("p99_ms_at_max", 0.0)
        summary["admission_off"] = off

    return {
        "params": {
            "seed": seed,
            "nodes": nodes,
            "duration_s": duration,
            "drain_s": drain,
            "base_rate": base_rate,
            "multipliers": list(multipliers),
            "k": k,
            "size_bytes": workload.size_bytes,
            "link_bandwidth_bps": link_bandwidth_bps,
            "expire_after_s": workload.expire_after,
        },
        "stages": [stage.to_dict() for stage in stages],
        "summary": summary,
    }
