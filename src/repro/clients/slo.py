"""The "SLO under fire" sweep: client-visible success vs chaos + load.

For each session arm ("on" = full reliability machinery, "off" = naive
single-attempt clients) and each offered-load multiplier, a fresh seeded
simulation runs the session tier against a chordal-ring overlay with the
DoS-resistant admission stage in front AND the live-soak chaos preset
(wire noise, crashes, partitions) injected for the whole window.  The
measurement is end-to-end and client-visible: a request only counts as
a success when the destination's acknowledgment reaches the session
before its deadline.

What the arms demonstrate:

* **sessions on** — budgeted retries + ingress failover restore the
  client-visible success ratio to >= 99% under soak chaos at base load,
  while the global retry budget mechanically bounds amplification
  (offered interior load <= (1 + budget) x base) so the retries cannot
  recreate the metastable congestion collapse the PR 9 sweep
  quantified.  At 10x offered load the tier degrades gracefully —
  priority downgrades, then shedding — and *delivered* goodput holds at
  or above its 1x level instead of collapsing.
* **sessions off** — the same workload with one attempt per request and
  no failover: every ingress crash, parked-then-expired offer, or lost
  ack is a silent client-visible failure.

Every stage is deterministic given its seed: each builds its own
network, chaos schedule, and RNG registry, so arms and multipliers
cannot perturb one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.clients.generators import ranked_destinations
from repro.clients.overload import (
    OVERLOAD_ADMISSION,
    admission_totals,
    run_sweep,
    run_tier,
    stage_for,
    stage_network,
)
from repro.clients.session import (
    ATTEMPT_TIMEOUT,
    DEADLINE,
    METHOD_K,
    REQUEST_SIZE_BYTES,
    SESSIONS_PER_NODE,
    SessionConfig,
    SessionTier,
    SessionWorkloadConfig,
)
from repro.faults.chaos import ChaosEngine
from repro.faults.schedule import ChaosSpec
from repro.messaging.admission import AdmissionConfig

#: The SLO sweep's admission tuning: the overload sweep's, but with the
#: two-key (per-destination) meter enabled — Zipf-hot destinations are
#: throttled at the ingress edge, not in the interior queues.
SLO_ADMISSION = replace(OVERLOAD_ADMISSION, per_destination=True)

#: The naive-client arm: one attempt, no retry budget, no failover.
SESSIONS_OFF = SessionConfig(max_attempts=1, retry_budget=0.0, backups=0)


@dataclass
class SloStage:
    """Measured outcome of one (sessions arm, multiplier) stage."""

    multiplier: float
    sessions: bool
    duration: float
    requests: int
    succeeded: int
    failed: int
    shed: int
    success_ratio: float
    goodput_rps: float  # acked requests/second over the offered window
    amplification: float
    base_offers: int
    retry_offers: int
    failovers: int
    nacks_consumed: int
    breaker_opens: int
    downgraded: int
    duplicates_suppressed: int
    violations: int
    chaos: Dict[str, int] = field(default_factory=dict)
    tier: Dict[str, Any] = field(default_factory=dict)
    admission_totals: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable stage record for reports and artifacts."""
        return {
            "multiplier": self.multiplier,
            "sessions": self.sessions,
            "duration_s": self.duration,
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "shed": self.shed,
            "success_ratio": round(self.success_ratio, 4),
            "goodput_rps": round(self.goodput_rps, 2),
            "amplification": round(self.amplification, 4),
            "base_offers": self.base_offers,
            "retry_offers": self.retry_offers,
            "failovers": self.failovers,
            "nacks_consumed": self.nacks_consumed,
            "breaker_opens": self.breaker_opens,
            "downgraded": self.downgraded,
            "duplicates_suppressed": self.duplicates_suppressed,
            "violations": self.violations,
            "chaos": dict(self.chaos),
            "tier": dict(self.tier),
            "admission_totals": dict(self.admission_totals),
        }


def run_slo(
    *,
    seed: int = 0,
    nodes: int = 16,
    duration: float = 30.0,
    drain: float = 8.0,
    base_rate: float = 60.0,
    multipliers: Sequence[float] = (1.0, 4.0, 10.0),
    intensity: float = 2.0,
    workload: Optional[SessionWorkloadConfig] = None,
    session: Optional[SessionConfig] = None,
    admission: Optional[AdmissionConfig] = None,
    include_off: bool = True,
    link_bandwidth_bps: float = 3e5,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Sweep (sessions on/off) x multipliers under soak chaos.

    ``base_rate`` is the 1x tier-wide request arrival rate.  Returns a
    JSON-ready report whose ``summary`` holds the headline gates:
    sessions-on success at 1x (the >= 99% SLO), the sessions-off
    baseline, worst-case amplification across the on arm (must stay
    within ``1 + retry_budget``), delivered-goodput ratio at the top
    multiplier, and total invariant violations.
    """
    workload = workload or SessionWorkloadConfig()
    session = session or workload.session
    admission = admission if admission is not None else SLO_ADMISSION

    def run_stage(sessions_on: bool, multiplier: float) -> SloStage:
        net = stage_network(
            seed=seed, nodes=nodes, admission=admission,
            link_bandwidth_bps=link_bandwidth_bps,
        )
        engine = None
        if intensity > 0:
            schedule = ChaosSpec.live_soak(duration, intensity=intensity).generate(
                net.topology, seed=seed
            )
            engine = ChaosEngine(net, schedule)
            engine.arm()

        tier = SessionTier(
            net,
            sorted(net.nodes),
            ranked_destinations(net.sim, net.nodes, "slo:dest-rank"),
            workload=replace(
                workload,
                arrival_rate=base_rate * multiplier,
                session=session if sessions_on else SESSIONS_OFF,
            ),
            name="on" if sessions_on else "off",
        )
        run_tier(net, tier, duration, drain)
        tier.finalize()

        snapshot = tier.snapshot()
        return SloStage(
            multiplier=multiplier,
            sessions=sessions_on,
            duration=duration,
            requests=snapshot["requests"],
            succeeded=snapshot["succeeded"],
            failed=snapshot["failed"],
            shed=snapshot["shed"],
            success_ratio=snapshot["success_ratio"],
            goodput_rps=snapshot["succeeded"] / duration if duration > 0 else 0.0,
            amplification=snapshot["amplification"],
            base_offers=snapshot["base_offers"],
            retry_offers=snapshot["retry_offers"],
            failovers=snapshot["failovers"],
            nacks_consumed=snapshot["nacks_consumed"],
            breaker_opens=snapshot["breaker_opens"],
            downgraded=snapshot["downgraded"],
            duplicates_suppressed=snapshot["duplicates_suppressed"],
            violations=snapshot["invariant_violations"],
            chaos=dict(engine.counts) if engine is not None else {},
            tier=snapshot,
            admission_totals=admission_totals(net),
        )

    arms = [("sessions=on", True)]
    if include_off:
        arms.append(("sessions=off", False))
    stages: List[SloStage] = run_sweep(arms, multipliers, run_stage, progress)

    low, high = min(multipliers), max(multipliers)
    on_base = stage_for(stages, "sessions", True, low)
    on_peak = stage_for(stages, "sessions", True, high)
    on_stages = [s for s in stages if s.sessions]
    budget = session.retry_budget
    summary: Dict[str, Any] = {
        "requests_total": sum(stage.requests for stage in stages),
        "max_multiplier": high,
        "retry_budget": budget,
        "success_on_at_1x": round(
            on_base.success_ratio if on_base else 0.0, 4
        ),
        "max_amplification_on": round(
            max((s.amplification for s in on_stages), default=1.0), 4
        ),
        "amplification_bound": round(1.0 + budget, 4),
        "goodput_ratio_on": round(
            on_peak.goodput_rps / on_base.goodput_rps
            if on_base and on_peak and on_base.goodput_rps > 0
            else 0.0,
            4,
        ),
        "violations": sum(stage.violations for stage in stages),
        "failovers_on": sum(s.failovers for s in on_stages),
        "retries_on": sum(s.retry_offers for s in on_stages),
    }
    if include_off:
        off_base = stage_for(stages, "sessions", False, low)
        summary["success_off_at_1x"] = round(
            off_base.success_ratio if off_base else 0.0, 4
        )

    return {
        "params": {
            "seed": seed,
            "nodes": nodes,
            "duration_s": duration,
            "drain_s": drain,
            "base_rate": base_rate,
            "multipliers": list(multipliers),
            "chaos_intensity": intensity,
            "sessions_per_node": SESSIONS_PER_NODE,
            "size_bytes": REQUEST_SIZE_BYTES,
            "method_k": METHOD_K,
            "deadline_s": DEADLINE,
            "attempt_timeout_s": ATTEMPT_TIMEOUT,
            "max_attempts": session.max_attempts,
            "retry_budget": session.retry_budget,
            "per_destination_admission": (
                admission.per_destination if admission else False
            ),
            "link_bandwidth_bps": link_bandwidth_bps,
        },
        "stages": [stage.to_dict() for stage in stages],
        "summary": summary,
    }


__all__ = ["SESSIONS_OFF", "SLO_ADMISSION", "SloStage", "run_slo"]
