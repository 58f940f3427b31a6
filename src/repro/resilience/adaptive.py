"""Feedback-controlled defense: adaptive proactive recovery + quarantine.

The paper's defenses run open-loop: proactive recovery rotates on a
fixed schedule (Section V-D) and link quarantine fires on static
thresholds.  This module closes the loop in the style of Hammar &
Stadler's two-level feedback control for intrusion tolerance
(arXiv:2404.01741), using only telemetry the deployment already
collects:

* :class:`BeliefEstimator` — folds per-node anomaly signals (invariant
  violations, PoR out-of-window drops / MAC rejections / bogus ACKs,
  invalid signatures attributed per delivering link, quarantine and
  probation events, live transport drops and unexpected restarts) into
  a decaying compromise score in [0, 1] with a suspect/clear hysteresis
  band and a transition cooldown, so a node never oscillates in and out
  of suspicion within one cooldown.
* The **local controller** (inside :class:`AdaptiveDefense`) maps each
  node's score to actions: *advance* a suspect's recovery slot (or
  *escalate* to an immediate supervisor-driven restart above the
  escalation threshold), *defer* a demonstrably healthy node's slot up
  to ``DEFER_FACTOR_MAX`` times the base period, and *tighten*/*relax*
  the neighbors' quarantine vigilance toward the node.  Every action is
  rate-limited by ``action_cooldown``.
* :class:`GlobalBudget` — the global controller: hard caps on
  simultaneous defense-initiated downtimes and simultaneously tightened
  nodes, with priority ordering (highest belief first) when demand
  exceeds budget.  Externally crashed nodes (chaos faults) count
  against the downtime budget, so the defense never stacks its own
  downtime on top of an already-degraded overlay and MTMW connectivity
  is preserved by construction.

The engine is substrate-agnostic: it reads the same
:class:`~repro.overlay.node.OverlayNode` objects on the deterministic
simulator and the live asyncio/UDP runtime, and actuates through a
pluggable recovery actuator (:class:`SimRecoveryActuator` crashes and
restores through :class:`~repro.overlay.network.OverlayNetwork` with a
fresh software variant per reinstall; :class:`LiveRecoveryActuator`
kills through the :class:`~repro.runtime.supervision.NodeSupervisor`
with a hold and releases after the reinstall downtime).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.byzantine.behaviors import HonestBehavior
from repro.errors import ConfigurationError
from repro.overlay.config import DefenseConfig
from repro.resilience.variants import VariantPool
from repro.sim.engine import PeriodicTimer

#: Belief increment weights per observed anomaly, by signal kind.  One
#: observation of kind ``k`` multiplies the node's *innocence* by
#: ``(1 - w_k)``; a weight of 0.5 means a single invariant violation
#: already lifts a clean node halfway to certain compromise.
SIGNAL_WEIGHTS: Dict[str, float] = {
    "invariant.violation": 0.50,
    "por.out_of_window": 0.06,
    "por.mac_rejected": 0.10,
    "por.bogus_ack": 0.10,
    "msg.invalid": 0.12,
    "link.quarantine": 0.20,
    "link.probation_failure": 0.15,
    "transport.drop": 0.02,
    "supervisor.restart": 0.15,
}

#: Weight applied to signal kinds not listed in the weight table (live
#: substrates may surface extra counters).
DEFAULT_SIGNAL_WEIGHT = 0.05

#: The suspect/clear hysteresis band: a node turns suspect when its
#: belief reaches ``BELIEF_HIGH`` and clear again at ``BELIEF_LOW``.
BELIEF_HIGH = 0.6
BELIEF_LOW = 0.2
#: A healthy node's rotation slot may be deferred until its effective
#: period reaches ``DEFER_FACTOR_MAX`` times the base period.
DEFER_FACTOR_MAX = 3.0
#: Belief above which a suspect is recovered immediately instead of
#: waiting for its advanced rotation slot.
ESCALATE_THRESHOLD = 0.85
#: Quarantine tightening against a suspect: the neighbors' hello
#: timeout toward it is scaled down by this factor ...
TIGHTEN_TIMEOUT_SCALE = 0.5
#: ... and its probation is stretched by this factor.
TIGHTEN_PROBATION_SCALE = 2.0
#: Global budget: simultaneous defense-initiated node downtimes.
MAX_CONCURRENT_DOWN = 1
#: Global budget: nodes under tightened quarantine at once.
MAX_TIGHTENED_NODES = 3


class BeliefState:
    """Belief bookkeeping for one node."""

    __slots__ = ("score", "last_update", "suspect", "last_transition")

    def __init__(self, now: float):
        self.score = 0.0
        self.last_update = now
        self.suspect = False
        self.last_transition = -math.inf


class BeliefEstimator:
    """Per-node compromise beliefs with exponential decay + hysteresis.

    The score is ``1 - Π (1 - w_k)^{count_k}`` over observed anomalies,
    decayed toward the 0 baseline with half-life ``belief_half_life``.
    Observing more anomalies at a fixed time never lowers the score;
    with no signals the score decays below any positive threshold.
    """

    def __init__(
        self,
        config: Optional[DefenseConfig] = None,
        weights: Optional[Dict[str, float]] = None,
    ):
        self.config = config or DefenseConfig()
        self.weights = dict(SIGNAL_WEIGHTS if weights is None else weights)
        self._states: Dict[Any, BeliefState] = {}

    def _state(self, node_id: Any, now: float) -> BeliefState:
        state = self._states.get(node_id)
        if state is None:
            state = self._states[node_id] = BeliefState(now)
        return state

    def _decay(self, state: BeliefState, now: float) -> None:
        dt = now - state.last_update
        if dt > 0:
            state.score *= 0.5 ** (dt / self.config.belief_half_life)
        state.last_update = max(state.last_update, now)

    def _hysteresis(self, state: BeliefState, now: float) -> None:
        cooldown = self.config.action_cooldown
        if state.suspect:
            if (
                state.score <= BELIEF_LOW
                and now - state.last_transition >= cooldown
            ):
                state.suspect = False
                state.last_transition = now
        elif (
            state.score >= BELIEF_HIGH
            and now - state.last_transition >= cooldown
        ):
            state.suspect = True
            state.last_transition = now

    # ------------------------------------------------------------------
    def observe(self, node_id: Any, kind: str, count: float, now: float) -> float:
        """Fold ``count`` anomalies of ``kind`` into the node's belief;
        returns the updated score.  Monotone in ``count`` at fixed time."""
        if count < 0:
            raise ConfigurationError(f"anomaly count must be >= 0 (got {count})")
        state = self._state(node_id, now)
        self._decay(state, now)
        weight = self.weights.get(kind, DEFAULT_SIGNAL_WEIGHT)
        state.score = 1.0 - (1.0 - state.score) * (1.0 - weight) ** count
        self._hysteresis(state, now)
        return state.score

    def score(self, node_id: Any, now: float) -> float:
        """The node's decayed compromise score at ``now`` (also applies
        any due hysteresis transition)."""
        state = self._state(node_id, now)
        self._decay(state, now)
        self._hysteresis(state, now)
        return state.score

    def is_suspect(self, node_id: Any) -> bool:
        """Whether the node sits on the suspect side of the hysteresis
        band (as of its last update — call :meth:`score` first to fold
        in elapsed decay)."""
        state = self._states.get(node_id)
        return state.suspect if state is not None else False

    def snapshot(self) -> Dict[str, float]:
        """Current (last-updated) scores keyed by stringified node id."""
        return {
            str(node_id): round(state.score, 6)
            for node_id, state in sorted(self._states.items(), key=lambda kv: str(kv[0]))
        }


class GlobalBudget:
    """The global controller: caps simultaneous defense actions.

    ``acquire_down`` admits a new defense-initiated downtime only while
    the number of concurrently down nodes — defense-initiated plus
    ``external`` ones already down for other reasons — stays below the
    cap, so the defense itself can never push the overlay past the
    simultaneous-downtime budget MTMW connectivity was provisioned for.
    """

    def __init__(self, max_down: int, max_tightened: int):
        if max_down < 1:
            raise ConfigurationError("max_down must be >= 1")
        if max_tightened < 0:
            raise ConfigurationError("max_tightened must be >= 0")
        self.max_down = max_down
        self.max_tightened = max_tightened
        self.down: Set[Any] = set()
        self.tightened: Set[Any] = set()
        self.peak_down = 0
        self.peak_total_down = 0
        self.down_denied = 0
        self.tighten_denied = 0

    def acquire_down(self, node_id: Any, external: int = 0) -> bool:
        """Admit a new defense-initiated downtime while total downtime
        (defense-initiated plus ``external`` crashes) stays under the
        cap; idempotent for nodes already held down."""
        if node_id in self.down:
            return True
        if len(self.down) + external >= self.max_down:
            self.down_denied += 1
            return False
        self.down.add(node_id)
        self.peak_down = max(self.peak_down, len(self.down))
        self.peak_total_down = max(self.peak_total_down, len(self.down) + external)
        return True

    def release_down(self, node_id: Any) -> None:
        """End a defense-initiated downtime (no-op if absent)."""
        self.down.discard(node_id)

    def acquire_tighten(self, node_id: Any) -> bool:
        """Admit the node to the tightened-vigilance set, up to the
        ``max_tightened`` cap; idempotent for already-tightened nodes."""
        if node_id in self.tightened:
            return True
        if len(self.tightened) >= self.max_tightened:
            self.tighten_denied += 1
            return False
        self.tightened.add(node_id)
        return True

    def release_tighten(self, node_id: Any) -> None:
        """Drop the node from the tightened set (no-op if absent)."""
        self.tightened.discard(node_id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: caps, peaks, denial counts, current holdings."""
        return {
            "max_down": self.max_down,
            "max_tightened": self.max_tightened,
            "peak_down": self.peak_down,
            "peak_total_down": self.peak_total_down,
            "down_denied": self.down_denied,
            "tighten_denied": self.tighten_denied,
            "currently_down": sorted(str(n) for n in self.down),
            "currently_tightened": sorted(str(n) for n in self.tightened),
        }


class SimRecoveryActuator:
    """Recovery actuation on the simulated substrate: crash/restore via
    :class:`~repro.overlay.network.OverlayNetwork`, assigning a fresh
    software variant and clearing any installed Byzantine behaviour on
    every reinstall (Section V-D: a recovered node is honest, on a
    never-used build, until compromised again)."""

    def __init__(
        self,
        network: Any,
        variant_pool: Optional[VariantPool] = None,
        initial_variants: Optional[Dict[Any, int]] = None,
    ):
        self.network = network
        self.pool = variant_pool or VariantPool(families=3)
        self.current_variant: Dict[Any, Tuple[int, int]] = {}
        for node_id in sorted(network.nodes, key=str):
            family = (initial_variants or {}).get(node_id, 0)
            self.current_variant[node_id] = self.pool.fresh(family)
        self.compromises_cleaned = 0

    def take_down(self, node_id: Any) -> None:
        """Crash the node for its reinstall window (counting a cleaned
        compromise if it was running Byzantine behaviour)."""
        node = self.network.node(node_id)
        if not isinstance(node.behavior, HonestBehavior):
            self.compromises_cleaned += 1
        self.network.crash(node_id)

    def restore(self, node_id: Any) -> None:
        """Recover the node with a fresh variant build of the next
        family and a clean (honest) behaviour."""
        node = self.network.node(node_id)
        family, _ = self.current_variant[node_id]
        self.current_variant[node_id] = self.pool.fresh(family + 1)
        node.behavior = HonestBehavior()
        self.network.recover(node_id)


class LiveRecoveryActuator:
    """Recovery actuation on the live substrate: kill through the node
    supervisor with a hold (socket closes, soft state lost, the armed
    invariant monitor observes the crash), then release after the
    reinstall downtime — the watchdog performs the rebind + rejoin.
    Downtime is accounted at release; the supervisor's restart backoff
    adds rebind latency that its own summary reports."""

    def __init__(self, deployment: Any):
        self.deployment = deployment

    def take_down(self, node_id: Any) -> None:
        """Kill the node process through the supervisor with a hold, so
        the watchdog waits for :meth:`restore` before rebinding."""
        self.deployment.supervisor.kill(
            node_id, reason="proactive-recovery", hold=True
        )

    def restore(self, node_id: Any) -> None:
        """Release the hold: the watchdog rebinds and rejoins the node
        once its backoff expires."""
        self.deployment.supervisor.release(node_id)


class AdaptiveDefense:
    """The two-level feedback controller driving recovery + quarantine.

    ``deployment`` duck type (satisfied by both
    :class:`~repro.overlay.network.OverlayNetwork` and
    :class:`~repro.runtime.live.LiveDeployment`): ``sim`` (clock +
    ``schedule``), ``nodes`` (id -> :class:`OverlayNode`), ``stats``.

    With ``adaptive=False`` the engine degrades to a fixed staggered
    rotation through the identical actuation, budget, and downtime
    accounting — the controlled baseline the benchmark compares against.
    """

    def __init__(
        self,
        deployment: Any,
        actuator: Any,
        config: Optional[DefenseConfig] = None,
        adaptive: bool = True,
        monitor: Optional[Any] = None,
        extra_signals: Optional[Callable[[Any], Dict[str, float]]] = None,
        period: Optional[float] = None,
        downtime: Optional[float] = None,
    ):
        self.deployment = deployment
        self.actuator = actuator
        self.config = config or self._resolve_config(deployment)
        self.adaptive = adaptive
        self.monitor = monitor
        self.extra_signals = extra_signals
        self.period = self.config.recovery_period if period is None else period
        self.downtime = (
            self.config.recovery_downtime if downtime is None else downtime
        )
        if self.downtime <= 0 or self.period <= 0:
            raise ConfigurationError("period and downtime must be positive")
        if self.downtime >= self.period:
            raise ConfigurationError("downtime must be below the period")
        self._order: List[Any] = sorted(deployment.nodes, key=str)
        if not self._order:
            raise ConfigurationError("deployment has no nodes to defend")
        self.slot = self.period / len(self._order)
        if not adaptive and self.downtime > self.slot:
            # The fixed rotation takes a node down every slot; reinstalls
            # longer than a slot would overlap, and the budget would then
            # serialize them into a rotation slower than the stated period.
            raise ConfigurationError(
                "period too short: reinstalls would overlap in downtime "
                f"(need period >= downtime * {len(self._order)})"
            )
        self.estimator = BeliefEstimator(self.config)
        self.budget = GlobalBudget(MAX_CONCURRENT_DOWN, MAX_TIGHTENED_NODES)
        # Controller state.
        self._due: Dict[Any, float] = {}
        self._anchor: Dict[Any, float] = {}
        self._last_action: Dict[Any, float] = {}
        self._last_signal: Dict[Tuple[Any, str], float] = {}
        self._down_at: Dict[Any, float] = {}
        self._restore_events: Dict[Any, Any] = {}
        self._proactive_downs: Dict[Any, int] = {n: 0 for n in self._order}
        self._timer: Optional[PeriodicTimer] = None
        self._running = False
        # Observability.
        self.recoveries_completed = 0
        self.deferrals = 0
        self.advances = 0
        self.escalations = 0
        self.tightenings = 0
        self.relaxations = 0
        self.total_downtime_seconds = 0.0

    @staticmethod
    def _resolve_config(deployment: Any) -> DefenseConfig:
        config = getattr(deployment, "config", None)
        overlay = getattr(config, "overlay", config)
        defense = getattr(overlay, "defense", None)
        return defense if defense is not None else DefenseConfig()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Any:
        return self.deployment.stats

    @property
    def sim(self) -> Any:
        return self.deployment.sim

    def proactive_downs(self, node_id: Any) -> int:
        """How many take-downs this controller initiated for a node (the
        live substrate subtracts these from supervisor kill counts so
        our own recoveries do not feed the belief loop)."""
        return self._proactive_downs.get(node_id, 0)

    def concurrent_down(self) -> int:
        """Defense-initiated downtimes currently in progress (the
        invariant monitor checks this against the budget)."""
        return len(self.budget.down)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the controller: staggered initial rotation slots (same
        grid as the fixed scheduler) plus the periodic control tick."""
        if self._running:
            return
        self._running = True
        now = self.sim.now
        for index, node_id in enumerate(self._order):
            self._due[node_id] = now + self.slot * (index + 1)
            self._anchor[node_id] = now
        self._timer = PeriodicTimer(
            self.sim, self.config.control_interval, self._tick
        )
        self._timer.start()
        if self.monitor is not None and hasattr(self.monitor, "attach_defense"):
            self.monitor.attach_defense(self)

    def stop(self) -> None:
        """Disarm: cancel timers, restore any node currently down for a
        defense-initiated reinstall, and relax all tightened links."""
        self._running = False
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        for node_id in sorted(self._restore_events, key=str):
            self._restore_events[node_id].cancel()
            self._restore(node_id)
        for node_id in sorted(self.budget.tightened, key=str):
            self._set_vigilance(node_id, 1.0, 1.0)
            self.relaxations += 1
        self.budget.tightened.clear()

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        self._poll_signals(now)
        self._control(now)
        self._execute(now)

    def _collect(self, node_id: Any) -> Dict[str, float]:
        """Cumulative anomaly totals attributed to ``node_id``, read
        from the neighbors' instruments facing it (identical objects on
        both substrates)."""
        totals: Dict[str, float] = {
            "por.out_of_window": 0.0,
            "por.mac_rejected": 0.0,
            "por.bogus_ack": 0.0,
            "link.quarantine": 0.0,
            "link.probation_failure": 0.0,
            "msg.invalid": 0.0,
        }
        for other_id, other in self.deployment.nodes.items():
            if other_id == node_id:
                continue
            link = other.links.get(node_id)
            if link is None:
                continue
            totals["por.out_of_window"] += link.por.out_of_window_dropped
            totals["por.mac_rejected"] += link.por.macs_rejected
            totals["por.bogus_ack"] += link.por.bogus_acks_rejected
            totals["link.quarantine"] += link.quarantine_count
            totals["link.probation_failure"] += link.probation_failures
            totals["msg.invalid"] += link.invalid_rx
        if self.monitor is not None:
            by_node = getattr(self.monitor, "violations_by_node", None)
            if by_node:
                totals["invariant.violation"] = float(by_node.get(node_id, 0))
        if self.extra_signals is not None:
            extra = self.extra_signals(node_id)
            for kind in sorted(extra):
                totals[kind] = totals.get(kind, 0.0) + extra[kind]
        return totals

    def _poll_signals(self, now: float) -> None:
        for node_id in self._order:
            totals = self._collect(node_id)
            for kind in sorted(totals):
                key = (node_id, kind)
                last = self._last_signal.get(key, 0.0)
                delta = totals[kind] - last
                if delta > 0:
                    self.estimator.observe(node_id, kind, delta, now)
                self._last_signal[key] = max(last, totals[kind])

    def _cooldown_ok(self, node_id: Any, now: float) -> bool:
        return now - self._last_action.get(node_id, -math.inf) >= (
            self.config.action_cooldown
        )

    def _control(self, now: float) -> None:
        """The local controllers: belief -> advance/defer/tighten/relax."""
        stats = self.stats
        for node_id in self._order:
            score = self.estimator.score(node_id, now)
            stats.gauge(f"defense.belief:{node_id}").set(round(score, 6))
            if not self.adaptive:
                continue
            suspect = self.estimator.is_suspect(node_id)
            tightened = node_id in self.budget.tightened
            if suspect and not tightened:
                if self.budget.acquire_tighten(node_id):
                    self._set_vigilance(
                        node_id, TIGHTEN_TIMEOUT_SCALE, TIGHTEN_PROBATION_SCALE
                    )
                    self.tightenings += 1
                    stats.counter("defense.tightened").add()
                    stats.trace.event(now, "defense.tighten", str(node_id))
            elif not suspect and tightened:
                self.budget.release_tighten(node_id)
                self._set_vigilance(node_id, 1.0, 1.0)
                self.relaxations += 1
                stats.counter("defense.relaxed").add()
                stats.trace.event(now, "defense.relax", str(node_id))
            if suspect and self._due[node_id] > now and self._cooldown_ok(node_id, now):
                # Advance the suspect's rotation slot; above the
                # escalation threshold this is an immediate
                # supervisor-driven (live) / forced (sim) restart.
                self._due[node_id] = now
                self._last_action[node_id] = now
                if score >= ESCALATE_THRESHOLD:
                    self.escalations += 1
                    stats.counter("defense.escalations").add()
                    stats.trace.event(now, "defense.escalate", str(node_id))
                else:
                    self.advances += 1
                    stats.counter("defense.advances").add()
                    stats.trace.event(now, "defense.advance", str(node_id))

    def _set_vigilance(
        self, node_id: Any, timeout_scale: float, probation_scale: float
    ) -> None:
        """Point every neighbor's liveness thresholds at ``node_id``."""
        for other_id, other in sorted(
            self.deployment.nodes.items(), key=lambda kv: str(kv[0])
        ):
            if other_id != node_id:
                other.set_link_vigilance(node_id, timeout_scale, probation_scale)

    def _execute(self, now: float) -> None:
        """Run due recoveries under the global budget, highest belief
        first (the priority order when demand exceeds budget)."""
        nodes = self.deployment.nodes
        due = [
            n
            for n in self._order
            if self._due[n] <= now and n not in self.budget.down
        ]
        due.sort(key=lambda n: (-self.estimator.score(n, now), str(n)))
        for node_id in due:
            if nodes[node_id].crashed:
                # Already down for another reason (chaos, supervisor);
                # recovering it now would double-charge the downtime.
                self._due[node_id] = now + self.slot
                continue
            score = self.estimator.score(node_id, now)
            if (
                self.adaptive
                and score <= BELIEF_LOW
                and now + self.slot - self._anchor[node_id]
                <= self.period * DEFER_FACTOR_MAX
            ):
                # Demonstrably healthy: defer one slot, bounded by the
                # stretched-period cap.
                self._due[node_id] = now + self.slot
                self.deferrals += 1
                self.stats.counter("defense.deferrals").add()
                continue
            external = sum(
                1
                for other_id, other in nodes.items()
                if other.crashed and other_id not in self.budget.down
            )
            if not self.budget.acquire_down(node_id, external=external):
                self.stats.counter("defense.budget_denied").add()
                continue  # stays due; retried next tick by priority
            self._take_down(node_id, now)

    def _take_down(self, node_id: Any, now: float) -> None:
        self._down_at[node_id] = now
        self._proactive_downs[node_id] += 1
        self.stats.counter("defense.recoveries").add()
        self.stats.trace.event(now, "defense.take_down", str(node_id))
        self.actuator.take_down(node_id)
        self._restore_events[node_id] = self.sim.schedule(
            self.downtime, self._restore, node_id
        )
        self.stats.gauge("defense.concurrent_down").set(
            len(self.budget.down)
        )

    def _restore(self, node_id: Any) -> None:
        self._restore_events.pop(node_id, None)
        now = self.sim.now
        self.actuator.restore(node_id)
        self.budget.release_down(node_id)
        self._anchor[node_id] = now
        self._due[node_id] = now + self.period
        self.recoveries_completed += 1
        down_at = self._down_at.pop(node_id, None)
        if down_at is not None:
            # One completed reinstall's downtime: a per-node series plus
            # the aggregate gauge and counter that ``repro stats``
            # reports downtime budgets from.
            downtime = now - down_at
            self.total_downtime_seconds += downtime
            self.stats.series(f"recovery-downtime:{node_id}").record(now, downtime)
            self.stats.gauge("recovery.downtime_seconds_total").add(downtime)
            self.stats.counter("recovery.completed").add()
        self.stats.trace.event(now, "defense.restore", str(node_id))
        self.stats.gauge("defense.concurrent_down").set(
            len(self.budget.down)
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-serializable controller outcome (CLI + LiveReport)."""
        return {
            "adaptive": self.adaptive,
            "period": self.period,
            "downtime": self.downtime,
            "recoveries_completed": self.recoveries_completed,
            "total_downtime_seconds": round(self.total_downtime_seconds, 6),
            "deferrals": self.deferrals,
            "advances": self.advances,
            "escalations": self.escalations,
            "tightenings": self.tightenings,
            "relaxations": self.relaxations,
            "budget": self.budget.to_dict(),
            "beliefs": self.estimator.snapshot(),
            "suspects": sorted(
                str(n) for n in self._order if self.estimator.is_suspect(n)
            ),
        }
