"""Client-side reliability sessions: budgeted retries, ingress failover,
and graceful degradation under fire.

PR 9's client tier measures what the overlay delivers; this layer closes
the loop at the *edge* the way PR 6 closed it in the interior.  A
:class:`Session` is a small reliability state machine in front of
:meth:`OverlayNode.offer_priority` that turns "fire one priority message
and hope" into a client-visible request/acknowledgment contract:

* **Per-request deadline budget** — every request carries an absolute
  deadline; attempts retry with exponential backoff and *decorrelated
  jitter* (``sleep = min(cap, uniform(base, 3 * prev))``) until the
  deadline, the attempt cap, or the retry budget runs out.
* **Global retry budget (the anti-retry-storm invariant)** — a tier-wide
  token bucket accrues ``retry_budget`` tokens per *base* request and
  every retry spends exactly one, so total offered interior load can
  never exceed ``(1 + retry_budget) x base`` — mechanically, not by
  tuning.  Naive client retries are precisely the load-amplification
  mechanism behind metastable congestion collapse; this bound is what
  makes retries safe to enable under overload.
* **Idempotency keys + destination-side dedup window** — every request
  payload carries a unique key; the destination responder processes a
  key at most once per window and (re-)acks every copy, so a retry can
  rescue a lost ack without ever double-delivering to the application.
* **Ingress health tracking with failover** — each session has a home
  ingress plus backups; crash, isolation (all links quarantined),
  admission rejects, typed admission NACKs, and ack-probe timeouts all
  feed a per-ingress circuit breaker (CLOSED -> OPEN -> HALF_OPEN), and
  attempts route to the first healthy candidate.
* **Graceful-degradation ladder** — when the ingress admission state or
  the retry budget tightens, new requests are *downgraded* in priority
  toward a floor first; only when the budget is exhausted *and* the
  ingress is rejecting are they shed outright (fail-fast without adding
  interior load).

The tier runs unchanged on the deterministic simulator, the live
asyncio runtime, and the sharded cluster: it only uses the substrate
duck type (``.sim``, ``.node()``, ``.nodes``, ``.stats``) plus the
overlay's ``delivery_observers`` / ``nack_observers`` taps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clients.generators import ZIPF_EXPONENT, zipf_cdf
from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.messaging.admission import AdmissionOutcome, AdmissionState
from repro.overlay.config import DisseminationMethod

#: Payload tags.  Requests and acks are plain strings so they survive the
#: live wire codec (None/bytes/str) and the sharded cluster unchanged.
REQUEST_PREFIX = "sreq:"
ACK_PREFIX = "sack:"
#: Wire size of a session ack (small, high-priority control-ish reply).
ACK_SIZE_BYTES = 32


#: Total per-request budget: the request fails when it cannot finish
#: (including backoff) before ``created_at + DEADLINE``.
DEADLINE = 4.0
#: Per-attempt ack timeout (the probe timeout feeding the breaker).
ATTEMPT_TIMEOUT = 0.8
#: Retry-budget bucket depth: how much unused retry allowance can bank up.
RETRY_BURST = 32.0
#: Decorrelated-jitter backoff: sleep = min(cap, uniform(base, 3*prev)).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 0.8
#: Request priority and the degradation-ladder floor it shrinks to.
REQUEST_PRIORITY = 6
PRIORITY_FLOOR = 2
#: Priority of the destination's ack (must outrank data under load).
ACK_PRIORITY = 9
#: Destination-side idempotency window.  Must comfortably exceed
#: ``DEADLINE`` so every possible retry of a key lands in-window.
DEDUP_WINDOW = 30.0
#: Circuit breaker: consecutive failures to open, and the cooloff
#: after which a half-open trial is allowed.
BREAKER_THRESHOLD = 3
BREAKER_COOLOFF = 1.0
#: Per-message expiration for request attempts (clamped to the
#: remaining deadline).
REQUEST_EXPIRE = 1.0

# The session workload's shape.
SESSIONS_PER_NODE = 2
#: Wire size of a session request, bytes.
REQUEST_SIZE_BYTES = 200
#: Requests travel k node-disjoint paths.
METHOD_K = 2


@dataclass(frozen=True)
class SessionConfig:
    """Reliability knobs of one client session (the fixed timers,
    priorities and breaker settings are the module constants above)."""

    #: Hard cap on attempts per request (first attempt included).
    max_attempts: int = 5
    #: Retry tokens accrued per base request (the amplification bound:
    #: offered <= (1 + retry_budget) x base, enforced mechanically).
    retry_budget: float = 0.25
    #: Backup ingress nodes per session (failover candidates).
    backups: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.retry_budget < 0:
            raise ConfigurationError("retry_budget must be >= 0")
        if self.backups < 0:
            raise ConfigurationError("backups must be >= 0")


@dataclass(frozen=True)
class SessionWorkloadConfig:
    """Open-loop session workload across the tier."""

    #: Base request arrivals/second across the whole tier.
    arrival_rate: float = 20.0
    session: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")


class RetryBudget:
    """The tier-global anti-retry-storm token bucket.

    Starts *empty*: tokens accrue only as base requests are offered
    (``ratio`` per base offer, capped at ``burst``), and each retry
    spends exactly one.  Therefore at any instant::

        retries_spent <= ratio * base_offers

    which is the amplification invariant — no failure/NACK pattern can
    break it, because the tokens simply do not exist.
    """

    __slots__ = ("ratio", "burst", "tokens", "accrued", "spent")

    def __init__(self, ratio: float, burst: float):
        self.ratio = ratio
        self.burst = burst
        self.tokens = 0.0
        self.accrued = 0.0
        self.spent = 0

    def accrue(self) -> None:
        """One base request was offered."""
        self.tokens = min(self.burst, self.tokens + self.ratio)
        self.accrued += self.ratio

    def try_spend(self) -> bool:
        """Reserve one retry; False when the budget is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        return False


class CircuitBreaker:
    """Per-ingress breaker: CLOSED -> OPEN on consecutive failures,
    OPEN -> HALF_OPEN after the cooloff (one trial), HALF_OPEN -> CLOSED
    on success or straight back to OPEN on failure."""

    __slots__ = (
        "threshold", "cooloff", "failures", "opened_at", "half_open",
        "opens",
    )

    def __init__(self, threshold: int, cooloff: float):
        self.threshold = threshold
        self.cooloff = cooloff
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.half_open = False
        self.opens = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        return "half_open" if self.half_open else "open"

    def allow(self, now: float) -> bool:
        """Whether an attempt may use this ingress right now (admits
        exactly one half-open trial once the cooloff has elapsed)."""
        if self.opened_at is None:
            return True
        if self.half_open:
            return False  # one trial already in flight
        if now - self.opened_at >= self.cooloff:
            self.half_open = True  # admit exactly one trial attempt
            return True
        return False

    def record_success(self) -> None:
        """An attempt through this ingress succeeded: close the breaker."""
        self.failures = 0
        self.opened_at = None
        self.half_open = False

    def record_failure(self, now: float) -> None:
        """An attempt through this ingress failed: count toward the
        threshold, or re-open the cooloff clock if already open."""
        self.failures += 1
        if self.opened_at is not None:
            # Half-open trial failed (or a straggler): re-open the clock.
            self.opened_at = now
            self.half_open = False
            return
        if self.failures >= self.threshold:
            self.opened_at = now
            self.half_open = False
            self.opens += 1


class _Request:
    """One in-flight client request (the per-request state machine)."""

    __slots__ = (
        "key", "dest", "session", "created_at", "deadline_at", "attempts",
        "retries", "ingress", "done", "prev_backoff", "timer", "retry_timer",
    )

    def __init__(self, key: str, dest: Any, session: "Session", now: float, deadline: float):
        self.key = key
        self.dest = dest
        self.session = session
        self.created_at = now
        self.deadline_at = now + deadline
        self.attempts = 0
        self.retries = 0
        self.ingress: Any = None
        self.done = False
        self.prev_backoff = 0.0
        self.timer: Any = None
        self.retry_timer: Any = None

    def cancel_timers(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.retry_timer is not None:
            self.retry_timer.cancel()
            self.retry_timer = None


class Session:
    """One client session: a home ingress, its backups, and the retry /
    failover / degradation machinery around each submitted request."""

    def __init__(
        self,
        tier: "SessionTier",
        name: str,
        home: Any,
        backups: Tuple[Any, ...],
        rng: Any,
    ):
        self.tier = tier
        self.name = name
        self.home = home
        self.backups = backups
        self.rng = rng
        self.submitted = 0
        self.succeeded = 0
        self.failed = 0
        self.shed = 0

    # ------------------------------------------------------------------
    def submit(self, dest: Any) -> Optional[_Request]:
        """Start one request toward ``dest``; None when shed."""
        tier = self.tier
        now = tier.net.sim.now
        self.submitted += 1
        tier.requests += 1
        # Degradation ladder, bottom rung: shed before offering when the
        # retry budget is dry and the preferred ingress is rejecting —
        # a request that would burn an interior transmission only to be
        # rejected or time out unrecoverably.
        if tier.budget.ratio > 0:
            node = tier.ingress_node(self.home)
            if (
                node is not None
                and node.admission is not None
                and node.admission.state is AdmissionState.REJECT
                and tier.budget.tokens < 1.0
            ):
                self.shed += 1
                tier.shed += 1
                tier.resolve_log.append((f"{self.name}#{self.submitted - 1}", "shed", 0))
                return None
        key = f"{self.name}#{self.submitted - 1}"
        request = _Request(key, dest, self, now, DEADLINE)
        tier.pending[key] = request
        self._attempt(request)
        return request

    # ------------------------------------------------------------------
    def _attempt(self, request: _Request) -> None:
        if request.done:
            return
        request.retry_timer = None
        tier = self.tier
        sim = tier.net.sim
        now = sim.now
        ingress_id = self._pick_ingress(now, request.dest)
        if ingress_id is None:
            self._retry_or_fail(request, "no_ingress")
            return
        if ingress_id != self.home:
            tier.failovers += 1
        node = tier.ingress_node(ingress_id)
        request.attempts += 1
        request.ingress = ingress_id
        first = request.attempts == 1
        if first:
            tier.base_offers += 1
            tier.budget.accrue()
        else:
            tier.retry_offers += 1
        priority = self._effective_priority(node)
        expire = min(REQUEST_EXPIRE, max(0.05, request.deadline_at - now))
        try:
            outcome = node.offer_priority(
                request.dest,
                size_bytes=tier.size_bytes,
                priority=priority,
                method=tier.method,
                payload=REQUEST_PREFIX + request.key,
                expire_after=expire,
                client=self.name,
                nack_home=self.home,
                nack_key=request.key,
            )
        except (ProtocolError, TopologyError):
            # Crashed/unroutable ingress, or a destination no longer in
            # the routable overlay (a signed LEAVE mid-flight): a hard
            # health signal either way.
            tier.breaker(ingress_id).record_failure(now)
            tier.unroutable += 1
            self._retry_or_fail(request, "unroutable")
            return
        if outcome is AdmissionOutcome.REJECTED:
            tier.breaker(ingress_id).record_failure(now)
            tier.rejected += 1
            self._retry_or_fail(request, "rejected")
            return
        # ADMITTED or PARKED: wait for the destination's ack (a PARKED
        # offer may still be released and delivered; a typed NACK will
        # short-circuit the wait if it dies in the park buffer).
        attempt_no = request.attempts
        request.timer = sim.schedule(
            ATTEMPT_TIMEOUT, self._on_timeout, request, attempt_no
        )

    def _effective_priority(self, node: Any) -> int:
        """The degradation ladder: one rung down per pressure signal
        (ingress parked/rejecting, retry budget dry), never below the
        floor.  Downgrade before shedding: under pressure this session's
        traffic yields to undegraded traffic in the interior's priority
        queues instead of leaving the network."""
        tier = self.tier
        pressure = 0
        admission = node.admission
        if admission is not None:
            if admission.state is AdmissionState.PARK:
                pressure += 1
            elif admission.state is AdmissionState.REJECT:
                pressure += 2
        budget = tier.budget
        # The bucket starts empty by design; "dry" only counts as
        # pressure once at least one token's worth has accrued (else the
        # cold start would degrade the first requests of every run).
        if budget.ratio > 0 and budget.tokens < 1.0 and budget.accrued >= 1.0:
            pressure += 1
        if pressure:
            tier.downgraded += 1
        return max(PRIORITY_FLOOR, REQUEST_PRIORITY - pressure)

    def _pick_ingress(self, now: float, dest: Any) -> Optional[Any]:
        """First healthy candidate: not crashed, not isolated, breaker
        willing.  Falls back to any non-crashed candidate (half-try)
        rather than giving up while the network might still carry."""
        tier = self.tier
        fallback = None
        for candidate in (self.home, *self.backups):
            if candidate == dest:
                continue  # cannot source a message at its own dest
            node = tier.ingress_node(candidate)
            if node is None or node.crashed:
                continue
            links = node.links
            if links and all(link.quarantined for link in links.values()):
                continue  # isolated: every PoR link is in quarantine
            if fallback is None:
                fallback = candidate
            if tier.breaker(candidate).allow(now):
                return candidate
        return fallback

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _on_timeout(self, request: _Request, attempt_no: int) -> None:
        if request.done or request.attempts != attempt_no:
            return
        request.timer = None
        now = self.tier.net.sim.now
        self.tier.breaker(request.ingress).record_failure(now)
        self.tier.probe_timeouts += 1
        self._retry_or_fail(request, "timeout")

    def on_ack(self, request: _Request) -> None:
        """Destination ack arrived: resolve the request as succeeded."""
        if request.done:
            return
        request.done = True
        request.cancel_timers()
        self.tier.pending.pop(request.key, None)
        if request.ingress is not None:
            self.tier.breaker(request.ingress).record_success()
        self.succeeded += 1
        self.tier.succeeded += 1
        self.tier.resolve_log.append((request.key, "ok", request.attempts))

    def on_nack(self, request: _Request, outcome: str) -> None:
        """A typed admission NACK arrived for the request's offer:
        charge the ingress breaker and retry-or-fail immediately
        (``released`` means the offer is in flight — keep waiting)."""
        if request.done:
            return
        if outcome == "released":
            # The park released the offer into the network: the request
            # is in flight after all; keep waiting on the attempt timer.
            return
        # expired / evicted / cleared / rejected: this attempt is dead —
        # no point waiting out the probe timeout.
        now = self.tier.net.sim.now
        if request.ingress is not None:
            self.tier.breaker(request.ingress).record_failure(now)
        self.tier.nacks_consumed += 1
        self._retry_or_fail(request, f"nack_{outcome}")

    # ------------------------------------------------------------------
    def _retry_or_fail(self, request: _Request, reason: str) -> None:
        request.cancel_timers()
        tier = self.tier
        config = tier.session_config
        now = tier.net.sim.now
        if request.attempts >= config.max_attempts:
            self._fail(request, reason, "attempts")
            return
        # Decorrelated jitter (AWS architecture blog style): each sleep
        # is drawn from [base, 3 * previous sleep], capped.
        prev = request.prev_backoff if request.prev_backoff > 0 else BACKOFF_BASE
        backoff = min(BACKOFF_CAP, self.rng.uniform(BACKOFF_BASE, prev * 3.0))
        request.prev_backoff = backoff
        if now + backoff >= request.deadline_at:
            self._fail(request, reason, "deadline")
            return
        if not tier.budget.try_spend():
            self._fail(request, reason, "budget")
            return
        request.retry_timer = tier.net.sim.schedule(
            backoff, self._attempt, request
        )

    def _fail(self, request: _Request, reason: str, terminal: str) -> None:
        request.done = True
        request.cancel_timers()
        self.tier.pending.pop(request.key, None)
        self.failed += 1
        self.tier.failed += 1
        self.tier.failed_by[terminal] = self.tier.failed_by.get(terminal, 0) + 1
        self.tier.last_errors[reason] = self.tier.last_errors.get(reason, 0) + 1
        self.tier.resolve_log.append((request.key, f"failed_{terminal}", request.attempts))


@dataclass(frozen=True)
class ScriptedSessionRequest:
    """One deterministic request injection for conformance plans."""

    at: float
    home: Any
    dest: Any


class SessionTier:
    """All sessions over one substrate deployment, plus the shared
    destination-side responder/dedup machinery.

    ``ingress`` lists the nodes sessions may attach to (homes and
    failover backups are drawn from it, ring-wise); ``dests`` is the
    Zipf-ranked destination list.  The tier installs one combined
    delivery observer on *every* node (request responder + ack consumer)
    and one NACK observer per ingress node, so it works identically on
    the simulator, the live runtime, and inside each cluster shard.
    """

    def __init__(
        self,
        net: Any,
        ingress: Sequence[Any],
        dests: Sequence[Any],
        *,
        workload: Optional[SessionWorkloadConfig] = None,
        name: str = "sessions",
    ):
        if not ingress:
            raise ConfigurationError("need at least one ingress node")
        if not dests:
            raise ConfigurationError("need at least one destination")
        self.net = net
        self.name = name
        self.workload = workload or SessionWorkloadConfig()
        self.session_config = self.workload.session
        self.ingress = list(ingress)
        self.dests = list(dests)
        self.method = DisseminationMethod.k_paths(METHOD_K)
        self.size_bytes = REQUEST_SIZE_BYTES
        self.budget = RetryBudget(self.session_config.retry_budget, RETRY_BURST)
        self._breakers: Dict[Any, CircuitBreaker] = {}
        self.pending: Dict[str, _Request] = {}
        #: Destination-side dedup: node id -> {key: window expiry}.
        self._dedup: Dict[Any, Dict[str, float]] = {}
        self._processed: set = set()
        self.sessions: List[Session] = []
        self._arrival_timers: Dict[int, Any] = {}
        self._running = False
        self._rng = net.sim.rngs.stream(f"sessions:{name}")
        self._zipf_cdf = zipf_cdf(len(self.dests), ZIPF_EXPONENT)
        # Tier-level outcome accounting.
        self.requests = 0
        self.succeeded = 0
        self.failed = 0
        self.shed = 0
        self.base_offers = 0
        self.retry_offers = 0
        self.failovers = 0
        self.rejected = 0
        self.unroutable = 0
        self.probe_timeouts = 0
        self.nacks_consumed = 0
        self.downgraded = 0
        self.acks_sent = 0
        self.acks_unroutable = 0
        self.duplicates_suppressed = 0
        self.double_processed = 0
        self.failed_by: Dict[str, int] = {}
        self.last_errors: Dict[str, int] = {}
        #: (key, outcome, attempts) per resolved request — the sim/live
        #: conformance contract (sorted by key for comparison).
        self.resolve_log: List[Tuple[str, str, int]] = []
        self._build_sessions()

    # ------------------------------------------------------------------
    def _build_sessions(self) -> None:
        backups = self.session_config.backups
        per_node = SESSIONS_PER_NODE
        ring = self.ingress
        for index, home in enumerate(ring):
            backup_ids = tuple(
                ring[(index + 1 + step) % len(ring)]
                for step in range(min(backups, len(ring) - 1))
            )
            for slot in range(per_node):
                name = f"{self.name}:{home}/s{slot}"
                rng = self.net.sim.rngs.stream(f"sessions:{name}")
                self.sessions.append(Session(self, name, home, backup_ids, rng))

    def breaker(self, ingress_id: Any) -> CircuitBreaker:
        """The (lazily created) circuit breaker for an ingress node."""
        breaker = self._breakers.get(ingress_id)
        if breaker is None:
            breaker = self._breakers[ingress_id] = CircuitBreaker(
                BREAKER_THRESHOLD, BREAKER_COOLOFF
            )
        return breaker

    def ingress_node(self, node_id: Any) -> Optional[Any]:
        """The overlay node for an ingress id (None once departed)."""
        try:
            return self.net.node(node_id)
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install observers and begin open-loop arrivals."""
        self._install_observers()
        self._running = True
        per_session = self.workload.arrival_rate / max(1, len(self.sessions))
        for index, session in enumerate(self.sessions):
            delay = session.rng.expovariate(per_session) if per_session > 0 else 0.0
            self._arrival_timers[index] = self.net.sim.schedule(
                delay, self._arrive, index, per_session
            )

    def arm(self, plan: Sequence[ScriptedSessionRequest], epoch: Optional[float] = None) -> None:
        """Deterministic scripted mode (the conformance harness): replay
        ``plan`` instead of open-loop arrivals.  Requests are submitted
        by the first session homed on each scripted ingress."""
        self._install_observers()
        sim = self.net.sim
        if epoch is None:
            epoch = sim.now
        by_home = {}
        for session in self.sessions:
            by_home.setdefault(session.home, session)
        for scripted in plan:
            session = by_home.get(scripted.home)
            if session is None:
                raise ConfigurationError(
                    f"no session homed on {scripted.home!r}"
                )
            sim.schedule_at(epoch + scripted.at, session.submit, scripted.dest)

    def stop(self) -> None:
        """Stop new arrivals; in-flight requests keep resolving."""
        self._running = False
        for timer in self._arrival_timers.values():
            timer.cancel()
        self._arrival_timers.clear()

    def finalize(self) -> None:
        """End-of-run sweep: any request still unresolved after the
        drain is accounted as failed (deadline passed un-fired timers)."""
        for request in list(self.pending.values()):
            request.session._fail(request, "drain", "unresolved")

    def _arrive(self, index: int, per_session: float) -> None:
        if not self._running:
            return
        session = self.sessions[index]
        session.submit(self._pick_dest(session))
        delay = session.rng.expovariate(per_session) if per_session > 0 else 1.0
        self._arrival_timers[index] = self.net.sim.schedule(
            delay, self._arrive, index, per_session
        )

    def _pick_dest(self, session: Session) -> Any:
        index = bisect_left(self._zipf_cdf, session.rng.random())
        index = min(index, len(self.dests) - 1)
        dest = self.dests[index]
        if dest == session.home and len(self.dests) > 1:
            dest = self.dests[(index + 1) % len(self.dests)]
        return dest

    # ------------------------------------------------------------------
    # Observers: destination responder, ack consumer, NACK consumer
    # ------------------------------------------------------------------
    def _install_observers(self) -> None:
        for node in self.net.nodes.values():
            node.delivery_observers.append(self._observe_delivery)
        for ingress_id in self.ingress:
            node = self.ingress_node(ingress_id)
            if node is not None:
                node.nack_observers.append(self._observe_nack)

    def _observe_delivery(self, message: Any, node: Any) -> None:
        payload = message.payload
        if not isinstance(payload, str):
            return
        if payload.startswith(REQUEST_PREFIX):
            self._respond(payload[len(REQUEST_PREFIX):], message, node)
        elif payload.startswith(ACK_PREFIX):
            request = self.pending.get(payload[len(ACK_PREFIX):])
            if request is not None:
                request.session.on_ack(request)

    def _respond(self, key: str, message: Any, node: Any) -> None:
        """Destination-side idempotent processing + ack."""
        now = node.sim.now
        window = self._dedup.setdefault(node.node_id, {})
        expiry = window.get(key)
        if expiry is not None and expiry >= now:
            self.duplicates_suppressed += 1
        else:
            window[key] = now + DEDUP_WINDOW
            if key in self._processed:
                # A key re-processed after its window lapsed: with
                # DEDUP_WINDOW >> DEADLINE this must never happen — it is
                # the double-delivery invariant the benchmark gates on.
                self.double_processed += 1
            self._processed.add(key)
            if len(window) > 4096:
                stale = [k for k, exp in window.items() if exp < now]
                for k in stale:
                    del window[k]
        # Ack every copy (the first ack may have died with a crashed
        # ingress — re-acking a duplicate is what rescues the retry).
        try:
            node.send_priority(
                message.source,
                size_bytes=ACK_SIZE_BYTES,
                priority=ACK_PRIORITY,
                method=DisseminationMethod.flooding(),
                payload=ACK_PREFIX + key,
                expire_after=ATTEMPT_TIMEOUT,
            )
            self.acks_sent += 1
        except (ProtocolError, TopologyError):
            # The requester's home departed (signed LEAVE) or this node
            # crashed between delivery and ack — the retry will re-ack.
            self.acks_unroutable += 1

    def _observe_nack(self, nack: Any, node: Any) -> None:
        request = self.pending.get(nack.key)
        if request is not None:
            request.session.on_nack(request, nack.outcome)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def amplification(self) -> float:
        """Offered interior load relative to base (1.0 = no retries)."""
        if self.base_offers == 0:
            return 1.0
        return (self.base_offers + self.retry_offers) / self.base_offers

    @property
    def success_ratio(self) -> float:
        """Client-visible success over every submitted request (shed and
        unresolved requests count against it)."""
        if self.requests == 0:
            return 1.0
        return self.succeeded / self.requests

    def invariant_violations(self) -> int:
        """0 iff the amplification bound and the dedup exactly-once
        property both held."""
        violations = self.double_processed
        allowed = self.budget.ratio * self.base_offers + 1e-9
        if self.retry_offers > allowed:
            violations += 1
        return violations

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly tier summary (reports, CLI, benchmarks)."""
        return {
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "shed": self.shed,
            "pending": len(self.pending),
            "success_ratio": round(self.success_ratio, 6),
            "base_offers": self.base_offers,
            "retry_offers": self.retry_offers,
            "amplification": round(self.amplification, 4),
            "retry_budget": self.budget.ratio,
            "retry_tokens": round(self.budget.tokens, 3),
            "failovers": self.failovers,
            "rejected": self.rejected,
            "unroutable": self.unroutable,
            "probe_timeouts": self.probe_timeouts,
            "nacks_consumed": self.nacks_consumed,
            "downgraded": self.downgraded,
            "acks_sent": self.acks_sent,
            "acks_unroutable": self.acks_unroutable,
            "duplicates_suppressed": self.duplicates_suppressed,
            "double_processed": self.double_processed,
            "breaker_opens": sum(b.opens for b in self._breakers.values()),
            "breakers_open": sum(
                1 for b in self._breakers.values() if b.state != "closed"
            ),
            "failed_by": dict(self.failed_by),
            "failure_signals": dict(self.last_errors),
            "invariant_violations": self.invariant_violations(),
        }


__all__ = [
    "ACK_PREFIX",
    "REQUEST_PREFIX",
    "CircuitBreaker",
    "RetryBudget",
    "ScriptedSessionRequest",
    "Session",
    "SessionConfig",
    "SessionTier",
    "SessionWorkloadConfig",
]
