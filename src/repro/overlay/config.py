"""Configuration for the intrusion-tolerant overlay."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.pki import PkiMode
from repro.errors import ConfigurationError
from repro.link.por import PorConfig
from repro.messaging.admission import AdmissionConfig
from repro.sim.cpu import CpuCosts


class CryptoMode(enum.Enum):
    """How overlay messages are authenticated.

    ``NONE`` disables signatures and MAC checks entirely — only used for
    row (a) of Table II.  ``SIMULATED`` keeps all verification logic (and
    can charge CPU time via :class:`repro.sim.cpu.CpuCosts`) without real
    bignum math.  ``REAL`` runs the from-scratch RSA/DH/HMAC stack.
    """

    NONE = "none"
    SIMULATED = "simulated"
    REAL = "real"

    @property
    def pki_mode(self) -> PkiMode:
        return {
            CryptoMode.NONE: PkiMode.NONE,
            CryptoMode.SIMULATED: PkiMode.SIMULATED,
            CryptoMode.REAL: PkiMode.REAL,
        }[self]


@dataclass(frozen=True)
class DisseminationMethod:
    """Per-message dissemination selector.

    Use the factories: ``DisseminationMethod.flooding()`` or
    ``DisseminationMethod.k_paths(k)``.
    """

    kind: str  # "flooding" | "kpaths"
    k: int = 0

    @classmethod
    def flooding(cls) -> "DisseminationMethod":
        return cls(kind="flooding")

    @classmethod
    def k_paths(cls, k: int) -> "DisseminationMethod":
        if k < 1:
            raise ConfigurationError(f"k must be >= 1 (got {k})")
        return cls(kind="kpaths", k=k)

    @property
    def is_flooding(self) -> bool:
        return self.kind == "flooding"


@dataclass(frozen=True)
class DefenseConfig:
    """The defense-side thresholds, unified in one typed block.

    Everything that decides *when the overlay defends itself* lives
    here: link-quarantine probing and probation, the proactive-recovery
    rotation, and the knobs of the adaptive two-level feedback
    controller (:mod:`repro.resilience.adaptive`), so the sim and live
    substrates read the same validated numbers.
    """

    # Liveness probing and link quarantine (self-healing).  A link whose
    # neighbor goes silent past ``hello_timeout`` is *quarantined*: it is
    # reported failed to the link-state layer and regular hellos stop;
    # instead the node probes it with exponential backoff + jitter.  Once
    # the neighbor is heard again the link enters *probation* and is only
    # reinstated after staying healthy for ``quarantine_probation``
    # seconds, so a flapping link cannot churn everyone's routing tables.
    probe_backoff_initial: float = 1.0
    probe_backoff_factor: float = 2.0
    probe_backoff_max: float = 4.0
    probe_jitter: float = 0.2
    quarantine_probation: float = 2.0

    # Proactive recovery rotation (Section V-D): every node is taken
    # down and restored from a clean state once per ``recovery_period``,
    # staying down for ``recovery_downtime`` per reinstall.
    recovery_period: float = 120.0
    recovery_downtime: float = 1.0

    # Adaptive feedback controller (ROADMAP item 4; Hammar & Stadler
    # style two-level control).  Per-node compromise beliefs decay with
    # ``belief_half_life`` and flip a node suspect/clear through the
    # ``belief_high``/``belief_low`` hysteresis band, but never twice
    # within ``action_cooldown`` seconds.
    belief_high: float = 0.6
    belief_low: float = 0.2
    belief_half_life: float = 20.0
    action_cooldown: float = 10.0
    control_interval: float = 0.5
    #: A healthy node's rotation slot may be deferred until its effective
    #: period reaches ``defer_factor_max`` times the base period.
    defer_factor_max: float = 3.0
    #: Belief above which a suspect is recovered immediately instead of
    #: waiting for its advanced rotation slot.
    escalate_threshold: float = 0.85
    #: Quarantine tightening against a suspect: the neighbors' hello
    #: timeout toward it is scaled down by this factor ...
    tighten_timeout_scale: float = 0.5
    #: ... and its probation is stretched by this factor.
    tighten_probation_scale: float = 2.0
    #: Global budget: simultaneous defense-initiated node downtimes.
    max_concurrent_down: int = 1
    #: Global budget: nodes under tightened quarantine at once.
    max_tightened_nodes: int = 3

    def __post_init__(self) -> None:
        if self.probe_backoff_initial <= 0:
            raise ConfigurationError("probe_backoff_initial must be positive")
        if self.probe_backoff_factor < 1.0:
            raise ConfigurationError("probe_backoff_factor must be >= 1")
        if self.probe_backoff_max < self.probe_backoff_initial:
            raise ConfigurationError(
                "probe_backoff_max must be >= probe_backoff_initial"
            )
        if not 0.0 <= self.probe_jitter < 1.0:
            raise ConfigurationError("probe_jitter must be in [0, 1)")
        if self.quarantine_probation < 0:
            raise ConfigurationError("quarantine_probation must be >= 0")
        if self.recovery_period <= 0:
            raise ConfigurationError("recovery_period must be positive")
        if not 0 < self.recovery_downtime < self.recovery_period:
            raise ConfigurationError(
                "recovery_downtime must be positive and below recovery_period"
            )
        if not 0.0 <= self.belief_low < self.belief_high <= 1.0:
            raise ConfigurationError(
                "need 0 <= belief_low < belief_high <= 1"
            )
        if self.belief_half_life <= 0:
            raise ConfigurationError("belief_half_life must be positive")
        if self.action_cooldown < 0:
            raise ConfigurationError("action_cooldown must be >= 0")
        if self.control_interval <= 0:
            raise ConfigurationError("control_interval must be positive")
        if self.defer_factor_max < 1.0:
            raise ConfigurationError("defer_factor_max must be >= 1")
        if not self.belief_high <= self.escalate_threshold <= 1.0:
            raise ConfigurationError(
                "escalate_threshold must be in [belief_high, 1]"
            )
        if not 0.0 < self.tighten_timeout_scale <= 1.0:
            raise ConfigurationError(
                "tighten_timeout_scale must be in (0, 1]"
            )
        if self.tighten_probation_scale < 1.0:
            raise ConfigurationError("tighten_probation_scale must be >= 1")
        if self.max_concurrent_down < 1:
            raise ConfigurationError("max_concurrent_down must be >= 1")
        if self.max_tightened_nodes < 0:
            raise ConfigurationError("max_tightened_nodes must be >= 0")


@dataclass(frozen=True)
class OverlayConfig:
    """All tunables of an overlay deployment.

    The defaults are the scaled laboratory settings used by the unit and
    integration tests; the benchmark harness overrides capacity, buffer
    sizes, and timeouts per experiment (see ``EXPERIMENTS.md``).
    """

    # Transport.
    link_bandwidth_bps: Optional[float] = 1e6
    channel_loss_rate: float = 0.0
    por: PorConfig = field(default_factory=PorConfig)

    # Cryptography / CPU model.
    crypto: CryptoMode = CryptoMode.SIMULATED
    cpu_costs: CpuCosts = field(default_factory=CpuCosts.free)
    #: When the CPU's queued work exceeds this many seconds, incoming
    #: best-effort (priority) data is dropped instead of queued.
    cpu_drop_backlog: float = 0.05

    # Client-tier admission control (the DoS-resistant stage in front of
    # Priority Messaging).  ``None`` disables it: ``offer_priority``
    # degenerates to ``send_priority`` and no controller state exists.
    admission: Optional[AdmissionConfig] = None

    # Priority Messaging.
    priority_queue_capacity: int = 200
    default_priority: int = 5
    default_expire_after: float = 30.0
    max_message_lifetime: float = 120.0

    # Reliable Messaging.
    reliable_buffer: int = 64
    e2e_ack_timeout: float = 0.5
    e2e_acks_enabled: bool = True
    neighbor_ack_delay: float = 0.005
    reliable_stall_timeout: float = 2.0
    reliable_link_window: int = 16
    #: Repair links serve a seq only after it has aged this long locally
    #: and the neighbor still lacks it (see ReliableEngine._activate).
    reliable_forward_hold: float = 0.25

    # Routing / link monitoring.
    hello_interval: float = 1.0
    hello_timeout: float = 3.5
    routing_update_rate: float = 10.0
    routing_update_burst: int = 20

    # Defense thresholds: link quarantine, proactive recovery, and the
    # adaptive controller — one typed, range-validated block (the flat
    # ``probe_*`` / ``quarantine_probation`` names below delegate to it
    # for compatibility).
    defense: DefenseConfig = field(default_factory=DefenseConfig)

    # Naïve-flooding baseline (Table IV / Figure 4a): disable the
    # constrained-flooding optimizations so messages traverse every edge
    # in both directions.
    naive_flooding: bool = False

    def __post_init__(self) -> None:
        if self.link_bandwidth_bps is not None and self.link_bandwidth_bps <= 0:
            raise ConfigurationError("link_bandwidth_bps must be positive")
        if not 0.0 <= self.channel_loss_rate < 1.0:
            raise ConfigurationError("channel_loss_rate must be in [0, 1)")
        if self.priority_queue_capacity < 1:
            raise ConfigurationError("priority_queue_capacity must be >= 1")
        if self.reliable_buffer < 1:
            raise ConfigurationError("reliable_buffer must be >= 1")
        if self.e2e_ack_timeout <= 0:
            raise ConfigurationError("e2e_ack_timeout must be positive")
        if self.reliable_link_window < 1:
            raise ConfigurationError("reliable_link_window must be >= 1")
        if self.neighbor_ack_delay < 0:
            raise ConfigurationError("neighbor_ack_delay must be >= 0")
        if self.hello_timeout <= self.hello_interval:
            raise ConfigurationError("hello_timeout must exceed hello_interval")

    # Compatibility: the quarantine thresholds used to be flat fields;
    # existing call sites (and reports) read them through these.
    @property
    def probe_backoff_initial(self) -> float:
        return self.defense.probe_backoff_initial

    @property
    def probe_backoff_factor(self) -> float:
        return self.defense.probe_backoff_factor

    @property
    def probe_backoff_max(self) -> float:
        return self.defense.probe_backoff_max

    @property
    def probe_jitter(self) -> float:
        return self.defense.probe_jitter

    @property
    def quarantine_probation(self) -> float:
        return self.defense.quarantine_probation
