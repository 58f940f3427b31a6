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

    Everything that decides *when the overlay defends itself* and that a
    deployment tunes lives here: the proactive-recovery rotation and the
    timing of the adaptive two-level feedback controller
    (:mod:`repro.resilience.adaptive`), so the sim and live substrates
    read the same validated numbers.  The fixed thresholds are module
    constants where they are read: link-quarantine probing in
    :mod:`repro.overlay.node`, the belief band and global budgets in
    :mod:`repro.resilience.adaptive`.
    """

    # Proactive recovery rotation (Section V-D): every node is taken
    # down and restored from a clean state once per ``recovery_period``,
    # staying down for ``recovery_downtime`` per reinstall.
    recovery_period: float = 120.0
    recovery_downtime: float = 1.0

    # Adaptive feedback controller (ROADMAP item 4; Hammar & Stadler
    # style two-level control).  Per-node compromise beliefs decay with
    # ``belief_half_life`` and flip a node suspect/clear through the
    # belief hysteresis band, but never twice within ``action_cooldown``
    # seconds.
    belief_half_life: float = 20.0
    action_cooldown: float = 10.0
    control_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.recovery_period <= 0:
            raise ConfigurationError("recovery_period must be positive")
        if not 0 < self.recovery_downtime < self.recovery_period:
            raise ConfigurationError(
                "recovery_downtime must be positive and below recovery_period"
            )
        if self.belief_half_life <= 0:
            raise ConfigurationError("belief_half_life must be positive")
        if self.action_cooldown < 0:
            raise ConfigurationError("action_cooldown must be >= 0")
        if self.control_interval <= 0:
            raise ConfigurationError("control_interval must be positive")


@dataclass(frozen=True)
class OverlayConfig:
    """All tunables of an overlay deployment.

    The defaults are the scaled laboratory settings used by the unit and
    integration tests; the benchmark harness overrides capacity, buffer
    sizes, and timeouts per experiment (see ``EXPERIMENTS.md``).  Values
    no deployment varies are constants in the modules that read them
    (for example the quarantine probing in :mod:`repro.overlay.node`).
    """

    # Transport.
    link_bandwidth_bps: Optional[float] = 1e6
    channel_loss_rate: float = 0.0
    por: PorConfig = field(default_factory=PorConfig)

    # Cryptography / CPU model.
    crypto: CryptoMode = CryptoMode.SIMULATED
    cpu_costs: CpuCosts = field(default_factory=CpuCosts.free)

    # Client-tier admission control (the DoS-resistant stage in front of
    # Priority Messaging).  ``None`` disables it: ``offer_priority``
    # degenerates to ``send_priority`` and no controller state exists.
    admission: Optional[AdmissionConfig] = None

    # Priority Messaging.
    priority_queue_capacity: int = 200
    default_expire_after: float = 30.0

    # Reliable Messaging.
    reliable_buffer: int = 64
    e2e_ack_timeout: float = 0.5
    e2e_acks_enabled: bool = True
    reliable_link_window: int = 16
    #: Repair links serve a seq only after it has aged this long locally
    #: and the neighbor still lacks it (see ReliableEngine._activate).
    reliable_forward_hold: float = 0.25

    # Routing / link monitoring.
    hello_interval: float = 1.0
    hello_timeout: float = 3.5

    # Defense thresholds: proactive recovery and the adaptive
    # controller's timing, one typed, range-validated block.
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
        if self.hello_timeout <= self.hello_interval:
            raise ConfigurationError("hello_timeout must exceed hello_interval")
