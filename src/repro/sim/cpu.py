"""Per-node CPU cost model.

Table II of the paper shows that with cryptography enabled the overlay is
strictly CPU bound: one-flow goodput drops from 480 Mbps to 85 Mbps for
K=1.  To reproduce that shape without doing real bignum math per simulated
message, each overlay node owns a :class:`Cpu` that serializes work items:
every operation (RSA sign, RSA verify, HMAC, base packet processing) has a
configured cost in seconds, and callbacks complete only when the CPU has
"executed" them.

When all costs are zero the CPU is bypassed entirely (callbacks run
synchronously), so benign-mode simulations pay no overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.runtime.interfaces import SchedulerLike


_COST_FIELDS = (
    "rsa_sign",
    "rsa_verify",
    "hmac",
    "process_packet",
    "tx_packet",
    "duplicate_packet",
)


@dataclass(frozen=True)
class CpuCosts:
    """Seconds of CPU time charged per operation.

    ``process_packet`` is the full receive-and-forward handling of a new
    overlay message; ``duplicate_packet`` is the cheap path for a copy
    recognized as a duplicate before any expensive work (header parse +
    dedup lookup); ``tx_packet`` is the transmit-side handling per packet
    put on a link.  Defaults are calibrated against OpenSSL RSA on a
    mid-2010s server core and kernel UDP forwarding costs; the Table II
    benchmark scales them together with link capacity.
    """

    rsa_sign: float = 750e-6
    rsa_verify: float = 25e-6
    hmac: float = 2e-6
    process_packet: float = 3e-6
    tx_packet: float = 1.5e-6
    duplicate_packet: float = 0.75e-6

    def __post_init__(self) -> None:
        for field in _COST_FIELDS:
            if getattr(self, field) < 0:
                raise ConfigurationError(f"{field} must be >= 0")

    @classmethod
    def free(cls) -> "CpuCosts":
        """Zero-cost table: the CPU model is effectively disabled."""
        return cls(**{field: 0.0 for field in _COST_FIELDS})

    @cached_property
    def is_free(self) -> bool:
        """True when every cost is zero (the CPU model is a no-op).

        Cached: the dataclass is frozen, so the answer never changes, and
        this sits on the per-packet fast path."""
        return all(getattr(self, field) == 0.0 for field in _COST_FIELDS)


class Cpu:
    """Serializes per-node processing with per-operation costs.

    ``execute(cost, callback)`` charges ``cost`` seconds and invokes the
    callback when the work completes.  Work is FIFO: a node busy verifying
    a signature delays every subsequent packet, which is exactly the
    CPU-bound behaviour Table II measures.
    """

    def __init__(self, sim: SchedulerLike, costs: CpuCosts, name: str = "cpu"):
        self._sim = sim
        self.costs = costs
        self.name = name
        self._busy_until = 0.0
        self.busy_seconds = 0.0
        self.operations = 0
        self.overload_drops = 0
        # Plain attribute, not a property: ``costs`` is frozen and never
        # reassigned, and this flag is consulted once or twice per packet.
        self.enabled = not costs.is_free

    def backlog(self) -> float:
        """Seconds of queued work ahead of a newly submitted operation.

        An overloaded node's input queues are finite: callers use this to
        decide to drop best-effort work instead of queueing it forever
        (see the Table II benchmark — goodput under load is exactly the
        CPU's service rate)."""
        return max(0.0, self._busy_until - self._sim.now)

    def execute(self, cost: float, callback: Callable[..., None], *args: Any) -> None:
        """Charge ``cost`` seconds of CPU time, then run ``callback(*args)``."""
        self.operations += 1
        if cost <= 0.0:
            callback(*args)
            return
        now = self._sim.now
        start = max(now, self._busy_until)
        self._busy_until = start + cost
        self.busy_seconds += cost
        self._sim.schedule_at(self._busy_until, callback, *args)

    # Convenience wrappers -------------------------------------------------
    def sign(self, callback: Callable[..., None], *args: Any) -> None:
        """Charge one RSA signing and then run ``callback``."""
        self.execute(self.costs.rsa_sign, callback, *args)

    def verify(self, callback: Callable[..., None], *args: Any) -> None:
        """Charge one RSA verification and then run ``callback``."""
        self.execute(self.costs.rsa_verify, callback, *args)
