"""Traffic generators.

All generators are simulation-driven (timers in simulated time) and
deterministic given the network's seed.  Rates are offered loads; the
overlay's schedulers decide what is actually carried.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod
from repro.overlay.network import OverlayNetwork
from repro.topology.graph import NodeId


class CbrTraffic:
    """Constant-bit-rate traffic on one flow.

    For PRIORITY semantics each tick injects messages unconditionally
    (the network drops what it must); for RELIABLE, back-pressure pauses
    the generator and the backlog is retried on later ticks.
    """

    def __init__(
        self,
        network: OverlayNetwork,
        source: NodeId,
        dest: NodeId,
        rate_bps: float,
        size_bytes: int = 1186,
        priority: Optional[int] = None,
        semantics: Semantics = Semantics.PRIORITY,
        method: Optional[DisseminationMethod] = None,
        priority_cycle: Optional[list] = None,
        tick_interval: float = 0.02,
        max_messages: Optional[int] = None,
    ):
        if rate_bps <= 0:
            raise ConfigurationError("rate_bps must be positive")
        if max_messages is not None and max_messages < 1:
            raise ConfigurationError("max_messages must be >= 1 when set")
        self.network = network
        self.source = source
        self.dest = dest
        self.rate_bps = rate_bps
        self.size_bytes = size_bytes
        self.priority = priority
        self.semantics = semantics
        self.method = method or DisseminationMethod.flooding()
        #: When given, priorities are assigned round-robin from this list
        #: ("evenly distributes its messages across ten priority levels").
        self.priority_cycle = priority_cycle
        self.tick_interval = tick_interval
        #: When set, the generator stops itself after injecting exactly
        #: this many messages — used by the sim-vs-live conformance test,
        #: where both substrates must offer the identical message set.
        self.max_messages = max_messages
        self.running = False
        self.messages_sent = 0
        self.backpressured = 0
        self._credit = 0.0
        self._last = 0.0

    def start(self) -> None:
        """Begin offering load now."""
        self.running = True
        self._last = self.network.sim.now
        self._tick()

    def stop(self) -> None:
        """Stop offering load."""
        self.running = False

    def schedule(self, start_at: float, stop_at: Optional[float] = None) -> None:
        """Arm start (and optionally stop) at absolute simulated times."""
        self.network.sim.schedule_at(start_at, self.start)
        if stop_at is not None:
            self.network.sim.schedule_at(stop_at, self.stop)

    def _next_priority(self) -> Optional[int]:
        if self.priority_cycle:
            return self.priority_cycle[self.messages_sent % len(self.priority_cycle)]
        return self.priority

    def _tick(self) -> None:
        if not self.running:
            return
        sim = self.network.sim
        node = self.network.node(self.source)
        self._credit += (sim.now - self._last) * self.rate_bps / 8.0
        self._last = sim.now
        if self.semantics is Semantics.PRIORITY:
            # Offered load is not buffered: undelivered credit beyond a
            # small burst is the application's loss, like a UDP sender.
            self._credit = min(self._credit, self.size_bytes * 8.0)
        while self._credit >= self.size_bytes and not node.crashed:
            if self.max_messages is not None and self.messages_sent >= self.max_messages:
                self.running = False
                return
            try:
                if self.semantics is Semantics.PRIORITY:
                    node.send_priority(
                        self.dest,
                        size_bytes=self.size_bytes,
                        priority=self._next_priority(),
                        method=self.method,
                    )
                else:
                    if not node.send_reliable(
                        self.dest, size_bytes=self.size_bytes, method=self.method
                    ):
                        self.backpressured += 1
                        break
            except (ProtocolError, TopologyError):
                # Transiently unroutable: link monitoring flapped every
                # path away, or the destination is missing from this
                # node's MTMW view — under membership churn a node can
                # adopt the successor MTMW off the overlay wire before
                # its host processes the LEAVE and stops this flow.
                # Retry on the next tick (the stop lands moments later).
                self.backpressured += 1
                break
            self.messages_sent += 1
            self._credit -= self.size_bytes
        sim.schedule(self.tick_interval, self._tick)
