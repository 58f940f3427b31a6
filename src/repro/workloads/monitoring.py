"""The cloud-monitoring workload (Section VI-C).

"The monitoring messages provide a real-time view of the cloud, updating
every 1-3 seconds depending on the type of information.  This view
contains detailed information regarding the status of data centers, the
network characteristics (e.g. latency, bandwidth, loss rate) of links
between data centers, the status of cloud access points (i.e. clients),
and the service characteristics that each client-generated task
receives."

:class:`MonitoringWorkload` generates that traffic shape: every overlay
node periodically reports several message classes toward one or more
monitoring sinks, using Priority Messaging ("as it provides the necessary
semantics for monitoring"), with the dissemination method selectable so a
run can alternate K-Paths and Constrained Flooding like the shadow
deployment did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ProtocolError
from repro.overlay.config import DisseminationMethod
from repro.overlay.network import OverlayNetwork
from repro.topology.graph import NodeId


@dataclass(frozen=True)
class MonitoringMessageClass:
    """One class of monitoring information."""

    name: str
    period: float          # seconds between updates
    size_bytes: int
    priority: int


#: The four message classes described in Section VI-C.  Sizes follow the
#: observed pattern "most messages below 3500 bytes".
DEFAULT_CLASSES: Sequence[MonitoringMessageClass] = (
    MonitoringMessageClass("datacenter-status", period=1.0, size_bytes=600, priority=9),
    MonitoringMessageClass("link-characteristics", period=1.0, size_bytes=1400, priority=7),
    MonitoringMessageClass("client-status", period=2.0, size_bytes=2600, priority=5),
    MonitoringMessageClass("task-service", period=3.0, size_bytes=3400, priority=3),
)


class MonitoringWorkload:
    """Every node reports every message class to the monitoring sinks."""

    def __init__(
        self,
        network: OverlayNetwork,
        sinks: Sequence[NodeId],
        classes: Sequence[MonitoringMessageClass] = DEFAULT_CLASSES,
        method: Optional[DisseminationMethod] = None,
        jitter: float = 0.2,
        explicit_routes: Optional[dict] = None,
    ):
        self.network = network
        self.sinks = list(sinks)
        self.classes = list(classes)
        self.method = method or DisseminationMethod.k_paths(2)
        self.jitter = jitter
        #: (reporter, sink) -> explicit node path.  Used to emulate a
        #: production monitoring system "with other routing
        #: considerations" (e.g. min-hop instead of min-latency routes).
        self.explicit_routes = explicit_routes or {}
        self.messages_sent = 0
        #: Reports skipped because the reporter had no usable path to a
        #: sink (e.g. it was partitioned off during a chaos run).  The
        #: reporter stays scheduled and resumes once routing heals.
        self.reports_shed = 0
        self._rng = network.sim.rngs.stream("monitoring-workload")

    def start(self) -> None:
        """Begin periodic reporting from every non-sink node."""
        for node_id in self.network.nodes:
            if node_id in self.sinks:
                continue
            for message_class in self.classes:
                phase = self._rng.random() * message_class.period
                self.network.sim.schedule(
                    phase, self._report, node_id, message_class
                )

    def set_method(self, method: DisseminationMethod) -> None:
        """Switch dissemination on the fly ("we alternated between using
        K-Paths (with K=2) and Constrained Flooding")."""
        self.method = method

    def _report(self, node_id: NodeId, message_class: MonitoringMessageClass) -> None:
        node = self.network.node(node_id)
        if not node.crashed:
            for sink in self.sinks:
                route = self.explicit_routes.get((node_id, sink))
                try:
                    node.send_priority(
                        sink,
                        size_bytes=message_class.size_bytes,
                        priority=message_class.priority,
                        method=self.method,
                        expire_after=3 * message_class.period,
                        payload=message_class.name,
                        explicit_paths=(tuple(route),) if route else None,
                    )
                except ProtocolError:
                    self.reports_shed += 1
                else:
                    self.messages_sent += 1
        delay = message_class.period * (
            1.0 + self.jitter * (self._rng.random() - 0.5)
        )
        self.network.sim.schedule(delay, self._report, node_id, message_class)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def view_staleness(self, sink: NodeId, at_time: float) -> List[float]:
        """Per-reporting-node staleness of the sink's real-time view.

        For each non-sink node, the age (at ``at_time``) of the newest
        ``datacenter-status`` delivery the sink has received from it.
        The production monitoring system's staleness is bounded by the
        reporting period; the shadow network matches it when delivery is
        timely.
        """
        out: List[float] = []
        for node_id in self.network.nodes:
            if node_id in self.sinks:
                continue
            recorder = self.network.flow_latency(node_id, sink)
            newest = None
            for delivery_time, _ in reversed(recorder.samples):
                if delivery_time <= at_time:
                    newest = delivery_time
                    break
            out.append(at_time - newest if newest is not None else float("inf"))
        return out
