"""Build and operate a complete intrusion-tolerant overlay network.

:class:`OverlayNetwork` assembles the full stack from a topology: the
simulator, the PKI, the administrator-signed MTMW, a pair of channels and
a Proof-of-Receipt link per overlay edge, and one :class:`OverlayNode`
per site.  It also exposes the experiment-facing controls used throughout
the evaluation: crashing/recovering nodes (Figure 9), compromising nodes
with Byzantine behaviours (Section VI-B), and failing individual links
(underlay attacks, Figure 2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.byzantine.behaviors import Behavior
from repro.crypto.pki import Pki
from repro.errors import TopologyError
from repro.messaging.message import Message
from repro.overlay.config import OverlayConfig
from repro.overlay.node import OverlayNode
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.engine import Simulator
from repro.sim.stats import GoodputMeter, LatencyRecorder, StatsRegistry
from repro.topology.graph import NodeId, Topology
from repro.topology.mtmw import Mtmw


class Client:
    """A thin application-facing handle bound to one overlay node."""

    def __init__(self, network: "OverlayNetwork", node: OverlayNode):
        self._network = network
        self._node = node

    @property
    def node_id(self) -> NodeId:
        return self._node.node_id

    def send_priority(self, dest: NodeId, **kwargs: Any) -> Message:
        """Inject a Priority Messaging message from this client's node."""
        return self._node.send_priority(dest, **kwargs)

    def send_reliable(self, dest: NodeId, **kwargs: Any) -> bool:
        """Inject a Reliable Messaging message; False under back-pressure."""
        return self._node.send_reliable(dest, **kwargs)

    def can_send_reliable(self, dest: NodeId) -> bool:
        """Whether the reliable flow to ``dest`` currently has buffer room."""
        return self._node.reliable_can_send(dest)

    def goodput_to(self, dest: NodeId) -> GoodputMeter:
        """Goodput meter of the flow from this client to ``dest``
        (recorded at the destination)."""
        return self._network.flow_goodput(self.node_id, dest)

    def latency_to(self, dest: NodeId) -> LatencyRecorder:
        """Latency recorder of the flow from this client to ``dest``."""
        return self._network.flow_latency(self.node_id, dest)


class OverlayNetwork:
    """A fully wired overlay deployment inside one simulator."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        mtmw: Mtmw,
        pki: Pki,
        config: OverlayConfig,
        stats: StatsRegistry,
        nodes: Dict[NodeId, OverlayNode],
        channels: Dict[Tuple[NodeId, NodeId], Channel],
    ):
        self.sim = sim
        self.topology = topology
        self.mtmw = mtmw
        self.pki = pki
        self.config = config
        self.stats = stats
        self.nodes = nodes
        self.channels = channels

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: Topology,
        config: Optional[OverlayConfig] = None,
        seed: int = 0,
    ) -> "OverlayNetwork":
        """Assemble a network over ``topology``.

        Channel latency is the topology edge weight (seconds); bandwidth
        and loss come from the config.  PoR link keys are installed out
        of band (the on-wire handshake is exercised by the link tests).
        """
        config = config or OverlayConfig()
        sim = Simulator(seed=seed)
        stats = StatsRegistry(sim)
        pki = Pki(mode=config.crypto.pki_mode, seed=seed)
        # Crypto ops (sign/verify/MAC) count into the same registry as
        # protocol counters, so one snapshot describes the whole run.
        pki.attach_metrics(stats)
        for node_id in topology.nodes:
            pki.register(node_id)
        mtmw = Mtmw.create(topology, pki)
        nodes = {
            node_id: OverlayNode(sim, node_id, mtmw, pki, config, stats)
            for node_id in topology.nodes
        }
        channels: Dict[Tuple[NodeId, NodeId], Channel] = {}
        for a, b in topology.edges():
            latency = topology.weight(a, b)
            channel_config = ChannelConfig(
                latency=latency,
                bandwidth_bps=config.link_bandwidth_bps,
                loss_rate=config.channel_loss_rate,
            )
            ab = Channel(sim, channel_config, name=f"{a}->{b}")
            ba = Channel(sim, channel_config, name=f"{b}->{a}")
            channels[(a, b)] = ab
            channels[(b, a)] = ba
            nodes[a].connect(b, ab, ba)
            nodes[b].connect(a, ba, ab)
        network = cls(sim, topology, mtmw, pki, config, stats, nodes, channels)
        for node in nodes.values():
            node.start()
        return network

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> OverlayNode:
        """Look up an overlay node; raises TopologyError if unknown."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def client(self, node_id: NodeId) -> Client:
        """An application-facing handle bound to ``node_id``."""
        return Client(self, self.node(node_id))

    def run(self, seconds: float) -> None:
        """Advance the simulation by ``seconds``."""
        self.sim.run(until=self.sim.now + seconds)

    def flow_goodput(self, source: NodeId, dest: NodeId) -> GoodputMeter:
        """Goodput meter for the (source, dest) flow, recorded at the dest."""
        return self.stats.goodput(f"flow:{source}->{dest}")

    def flow_latency(self, source: NodeId, dest: NodeId) -> LatencyRecorder:
        """Latency recorder for the (source, dest) flow."""
        return self.stats.latency(f"latency:{source}->{dest}")

    def delivered_count(self, source: NodeId, dest: NodeId) -> int:
        """Unique messages delivered so far on the (source, dest) flow."""
        return self.flow_latency(source, dest).count

    # ------------------------------------------------------------------
    # Fault and attack injection
    # ------------------------------------------------------------------
    def compromise(self, node_id: NodeId, behavior: Behavior) -> OverlayNode:
        """Install a Byzantine behaviour on ``node_id`` and return the node
        (attack drivers also use the node's own APIs directly)."""
        node = self.node(node_id)
        node.behavior = behavior
        return node

    def crash(self, node_id: NodeId) -> None:
        """Crash a node: it loses soft state and all its links go dark."""
        node = self.node(node_id)
        node.crash()
        for neighbor in node.links:
            self.channels[(node_id, neighbor)].take_down()
            self.channels[(neighbor, node_id)].take_down()

    def recover(self, node_id: NodeId) -> None:
        """Restart a crashed node and re-establish its link sessions."""
        node = self.node(node_id)
        for neighbor in node.links:
            self.channels[(node_id, neighbor)].restore()
            self.channels[(neighbor, node_id)].restore()
            # Both sides open fresh PoR sessions (new epochs).
            self.nodes[neighbor].links[node_id].por.reset()
        node.recover()

    def distribute_mtmw(self, new_topology: Topology, via: NodeId) -> Mtmw:
        """Administrator action: sign a successor MTMW and inject it.

        The new MTMW floods from ``via`` to every node (Section V-A).
        New overlay links must already have physical channels (the
        builder wires channels for the maximal physical topology); this
        method therefore supports weight changes and link/node removals,
        plus re-adding previously removed links.
        """
        for a, b in new_topology.edges():
            if (a, b) not in self.channels and (b, a) not in self.channels:
                raise TopologyError(
                    f"new MTMW edge ({a!r}, {b!r}) has no physical channels; "
                    "rebuild the network to add links"
                )
        successor = self.mtmw.successor(new_topology, self.pki)
        self.mtmw = successor
        self.node(via).adopt_mtmw(successor)
        return successor

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Fail the overlay link (a, b) in both directions (underlay attack)."""
        self._link_channels(a, b)[0].take_down()
        self._link_channels(a, b)[1].take_down()

    def restore_link(self, a: NodeId, b: NodeId) -> None:
        """Restore a previously failed overlay link in both directions."""
        for channel in self._link_channels(a, b):
            channel.restore()

    def impair_link(
        self, a: NodeId, b: NodeId, extra_loss: float = 0.0, extra_delay: float = 0.0
    ) -> None:
        """Install a gray failure on the (a, b) link in both directions:
        the link stays nominally up but silently drops ``extra_loss`` of
        its packets and adds ``extra_delay`` propagation.  Passing zeros
        heals the link (see :meth:`clear_link_impairment`)."""
        for channel in self._link_channels(a, b):
            channel.set_impairment(extra_loss=extra_loss, extra_delay=extra_delay)

    def clear_link_impairment(self, a: NodeId, b: NodeId) -> None:
        """Heal any gray failure on the (a, b) link."""
        for channel in self._link_channels(a, b):
            channel.clear_impairment()

    def quarantined_links(self) -> Dict[NodeId, list]:
        """Which neighbors each (non-crashed) node currently quarantines.
        Nodes with no quarantined links are omitted."""
        out: Dict[NodeId, list] = {}
        for node_id, node in self.nodes.items():
            if node.crashed:
                continue
            quarantined = node.quarantined_neighbors()
            if quarantined:
                out[node_id] = quarantined
        return out

    def _link_channels(self, a: NodeId, b: NodeId) -> Tuple[Channel, Channel]:
        try:
            return self.channels[(a, b)], self.channels[(b, a)]
        except KeyError:
            raise TopologyError(f"no overlay link between {a!r} and {b!r}") from None
