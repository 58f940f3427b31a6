"""The multi-ISP underlay beneath the overlay's channels.

Section IV: each overlay node contracts one or more ISPs (multihoming).
An overlay link (A, B) is realized by the set of *route combinations*
(isp_at_A, isp_at_B); it passes messages while at least one combination
is usable.  Combinations with the same ISP at both ends stay inside that
ISP's backbone and are immune to BGP-level attacks; cross-ISP
combinations depend on Internet (BGP) routing.

The model drives the overlay's :class:`~repro.sim.channel.Channel`
objects: whenever the last usable combination of a link goes down, the
link's channels are taken down (the overlay then detects the failure via
hello timeouts and reroutes); when a combination recovers, they are
restored.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.overlay.network import OverlayNetwork
from repro.topology.graph import NodeId, edge_key

#: A route combination: (ISP at endpoint A, ISP at endpoint B), with the
#: endpoints in sorted-str order so combos are canonical per link.
Combo = Tuple[str, str]


class Underlay:
    """ISP contracts, multihoming, and route-combination state."""

    def __init__(self, network: OverlayNetwork, contracts: Dict[NodeId, Sequence[str]]):
        self.network = network
        self.contracts: Dict[NodeId, List[str]] = {}
        for node in network.topology.nodes:
            isps = list(contracts.get(node, ()))
            if not isps:
                raise ConfigurationError(f"node {node!r} has no ISP contract")
            self.contracts[node] = isps
        self.isps: Set[str] = {isp for isps in self.contracts.values() for isp in isps}
        # Per-link combination status.
        self._combo_up: Dict[Tuple[frozenset, Combo], bool] = {}
        self._links: List[Tuple[NodeId, NodeId]] = list(network.topology.edges())
        for a, b in self._links:
            for combo in self.combos(a, b):
                self._combo_up[(edge_key(a, b), combo)] = True
        # Attack state.
        self._failed_isps: Set[str] = set()
        self._bgp_hijacked = False

    # ------------------------------------------------------------------
    def combos(self, a: NodeId, b: NodeId) -> List[Combo]:
        """All (ISP_first, ISP_second) combinations for link (a, b),
        endpoint order normalized by sorted str."""
        first, second = sorted((a, b), key=str)
        return [
            (isp_f, isp_s)
            for isp_f in self.contracts[first]
            for isp_s in self.contracts[second]
        ]

    def combo_usable(self, a: NodeId, b: NodeId, combo: Combo) -> bool:
        """Is this route combination currently passing traffic?"""
        if not self._combo_up[(edge_key(a, b), combo)]:
            return False
        if combo[0] in self._failed_isps or combo[1] in self._failed_isps:
            return False
        if self._bgp_hijacked and combo[0] != combo[1]:
            return False
        return True

    def link_usable(self, a: NodeId, b: NodeId) -> bool:
        """An overlay link works while any combination works."""
        return any(self.combo_usable(a, b, c) for c in self.combos(a, b))

    def usable_links(self) -> List[Tuple[NodeId, NodeId]]:
        """Overlay links that currently have at least one working combination."""
        return [(a, b) for a, b in self._links if self.link_usable(a, b)]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def set_combo(self, a: NodeId, b: NodeId, combo: Combo, up: bool) -> None:
        """Force one route combination up or down (attack primitive)."""
        key = (edge_key(a, b), combo)
        if key not in self._combo_up:
            raise TopologyError(f"no combination {combo} on link ({a!r}, {b!r})")
        self._combo_up[key] = up
        self._apply(a, b)

    def fail_isp(self, isp: str) -> None:
        """Complete meltdown of one ISP backbone."""
        if isp not in self.isps:
            raise ConfigurationError(f"unknown ISP {isp!r}")
        self._failed_isps.add(isp)
        self._apply_all()

    def set_bgp_hijacked(self, hijacked: bool) -> None:
        """During a BGP hijack only same-ISP combinations pass traffic."""
        self._bgp_hijacked = hijacked
        self._apply_all()

    # ------------------------------------------------------------------
    def _apply(self, a: NodeId, b: NodeId) -> None:
        if self.link_usable(a, b):
            self.network.restore_link(a, b)
        else:
            self.network.fail_link(a, b)

    def _apply_all(self) -> None:
        for a, b in self._links:
            self._apply(a, b)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def surviving_topology(self):
        """The overlay topology restricted to currently usable links."""
        topo = self.network.topology
        survivor = topo.copy()
        for a, b in topo.edges():
            if not self.link_usable(a, b):
                survivor.remove_edge(a, b)
        return survivor

    def connected_pairs_fraction(self) -> float:
        """Fraction of node pairs that can still communicate."""
        survivor = self.surviving_topology()
        nodes = survivor.nodes
        total = len(nodes) * (len(nodes) - 1) // 2
        if total == 0:
            return 1.0
        connected = 0
        for i, a in enumerate(nodes):
            reachable = survivor.reachable_from(a)
            connected += sum(1 for b in nodes[i + 1:] if b in reachable)
        return connected / total


def single_homed(network: OverlayNetwork, assignment: Dict[NodeId, str]) -> Underlay:
    """Convenience: every node contracts exactly one ISP."""
    return Underlay(network, {node: [isp] for node, isp in assignment.items()})


def multihomed(
    network: OverlayNetwork, assignment: Dict[NodeId, Iterable[str]]
) -> Underlay:
    """Convenience: nodes contract several ISPs (Figure 1)."""
    return Underlay(network, {node: list(isps) for node, isps in assignment.items()})
