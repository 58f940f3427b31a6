"""Fixtures shared by the tests: topologies, traffic and PoR links that
no driver builds, so they live beside the tests rather than in ``repro``."""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from repro.crypto.pki import Pki
from repro.errors import TopologyError
from repro.link.por import PorConfig, PorEndpoint
from repro.overlay.config import DisseminationMethod
from repro.overlay.network import OverlayNetwork
from repro.runtime.interfaces import SchedulerLike, TransportLike
from repro.topology.analysis import minimum_pair_connectivity
from repro.topology.graph import NodeId, Topology


def line(n: int, weight: float = 0.010) -> Topology:
    """A chain 1 - 2 - ... - n (no redundancy; worst case for resilience)."""
    if n < 2:
        raise TopologyError("line needs at least 2 nodes")
    topo = Topology()
    for i in range(1, n):
        topo.add_edge(i, i + 1, weight)
    return topo


def random_connected(
    n: int,
    extra_edges: int,
    rng: Optional[random.Random] = None,
    min_weight: float = 0.005,
    max_weight: float = 0.050,
) -> Topology:
    """A random connected graph: a random spanning tree plus extra edges."""
    rng = rng or random.Random(0)
    if n < 2:
        raise TopologyError("need at least 2 nodes")
    topo = Topology()
    nodes: List[int] = list(range(1, n + 1))
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for i in range(1, n):
        a = shuffled[i]
        b = shuffled[rng.randrange(i)]
        topo.add_edge(a, b, rng.uniform(min_weight, max_weight))
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 100 * extra_edges:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        if not topo.has_edge(a, b):
            topo.add_edge(a, b, rng.uniform(min_weight, max_weight))
            added += 1
    return topo


def random_k_connected(
    n: int,
    k: int,
    rng: Optional[random.Random] = None,
    max_attempts: int = 200,
) -> Topology:
    """A random graph whose minimum pair connectivity is at least ``k``."""
    rng = rng or random.Random(0)
    extra = max(n, n * k // 2)
    for _ in range(max_attempts):
        candidate = random_connected(n, extra, rng=rng)
        if all(candidate.degree(v) >= k for v in candidate.nodes):
            if minimum_pair_connectivity(candidate) >= k:
                return candidate
        extra += 1
    raise TopologyError(f"failed to generate a {k}-connected graph on {n} nodes")


class ReliableBacklogTraffic:
    """Send exactly ``count`` reliable messages as fast as back-pressure
    allows (a file-transfer-like workload)."""

    def __init__(
        self,
        network: OverlayNetwork,
        source: NodeId,
        dest: NodeId,
        count: int,
        size_bytes: int = 1186,
        method: Optional[DisseminationMethod] = None,
        retry_interval: float = 0.02,
    ):
        self.network = network
        self.source = source
        self.dest = dest
        self.count = count
        self.size_bytes = size_bytes
        self.method = method or DisseminationMethod.flooding()
        self.retry_interval = retry_interval
        self.sent = 0

    def start(self) -> None:
        """Begin draining the backlog as back-pressure allows."""
        self._tick()

    def _tick(self) -> None:
        node = self.network.node(self.source)
        while self.sent < self.count and not node.crashed and node.send_reliable(
            self.dest, size_bytes=self.size_bytes, method=self.method
        ):
            self.sent += 1
        if self.sent < self.count:
            self.network.sim.schedule(self.retry_interval, self._tick)

    @property
    def done(self) -> bool:
        return self.sent >= self.count


def connect_por_pair(
    sim: SchedulerLike,
    a: Any,
    b: Any,
    channel_ab: TransportLike,
    channel_ba: TransportLike,
    pki: Pki,
    config: Optional[PorConfig] = None,
    handshake: bool = False,
) -> Tuple[PorEndpoint, PorEndpoint]:
    """Create both endpoints of a PoR link over a channel pair.

    With ``handshake=False`` (the default) the link key is installed out
    of band; with ``handshake=True`` the endpoints run the signed
    Diffie-Hellman exchange on the wire and only become established once
    it completes.
    """
    end_a = PorEndpoint(sim, a, b, channel_ab, channel_ba, pki, config)
    end_b = PorEndpoint(sim, b, a, channel_ba, channel_ab, pki, config)
    if handshake:
        end_a.start_handshake()
    else:
        end_a.establish_out_of_band()
        end_b.establish_out_of_band()
    return end_a, end_b
