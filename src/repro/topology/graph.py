"""The weighted undirected overlay graph.

Nodes are overlay sites (data centers); edges are overlay links with a
weight that "can represent any real-world cost (e.g. latency)"; routing
decisions minimize weight.  Weights here are one-way latencies in seconds,
matching the deployment.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import TopologyError

NodeId = Any
Edge = Tuple[NodeId, NodeId]


def edge_key(a: NodeId, b: NodeId) -> FrozenSet[NodeId]:
    """Canonical (unordered) identifier for the edge between a and b."""
    return frozenset((a, b))


class Topology:
    """A weighted undirected graph of overlay nodes.

    The class is deliberately small: adjacency, weights, Dijkstra, and
    connectivity queries.  MTMW semantics (signing, minimum weights,
    update validation) live in :mod:`repro.topology.mtmw`.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[NodeId, Dict[NodeId, float]] = {}
        self.node_info: Dict[NodeId, dict] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, **info: Any) -> None:
        """Add (or update metadata of) a node."""
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self.node_info[node] = {}
        if info:
            self.node_info[node].update(info)

    def add_edge(self, a: NodeId, b: NodeId, weight: float) -> None:
        """Add an undirected edge with a positive weight."""
        if a == b:
            raise TopologyError(f"self-loop on node {a!r}")
        if weight <= 0:
            raise TopologyError(f"edge weight must be positive (got {weight})")
        self.add_node(a)
        self.add_node(b)
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight

    def remove_edge(self, a: NodeId, b: NodeId) -> None:
        """Remove an existing edge; raises TopologyError if absent."""
        if not self.has_edge(a, b):
            raise TopologyError(f"no edge between {a!r} and {b!r}")
        del self._adjacency[a][b]
        del self._adjacency[b][a]

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all of its edges."""
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        for neighbor in list(self._adjacency[node]):
            self.remove_edge(node, neighbor)
        del self._adjacency[node]
        del self.node_info[node]

    def set_weight(self, a: NodeId, b: NodeId, weight: float) -> None:
        """Change an existing edge's weight."""
        if not self.has_edge(a, b):
            raise TopologyError(f"no edge between {a!r} and {b!r}")
        if weight <= 0:
            raise TopologyError(f"edge weight must be positive (got {weight})")
        self._adjacency[a][b] = weight
        self._adjacency[b][a] = weight

    def copy(self) -> "Topology":
        """Deep copy of the topology (nodes, metadata, edges)."""
        clone = Topology()
        for node, info in self.node_info.items():
            clone.add_node(node, **info)
        for a, b in self.edges():
            clone.add_edge(a, b, self.weight(a, b))
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._adjacency)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` exists."""
        return node in self._adjacency

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        """Whether the undirected edge (a, b) exists."""
        return a in self._adjacency and b in self._adjacency[a]

    def weight(self, a: NodeId, b: NodeId) -> float:
        """The weight of edge (a, b); raises TopologyError if absent."""
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise TopologyError(f"no edge between {a!r} and {b!r}") from None

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """The node's neighbors; raises TopologyError if unknown."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def degree(self, node: NodeId) -> int:
        """Number of edges incident to ``node``."""
        return len(self._adjacency[node])

    def edges(self) -> List[Edge]:
        """Each undirected edge exactly once, in deterministic order."""
        seen = set()
        out: List[Edge] = []
        for a in self._adjacency:
            for b in self._adjacency[a]:
                key = edge_key(a, b)
                if key not in seen:
                    seen.add(key)
                    out.append((a, b))
        return out

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def node_pairs(self) -> Iterable[Tuple[NodeId, NodeId]]:
        """All unordered node pairs (a, b) with a != b, each once."""
        nodes = self.nodes
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                yield a, b

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def dijkstra(
        self, source: NodeId, exclude_nodes: Optional[set] = None
    ) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
        """Single-source shortest path.  Returns (distance, predecessor).

        ``exclude_nodes`` removes nodes (and their edges) from
        consideration — used when routing around known-failed sites.
        Tie-breaking is deterministic (by stringified node id) so routing
        tables agree across nodes.
        """
        if source not in self._adjacency:
            raise TopologyError(f"unknown node {source!r}")
        excluded = exclude_nodes or set()
        dist: Dict[NodeId, float] = {source: 0.0}
        pred: Dict[NodeId, NodeId] = {}
        heap: List[Tuple[float, str, NodeId]] = [(0.0, str(source), source)]
        done = set()
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self._adjacency[u].items():
                if v in excluded:
                    continue
                nd = d + w
                if v not in dist or nd < dist[v] - 1e-15 or (
                    abs(nd - dist[v]) <= 1e-15 and str(u) < str(pred.get(v, u))
                ):
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, str(v), v))
        return dist, pred

    def shortest_path(self, source: NodeId, dest: NodeId) -> Optional[List[NodeId]]:
        """Minimum-weight path from source to dest, or None if disconnected."""
        if source == dest:
            return [source]
        dist, pred = self.dijkstra(source)
        if dest not in dist:
            return None
        path = [dest]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def path_weight(self, path: List[NodeId]) -> float:
        """Total weight of a node path."""
        return sum(self.weight(a, b) for a, b in zip(path, path[1:]))

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def reachable_from(self, source: NodeId, exclude_nodes: Optional[set] = None) -> set:
        """Nodes reachable from ``source`` avoiding ``exclude_nodes``."""
        excluded = exclude_nodes or set()
        if source in excluded or source not in self._adjacency:
            return set()
        stack = [source]
        seen = {source}
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if v not in seen and v not in excluded:
                    seen.add(v)
                    stack.append(v)
        return seen

    def __repr__(self) -> str:  # pragma: no cover
        return f"Topology(nodes={len(self._adjacency)}, edges={self.edge_count})"
