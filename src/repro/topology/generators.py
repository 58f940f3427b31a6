"""Synthetic topology generators for benchmarks, examples and clusters."""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.topology.graph import Topology


def ring(n: int, weight: float = 0.010) -> Topology:
    """A cycle of n nodes (2-connected)."""
    if n < 3:
        raise TopologyError("ring needs at least 3 nodes")
    topo = Topology()
    for i in range(1, n):
        topo.add_edge(i, i + 1, weight)
    topo.add_edge(n, 1, weight)
    return topo


def clique(n: int, weight: float = 0.010) -> Topology:
    """The complete graph on n nodes ((n-1)-connected)."""
    if n < 2:
        raise TopologyError("clique needs at least 2 nodes")
    topo = Topology()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            topo.add_edge(i, j, weight)
    return topo


def chordal_ring(n: int, chords: int = 2, weight: float = 0.010) -> Topology:
    """A ring plus ``chords`` extra chord offsets; connectivity grows with
    chords.  ``chords=2`` gives a 4-regular, 4-connected graph for even n."""
    topo = ring(n, weight)
    for offset in range(2, 2 + chords):
        for i in range(1, n + 1):
            j = ((i - 1 + offset) % n) + 1
            if not topo.has_edge(i, j) and i != j:
                topo.add_edge(i, j, weight)
    return topo


def large_overlay(
    n: int,
    degree: int = 4,
    chord_fraction: float = 0.15,
    seed: int = 0,
    min_weight: float = 0.005,
    max_weight: float = 0.050,
) -> Topology:
    """A seeded 50–500-node MTMW-valid overlay for cluster deployments.

    Construction: a circulant graph C_n(1..degree/2) — every node links
    to its ``degree/2`` nearest ring successors — plus seeded long-range
    chords (``chord_fraction * n`` of them) that cut the graph diameter,
    with seeded per-edge weights.  The circulant core makes the graph
    ``degree``-connected *by construction* (Boesch & Tindell), so no
    max-flow verification pass is needed — ``minimum_pair_connectivity``
    is O(n² · maxflow) and intractable at this scale.  Callers wanting extra assurance can spot
    check sampled pairs with :mod:`repro.topology.disjoint`.

    Deterministic: the same ``(n, degree, chord_fraction, seed)`` yields
    the same graph, so every shard process of a cluster regenerates an
    identical topology from the spec alone.
    """
    if n < 5:
        raise TopologyError("large_overlay needs at least 5 nodes")
    if degree < 2 or degree % 2 != 0:
        raise TopologyError("degree must be an even integer >= 2")
    if degree >= n:
        raise TopologyError(f"degree {degree} must be < n ({n})")
    if not 0.0 <= chord_fraction <= 1.0:
        raise TopologyError("chord_fraction must be in [0, 1]")
    rng = random.Random(f"large-overlay:{seed}:{n}:{degree}")
    topo = Topology()
    half = degree // 2
    for i in range(1, n + 1):
        for offset in range(1, half + 1):
            j = ((i - 1 + offset) % n) + 1
            if i != j and not topo.has_edge(i, j):
                topo.add_edge(i, j, rng.uniform(min_weight, max_weight))
    chords = int(chord_fraction * n)
    nodes = list(range(1, n + 1))
    added = 0
    attempts = 0
    while added < chords and attempts < 50 * max(chords, 1):
        attempts += 1
        a, b = rng.sample(nodes, 2)
        if not topo.has_edge(a, b):
            topo.add_edge(a, b, rng.uniform(min_weight, max_weight))
            added += 1
    return topo
