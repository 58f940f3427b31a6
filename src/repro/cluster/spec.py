"""Cluster run configuration and topology sharding.

A :class:`ClusterConfig` describes one multi-process run; the coordinator
partitions the (deterministically generated) topology into
:class:`ShardSpec` slices — one per worker process — with
:func:`partition_topology`.  Workers never see these objects: everything
a worker needs crosses the process boundary as a plain dict of
primitives (see :mod:`repro.cluster.worker`), so the spawn pickle stays
trivial and version-proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.live import CHAOS_PRESETS
from repro.topology.graph import NodeId, Topology


@dataclass(frozen=True)
class ShardSpec:
    """One worker process's slice of the overlay: which nodes it hosts."""

    shard_id: int
    nodes: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ConfigurationError("shard_id must be >= 0")
        if not self.nodes:
            raise ConfigurationError("a shard must host at least one node")

    @property
    def seed_node(self) -> NodeId:
        """The shard's bootstrap seed node (answers discovery queries)."""
        return self.nodes[0]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one sharded multi-process run.

    Mirrors :class:`~repro.runtime.live.LiveConfig` where the semantics
    are shared (duration/drain windows, chaos presets, delivery gating);
    adds the sharding and membership knobs.
    """

    nodes: int = 24
    shards: int = 4
    duration: float = 8.0
    seed: int = 0
    rate_msgs_per_sec: float = 10.0
    size_bytes: int = 200
    host: str = "127.0.0.1"
    drain: float = 2.0
    #: k-disjoint-paths dissemination (flooding is quadratic in fanout
    #: and impractical at 100+ nodes; pass 0 to force flooding anyway).
    kpaths: int = 2
    chaos_preset: Optional[str] = None
    chaos_intensity: float = 1.0
    #: Source every Nth flow of the global flow plan (traffic thinning:
    #: a 100+-node overlay on a small host cannot sustain one CBR flow
    #: per node, and an overloaded event loop mimics packet loss).
    flow_stride: int = 1
    #: Signed mid-run membership events to drive (join first, then leave).
    joins: int = 1
    leaves: int = 1
    #: Tier-wide client-session request rate (requests/second across the
    #: whole cluster).  When positive, every shard runs a
    #: :class:`~repro.clients.session.SessionTier` slice homed on its
    #: local nodes (destinations span the full overlay, so requests and
    #: acks cross shard boundaries); 0 disables the session workload.
    session_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.nodes < 4:
            raise ConfigurationError("a cluster needs at least 4 nodes")
        if self.shards < 2:
            raise ConfigurationError("a cluster needs at least 2 shards")
        if self.shards > self.nodes:
            raise ConfigurationError("more shards than nodes")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.rate_msgs_per_sec <= 0:
            raise ConfigurationError("rate must be positive")
        if self.size_bytes < 1:
            raise ConfigurationError("size_bytes must be >= 1")
        if self.kpaths < 0:
            raise ConfigurationError("kpaths must be >= 0")
        if self.flow_stride < 1:
            raise ConfigurationError("flow_stride must be >= 1")
        if self.chaos_preset is not None and self.chaos_preset not in CHAOS_PRESETS:
            raise ConfigurationError(
                f"unknown chaos preset {self.chaos_preset!r} "
                f"(known: {', '.join(sorted(CHAOS_PRESETS))})"
            )
        if self.chaos_intensity <= 0:
            raise ConfigurationError("chaos_intensity must be positive")
        if self.joins < 0 or self.leaves < 0:
            raise ConfigurationError("joins/leaves must be >= 0")
        if self.session_rate < 0:
            raise ConfigurationError("session_rate must be >= 0")

    @property
    def inject_seconds(self) -> float:
        """Traffic-offer window before the drain (LiveConfig semantics)."""
        return max(self.duration - min(self.drain, 0.4 * self.duration), 0.1)


def partition_topology(topology: Topology, shards: int) -> List[ShardSpec]:
    """Contiguous slices of the node list in its natural order
    (``sorted(topology.nodes)``, the order the runtime boots and plans
    flows in), one per shard.

    Contiguity matters for generated overlays: the circulant core of
    :func:`repro.topology.generators.large_overlay` links ring
    neighbors, so contiguous slices keep most edges shard-internal and
    only the slice boundaries (plus chords) cross processes.  A
    lexicographic order (1, 10, 11, ...) would scatter ring neighbors.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    nodes = sorted(topology.nodes)
    if shards > len(nodes):
        raise ConfigurationError(
            f"cannot split {len(nodes)} nodes into {shards} shards"
        )
    base, extra = divmod(len(nodes), shards)
    specs: List[ShardSpec] = []
    at = 0
    for shard_id in range(shards):
        size = base + (1 if shard_id < extra else 0)
        specs.append(ShardSpec(shard_id, tuple(nodes[at:at + size])))
        at += size
    return specs
