"""Maximal Topology with Minimal Weights (MTMW).

Section V-A: "Each overlay node trusts an offline system administrator to
initially distribute a signed Maximal Topology with Minimal Weights
(MTMW).  The MTMW specifies the overlay nodes and links in the network and
the minimal weight allowed on each link. [...] Each MTMW is assigned a
unique monotonically increasing sequence number to defeat replay attacks."

The MTMW is the root of trust for routing security:

* only nodes listed in the MTMW participate (defeats Sybil attacks);
* nodes only accept messages from their direct MTMW neighbors;
* a node may raise/lower the weight of *its own* links, but never below
  the administrator-assigned minimum and never for links it is not an
  endpoint of — violations mark the issuer as compromised (defeating
  black-hole and wormhole attacks, see :mod:`repro.routing.validation`).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.crypto.encoding import nan_free
from repro.crypto.pki import ADMIN, Pki
from repro.errors import TopologyError
from repro.topology.graph import NodeId, Topology, edge_key


class MtmwUpdateResult(enum.Enum):
    """Outcome of offering a (re)distributed MTMW to a node."""

    ACCEPTED = "accepted"
    STALE = "stale"               # replayed or out-of-date sequence number
    BAD_SIGNATURE = "bad_signature"


class Mtmw:
    """An administrator-signed topology with per-link minimum weights.

    Instances are immutable snapshots; topology changes are distributed as
    a new MTMW with a higher sequence number.
    """

    def __init__(self, topology: Topology, seqno: int, signature: Any):
        self._topology = topology
        self.seqno = seqno
        self.signature = signature
        self._min_weights: Dict[FrozenSet[NodeId], float] = {
            edge_key(a, b): topology.weight(a, b) for a, b in topology.edges()
        }

    # ------------------------------------------------------------------
    # Creation and verification
    # ------------------------------------------------------------------
    @staticmethod
    def signed_fields(topology: Topology, seqno: int) -> Tuple[Any, ...]:
        """Canonical tuple of fields covered by the admin signature."""
        nodes = tuple(sorted((str(n) for n in topology.nodes)))
        edges = tuple(
            sorted(
                (str(a), str(b), nan_free(topology.weight(a, b)))
                if str(a) < str(b)
                else (str(b), str(a), nan_free(topology.weight(a, b)))
                for a, b in topology.edges()
            )
        )
        return ("mtmw", seqno, nodes, edges)

    @classmethod
    def create(cls, topology: Topology, pki: Pki, seqno: int = 1) -> "Mtmw":
        """Sign ``topology`` as the administrator and wrap it."""
        if seqno < 1:
            raise TopologyError(f"MTMW sequence number must be >= 1 (got {seqno})")
        signature = pki.admin.sign(cls.signed_fields(topology, seqno))
        return cls(topology.copy(), seqno, signature)

    def verify(self, pki: Pki) -> bool:
        """Check the administrator signature."""
        return pki.verify(ADMIN, self.signed_fields(self._topology, self.seqno), self.signature)

    def successor(self, topology: Topology, pki: Pki) -> "Mtmw":
        """Create the next MTMW (seqno + 1) for an updated topology."""
        return Mtmw.create(topology, pki, seqno=self.seqno + 1)

    # ------------------------------------------------------------------
    # Queries used by routing validation
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The maximal topology (weights are the administrative minimums).

        Callers must treat the returned object as read-only; routing keeps
        its own mutable copy with current (raised) weights.
        """
        return self._topology

    def is_edge(self, a: NodeId, b: NodeId) -> bool:
        """Whether (a, b) is an authorized overlay link."""
        return self._topology.has_edge(a, b)

    def are_neighbors(self, a: NodeId, b: NodeId) -> bool:
        """Whether a and b may communicate directly (alias of is_edge)."""
        return self.is_edge(a, b)

    def min_weight(self, a: NodeId, b: NodeId) -> float:
        """The administrator-assigned minimum weight of link (a, b)."""
        key = edge_key(a, b)
        try:
            return self._min_weights[key]
        except KeyError:
            raise TopologyError(f"no MTMW edge between {a!r} and {b!r}") from None

    @property
    def members(self) -> List[NodeId]:
        return self._topology.nodes


class MtmwHolder:
    """A node's view of the current MTMW, with replay protection."""

    def __init__(self, pki: Pki, initial: Mtmw):
        if not initial.verify(pki):
            raise TopologyError("initial MTMW has an invalid administrator signature")
        self._pki = pki
        self.current = initial

    def consider(self, candidate: Mtmw) -> MtmwUpdateResult:
        """Offer a redistributed MTMW; accept only fresh, validly signed ones."""
        if not candidate.verify(self._pki):
            return MtmwUpdateResult.BAD_SIGNATURE
        if candidate.seqno <= self.current.seqno:
            return MtmwUpdateResult.STALE
        self.current = candidate
        return MtmwUpdateResult.ACCEPTED
