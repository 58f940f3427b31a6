"""Overlay topology: graphs, the MTMW, disjoint paths, and analysis.

* :mod:`repro.topology.graph` — the weighted undirected overlay graph;
* :mod:`repro.topology.mtmw` — the administrator-signed Maximal Topology
  with Minimal Weights (Section V-A);
* :mod:`repro.topology.disjoint` — minimum-cost K node-disjoint paths
  (Suurballe/Bhandari via node-split min-cost flow);
* :mod:`repro.topology.global_cloud` — the 12-node / 32-edge deployment
  topology used throughout the evaluation (Figure 3);
* :mod:`repro.topology.generators` — synthetic topologies (ring,
  clique, chordal ring, large seeded overlays);
* :mod:`repro.topology.analysis` — the analytical dissemination-cost
  metrics reported in Table III.
"""

from repro.topology.disjoint import DisjointPathError, k_node_disjoint_paths
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw, MtmwUpdateResult

__all__ = [
    "Topology",
    "Mtmw",
    "MtmwUpdateResult",
    "k_node_disjoint_paths",
    "DisjointPathError",
]
