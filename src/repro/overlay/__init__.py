"""The intrusion-tolerant overlay node and network builder.

* :mod:`repro.overlay.config` — all tunables in one dataclass;
* :mod:`repro.overlay.node` — the overlay node: PoR links, routing,
  both messaging engines, link monitoring, crash/recovery;
* :mod:`repro.overlay.network` — builds a full overlay (simulator, PKI,
  MTMW, channels, nodes) from a topology and exposes the client API.
"""

from repro.overlay.config import CryptoMode, DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode

__all__ = [
    "CryptoMode",
    "DisseminationMethod",
    "OverlayConfig",
    "OverlayNetwork",
    "OverlayNode",
]
