"""Neighbor-to-neighbor link protocols.

:mod:`repro.link.por` implements the Proof-of-Receipt link from
Section V-D: reliable in-order communication between neighboring overlay
nodes with HMAC integrity and cumulative-nonce acknowledgments that defeat
optimistic-ACK attacks.
"""

from repro.link.por import PorConfig, PorEndpoint

__all__ = ["PorConfig", "PorEndpoint"]
