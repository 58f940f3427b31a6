"""BGP hijacking attack model (Section IV-B).

"In the event of a BGP hijacking attack, traffic using Internet routes
that cross multiple ISPs can be diverted to an attacker-specified
destination, but traffic that stays within a single ISP is not affected.
Therefore, overlay links that contract service from the same provider on
both ends can still pass messages during the attack."
"""

from __future__ import annotations

from repro.resilience.underlay import Underlay


class BgpHijack:
    """A BGP hijack against the whole underlay."""

    def __init__(self, underlay: Underlay):
        self.underlay = underlay
        self.active = False

    def start(self) -> None:
        """Activate the hijack: only same-ISP combinations pass traffic."""
        self.active = True
        self.underlay.set_bgp_hijacked(True)

    def stop(self) -> None:
        """End the hijack and restore cross-ISP routes."""
        self.active = False
        self.underlay.set_bgp_hijacked(False)
