"""Crossfire/Coremelt-style rotating link-flooding attacks (Figure 2).

The attack keeps a targeted path persistently unusable while evading
per-link failure detection: it overwhelms one underlay link (route
combination) at a time and rotates before Internet routing would react.
Against a single-homed overlay link this takes the whole overlay link
down for as long as the attack runs (the overlay must reroute at the
overlay level); against a multihomed link the attacker must flood *every*
combination simultaneously to break it — "this significantly raises the
bar for the attacker".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.resilience.underlay import Underlay
from repro.sim.engine import Simulator
from repro.topology.graph import NodeId


class RotatingLinkAttack:
    """Rotate floods across the route combinations of targeted links.

    ``breadth`` is how many combinations per link the attacker can flood
    simultaneously (its resource budget).  With ``breadth`` at least the
    number of combinations on a link, that link is continuously dead;
    with fewer, multihoming lets the overlay link keep passing traffic
    through the unflooded combination.
    """

    def __init__(
        self,
        sim: Simulator,
        underlay: Underlay,
        target_links: Sequence[Tuple[NodeId, NodeId]],
        rotation_period: float = 1.0,
        breadth: int = 1,
    ):
        if rotation_period <= 0:
            raise ConfigurationError("rotation_period must be positive")
        if breadth < 1:
            raise ConfigurationError("breadth must be >= 1")
        self.sim = sim
        self.underlay = underlay
        self.targets = list(target_links)
        self.rotation_period = rotation_period
        self.breadth = breadth
        self.active = False
        self._phase = 0
        self._flooded: List[Tuple[NodeId, NodeId, tuple]] = []

    def start(self) -> None:
        """Begin rotating floods across the targets' route combinations."""
        self.active = True
        self._rotate()

    def stop(self) -> None:
        """Stop the attack and release all flooded combinations."""
        self.active = False
        self._release_all()

    # ------------------------------------------------------------------
    def _rotate(self) -> None:
        if not self.active:
            return
        self._release_all()
        for a, b in self.targets:
            combos = self.underlay.combos(a, b)
            for i in range(self.breadth):
                combo = combos[(self._phase + i) % len(combos)]
                self.underlay.set_combo(a, b, combo, up=False)
                self._flooded.append((a, b, combo))
        self._phase += 1
        self.sim.schedule(self.rotation_period, self._rotate)

    def _release_all(self) -> None:
        for a, b, combo in self._flooded:
            self.underlay.set_combo(a, b, combo, up=True)
        self._flooded = []
