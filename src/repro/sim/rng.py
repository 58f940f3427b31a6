"""Named, seeded random substreams.

Determinism is a first-class requirement: the paper's experiments are rerun
with different attack schedules, and we need bit-identical repeats for
regression tests.  Instead of one global RNG (where adding a single random
call perturbs every later draw), each component asks the registry for a
stream by name; streams are seeded by hashing the master seed with the
stream name, so they are independent and stable across code changes in
other components.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Factory of independent named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same name always returns the same stream object, so stateful
        consumers (for example a channel's loss process) share draws.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
