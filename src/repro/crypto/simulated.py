"""Fast simulated signatures and MACs for large simulations.

Real RSA costs ~1 ms of *host* CPU per signature; a saturated flooding
experiment signs and verifies hundreds of thousands of simulated messages,
so doing real bignum math would make the benchmarks intractable without
changing any observable protocol behaviour.  The simulated scheme keeps the
two properties the protocols rely on:

* **integrity** — a signature binds the signer to the exact field values;
  any tampering by a Byzantine forwarder makes verification fail, because
  the tag is a hash of the fields;
* **unforgeability** — the tag also folds in a per-identity secret that
  only the PKI holds, so (honest) code cannot fabricate a signature on
  behalf of another node.  A *compromised* node owns its own identity,
  exactly matching the threat model ("a compromised node has access to
  all of the private cryptographic material stored at that node").

Tags use Python's builtin ``hash`` over a tuple — one C-level call — and
are therefore only meaningful within a single process, which is all a
simulation needs.  CPU *time* for crypto is charged separately through
:class:`repro.sim.cpu.Cpu` so that Table II's CPU-bound goodput shape still
reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class SimulatedSignature:
    """A simulated signature: the claimed signer plus an integrity tag.

    :class:`repro.crypto.pki.Pki` makes and checks them: the tag is
    ``hash((secret, fields))`` under the signer's secret.
    """

    signer: Any
    tag: int

    # Wire size accounting: matches RSA-2048.
    WIRE_SIZE = 256
