"""Fast simulated signatures and MACs for large simulations.

Real RSA costs ~1 ms of *host* CPU per signature; a saturated flooding
experiment signs and verifies hundreds of thousands of simulated messages,
so doing real bignum math would make the benchmarks intractable without
changing any observable protocol behaviour.  The simulated scheme keeps the
two properties the protocols rely on:

* **integrity** — a signature binds the signer to the exact field values;
  any tampering by a Byzantine forwarder makes verification fail, because
  the tag is a hash of the fields;
* **unforgeability** — the tag also folds in a per-identity secret known
  only to that identity's signer object, so (honest) code cannot fabricate
  a signature on behalf of another node.  A *compromised* node owns its own
  signer, exactly matching the threat model ("a compromised node has access
  to all of the private cryptographic material stored at that node").

Tags use Python's builtin ``hash`` over a tuple — one C-level call — and
are therefore only meaningful within a single process, which is all a
simulation needs.  CPU *time* for crypto is charged separately through
:class:`repro.sim.cpu.Cpu` so that Table II's CPU-bound goodput shape still
reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.caching import LruCache

#: Bound on the verification memo: large enough that a saturated
#: benchmark's working set (messages in flight x hops) fits, small
#: enough that a long soak cannot grow without limit.
VERIFY_MEMO_SIZE = 8192

_MISS = object()


@dataclass(frozen=True)
class SimulatedSignature:
    """A simulated signature: the claimed signer plus an integrity tag."""

    signer: Any
    tag: int

    # Wire size accounting: matches RSA-2048.
    WIRE_SIZE = 256


class SimulatedSigner:
    """Holds one identity's signing secret."""

    def __init__(self, identity: Any, secret: int):
        self.identity = identity
        self._secret = secret

    def sign(self, fields: Tuple[Any, ...]) -> SimulatedSignature:
        """Sign a tuple of hashable field values."""
        tag = hash((self._secret, fields))
        return SimulatedSignature(signer=self.identity, tag=tag)


class SimulatedVerifier:
    """Verifies simulated signatures given access to the secret table.

    Only the PKI constructs this; protocol code sees just ``verify``.

    Verdicts are memoized in a bounded LRU keyed by the *complete* check
    — ``(signer, fields, tag)`` — so a memo hit is answering exactly the
    question that was previously computed (no digest truncation that a
    collision could exploit).  The PKI calls :meth:`invalidate` whenever
    any secret changes (key rotation) or a new identity registers, so a
    memoized verdict can never outlive the key material it attests to.
    Unhashable field values (only constructible by test/attack code —
    protocol tuples are hashable) skip the memo entirely.
    """

    def __init__(self, secrets_by_identity: dict):
        self._secrets = secrets_by_identity
        self._memo: LruCache[bool] = LruCache(VERIFY_MEMO_SIZE)

    def invalidate(self) -> None:
        """Forget every memoized verdict (key material changed)."""
        self._memo.clear()

    def verify(self, signer: Any, fields: Tuple[Any, ...], signature: SimulatedSignature) -> bool:
        """Check a simulated signature against the signer's secret."""
        if signature.signer != signer:
            return False
        secret = self._secrets.get(signer)
        if secret is None:
            return False
        # Memo key: (signer, tag) — cheap to hash — with the full fields
        # tuple stored in the entry and compared on hit.  Keying by the
        # fields themselves would hash the nested tuple once for the
        # lookup and again for the insert, tripling the deep-hash work of
        # a cold verification; the equality check on hit keeps verdicts
        # exact (a replayed tag with different fields never matches).
        memo = self._memo
        key = (signer, signature.tag)
        entry = memo.get(key, _MISS)
        if entry is not _MISS and entry[0] == fields:
            return entry[1]  # type: ignore[return-value]
        try:
            verdict = signature.tag == hash((secret, fields))
        except TypeError:  # unhashable field value: nothing to memoize
            return False
        memo.put(key, (fields, verdict))
        return verdict
