"""The overlay's Public Key Infrastructure.

Section III-A: "Overlay network communication is authenticated using a
Public Key Infrastructure (PKI), where the system administrator and each
node in the overlay network has a public/private key pair and knows all
the other public keys."

:class:`Pki` is that shared key directory.  It supports three modes:

* ``REAL`` — every identity gets a from-scratch RSA key pair
  (:mod:`repro.crypto.rsa`); signatures cover the canonical encoding of
  the message fields.  Slow; used in crypto tests and small integration
  runs.
* ``SIMULATED`` — signatures are integrity tags bound to a per-identity
  secret (:mod:`repro.crypto.simulated`).  Tampering and forgery are still
  detected; signing and verifying each cost one builtin-hash call over
  ``(secret, fields)``, with nothing memoised.  Default for simulations.
* ``NONE`` — signatures are absent and verification always succeeds.
  Used only for Table II(a), which measures goodput with cryptography
  disabled.

The special identity :data:`ADMIN` signs the Maximal Topology with Minimal
Weights.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any, Dict, Tuple

from repro.crypto.encoding import canonical_bytes
from repro.crypto.rsa import RsaKeyPair, keypair_from_seed
from repro.crypto.simulated import SimulatedSignature
from repro.errors import CryptoError

ADMIN = "admin"


class PkiMode(enum.Enum):
    """How signatures are produced and verified."""

    REAL = "real"
    SIMULATED = "simulated"
    NONE = "none"


_NONE = PkiMode.NONE
_SIMULATED = PkiMode.SIMULATED


class Identity:
    """One participant's identity: an id plus its private key material.

    A compromised node "has access to all of the private cryptographic
    material stored at that node" — in this model, its ``Identity``.
    """

    def __init__(self, pki: "Pki", node_id: Any):
        self._pki = pki
        self.node_id = node_id

    def sign(self, fields: Tuple[Any, ...]):
        """Sign a tuple of message fields with this identity's key."""
        return self._pki._sign(self.node_id, fields)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Identity({self.node_id!r})"


class Pki:
    """Shared key directory for every overlay node and the administrator."""

    def __init__(self, mode: PkiMode = PkiMode.SIMULATED, seed: int = 0, rsa_bits: int = 512):
        self.mode = mode
        self._seed = seed
        self._rsa_bits = rsa_bits
        self._rsa_keys: Dict[Any, RsaKeyPair] = {}
        self._sim_secrets: Dict[Any, int] = {}
        self._identities: Dict[Any, Identity] = {}
        #: Monotonic key-material generation.  Bumped whenever the set of
        #: valid (identity, key) pairs changes — new registration or key
        #: rotation — so callers caching verification verdicts (e.g.
        #: ``Message.verify``) can key them by ``(pki, epoch)`` and never
        #: serve a verdict computed under superseded key material.
        self.epoch = 0
        #: Per-identity rotation counts (feeds key derivation).
        self._rotations: Dict[Any, int] = {}
        # Crypto-op counters (attach_metrics); None keeps the hot path
        # to a single identity check per operation.
        self._sign_ops: Any = None
        self._verify_ops: Any = None
        # The administrator exists in every PKI.
        self.register(ADMIN)

    def attach_metrics(self, metrics: Any) -> None:
        """Count every signature operation in ``metrics``.

        ``metrics`` is a :class:`repro.sim.stats.StatsRegistry`
        (duck-typed: anything with ``counter(name)``).  The counters —
        ``crypto.sign`` and ``crypto.verify`` — count *logical*
        operations: in NONE mode no work happens and nothing is counted.
        The PoR links count link MACs; their ``crypto.mac_sign`` and
        ``crypto.mac_verify`` counters are registered here too, so every
        report lists them (at zero in NONE mode).
        """
        self._sign_ops = metrics.counter("crypto.sign")
        self._verify_ops = metrics.counter("crypto.verify")
        metrics.counter("crypto.mac_sign")
        metrics.counter("crypto.mac_verify")

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, node_id: Any) -> Identity:
        """Create (or return) the identity for ``node_id``."""
        identity = self._identities.get(node_id)
        if identity is not None:
            return identity
        self._install_keys(node_id, rotation=0)
        identity = Identity(self, node_id)
        self._identities[node_id] = identity
        # Registration changes verification outcomes (unknown-signer
        # verdicts flip), so cached verdicts from before are stale.
        self.epoch += 1
        return identity

    def rotate(self, node_id: Any) -> Identity:
        """Replace ``node_id``'s key pair with a freshly derived one.

        Signatures produced under the old key no longer verify, and the
        epoch bump invalidates every per-message cached verdict.
        """
        identity = self.identity(node_id)
        rotation = self._rotations.get(node_id, 0) + 1
        self._rotations[node_id] = rotation
        self._install_keys(node_id, rotation=rotation)
        self.epoch += 1
        return identity

    def _install_keys(self, node_id: Any, rotation: int) -> None:
        """Derive and store key material for ``node_id``."""
        suffix = "" if rotation == 0 else f":rot{rotation}"
        if self.mode is PkiMode.REAL:
            seed = hashlib.sha256(
                f"{self._seed}:{node_id}{suffix}".encode("utf-8")
            ).digest()
            self._rsa_keys[node_id] = keypair_from_seed(seed, bits=self._rsa_bits)
        elif self.mode is PkiMode.SIMULATED:
            digest = hashlib.sha256(
                f"{self._seed}:sim:{node_id}{suffix}".encode("utf-8")
            ).digest()
            self._sim_secrets[node_id] = int.from_bytes(digest[:8], "big")

    def identity(self, node_id: Any) -> Identity:
        """Look up an existing identity; raises CryptoError if unknown."""
        identity = self._identities.get(node_id)
        if identity is None:
            raise CryptoError(f"unknown identity {node_id!r}")
        return identity

    @property
    def admin(self) -> Identity:
        return self._identities[ADMIN]

    def knows(self, node_id: Any) -> bool:
        """Whether ``node_id`` is registered in this PKI."""
        return node_id in self._identities

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    @property
    def signature_wire_size(self) -> int:
        """Bytes a signature occupies on the wire (for size accounting)."""
        if self.mode is PkiMode.REAL:
            return self._rsa_bits // 8
        if self.mode is PkiMode.SIMULATED:
            return SimulatedSignature.WIRE_SIZE
        return 0

    def _sign(self, node_id: Any, fields: Tuple[Any, ...]):
        mode = self.mode
        if mode is _NONE:
            return None
        if self._sign_ops is not None:
            self._sign_ops.add()
        if mode is _SIMULATED:
            return SimulatedSignature(node_id, hash((self._sim_secrets[node_id], fields)))
        key = self._rsa_keys.get(node_id)
        if key is None:
            raise CryptoError(f"no private key for {node_id!r}")
        return key.sign(canonical_bytes(fields))

    def verify(self, signer: Any, fields: Tuple[Any, ...], signature: Any) -> bool:
        """Check that ``signature`` was produced by ``signer`` over ``fields``.

        A SIMULATED check recomputes the tag: one builtin hash, cheaper
        than any memo of verdicts could look one up (DESIGN.md §10).
        """
        mode = self.mode
        if mode is _NONE:
            return True
        if self._verify_ops is not None:
            self._verify_ops.add()
        if mode is _SIMULATED:
            # Registered identities are exactly those with a secret.
            secret = self._sim_secrets.get(signer)
            if (
                secret is None
                or not isinstance(signature, SimulatedSignature)
                or signature.signer != signer
            ):
                return False
            try:
                return signature.tag == hash((secret, fields))
            except TypeError:  # an unhashable field: nothing signed it
                return False
        if signer not in self._identities or not isinstance(signature, bytes):
            return False
        key = self._rsa_keys[signer]
        return key.public.is_valid(canonical_bytes(fields), signature)

    def forge(self, claimed_signer: Any, fields: Tuple[Any, ...]):
        """Produce a *bogus* signature, as a Byzantine node without the
        victim's key would.  Verification of the result always fails
        (with overwhelming probability) — used by attack tests."""
        if self.mode is PkiMode.NONE:
            return None
        if self.mode is PkiMode.REAL:
            return b"\x00" * self.signature_wire_size
        return SimulatedSignature(signer=claimed_signer, tag=hash(("forged", fields)))

    # ------------------------------------------------------------------
    # Link (symmetric) keys
    # ------------------------------------------------------------------
    def link_secret(self, a: Any, b: Any) -> bytes:
        """Shared symmetric key for the link between ``a`` and ``b``.

        Stands in for the authenticated Diffie-Hellman exchange that the
        Proof-of-Receipt link performs at startup (the real handshake is
        implemented and tested in :mod:`repro.link.por`; simulations skip
        re-deriving it every run).
        """
        lo, hi = sorted((str(a), str(b)))
        return hashlib.sha256(f"{self._seed}:link:{lo}:{hi}".encode("utf-8")).digest()
