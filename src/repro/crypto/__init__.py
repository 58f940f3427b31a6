"""Cryptographic toolkit.

The paper uses OpenSSL for RSA signatures, Diffie-Hellman key exchange, and
HMAC-SHA256.  We implement the same primitives from scratch on top of the
Python standard library (``hashlib``/``hmac``/``secrets`` only):

* :mod:`repro.crypto.rsa` — seeded RSA key derivation (Miller-Rabin)
  and hash-then-sign signatures;
* :mod:`repro.crypto.dh` — Diffie-Hellman over the RFC 3526 2048-bit MODP
  group, authenticated with RSA signatures;
* :mod:`repro.crypto.mac` — HMAC-SHA256 message authentication;
* :mod:`repro.crypto.nonces` — cumulative nonce chains for the
  Proof-of-Receipt link;
* :mod:`repro.crypto.pki` — the administrator-rooted public key
  infrastructure shared by all overlay nodes;
* :mod:`repro.crypto.simulated` — a fast drop-in signature scheme used
  inside large simulations: verification checks a digest of the signed
  fields (so tampering is detected) without bignum math, and CPU time is
  charged through :class:`repro.sim.cpu.Cpu`.
"""

from repro.crypto.dh import DiffieHellman
from repro.crypto.mac import BatchMacContext
from repro.crypto.nonces import CumulativeNonceChain, NonceVerifier
from repro.crypto.pki import Identity, Pki
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.simulated import SimulatedSignature

__all__ = [
    "RsaKeyPair",
    "RsaPublicKey",
    "DiffieHellman",
    "BatchMacContext",
    "CumulativeNonceChain",
    "NonceVerifier",
    "Identity",
    "Pki",
    "SimulatedSignature",
]
