"""RSA digital signatures, implemented from scratch.

The paper signs every overlay message with RSA (via OpenSSL) because
signatures provide non-repudiation and scale with network size, unlike
vectors of HMACs.  This module provides the same capability using only the
standard library:

* key pairs derived deterministically from a seed, with Miller-Rabin
  primality testing,
* textbook RSA with a deterministic full-domain-hash style padding
  (SHA-256 digest expanded with MGF1 to the modulus size),
* constant public exponent 65537.

The PKI derives 512-bit keys by default: key derivation cost grows
steeply with size.

This is a faithful, self-contained implementation intended for the
simulator and test-benches of this reproduction — not a hardened
production crypto library.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from repro.errors import CryptoError, SignatureError

_PUBLIC_EXPONENT = 65537

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 as d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation (RFC 8017 B.2.1) with SHA-256."""
    output = b""
    counter = 0
    while len(output) < length:
        c = counter.to_bytes(4, "big")
        output += hashlib.sha256(seed + c).digest()
        counter += 1
    return output[:length]


def _encode_digest(message: bytes, modulus_bytes: int) -> int:
    """Deterministic full-domain-hash encoding of ``message``.

    The SHA-256 digest is expanded with MGF1 to one byte short of the
    modulus size (leading zero byte keeps the representative below n).
    """
    digest = hashlib.sha256(message).digest()
    expanded = _mgf1(digest, modulus_bytes - 1)
    return int.from_bytes(b"\x00" + expanded, "big")


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int = _PUBLIC_EXPONENT

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def signature_size(self) -> int:
        """Wire size of a signature under this key, in bytes."""
        return self.modulus_bytes

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify ``signature`` over ``message``; raise on failure."""
        if len(signature) != self.modulus_bytes:
            raise SignatureError("signature has wrong length")
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            raise SignatureError("signature representative out of range")
        recovered = pow(s, self.e, self.n)
        expected = _encode_digest(message, self.modulus_bytes)
        if recovered != expected:
            raise SignatureError("signature does not match message")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True


class RsaKeyPair:
    """An RSA private/public key pair with CRT-accelerated signing."""

    def __init__(self, p: int, q: int, e: int = _PUBLIC_EXPONENT):
        if p == q:
            raise CryptoError("p and q must be distinct primes")
        n = p * q
        lam = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, lam)
        except ValueError as exc:  # e not invertible mod lambda
            raise CryptoError("public exponent not invertible") from exc
        self._p = p
        self._q = q
        self._d = d
        self._dp = d % (p - 1)
        self._dq = d % (q - 1)
        self._qinv = pow(q, -1, p)
        self.public = RsaPublicKey(n=n, e=e)

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic signature over ``message``."""
        m = _encode_digest(message, self.public.modulus_bytes)
        # CRT: s = q_inv * (sp - sq) mod p * q + sq
        sp = pow(m, self._dp, self._p)
        sq = pow(m, self._dq, self._q)
        h = (self._qinv * (sp - sq)) % self._p
        s = sq + h * self._q
        return s.to_bytes(self.public.modulus_bytes, "big")


def keypair_from_seed(seed: bytes, bits: int = 512) -> RsaKeyPair:
    """Deterministically derive a key pair from ``seed``.

    Used by the simulator's PKI so that node identities are reproducible
    across runs without paying key-generation time on every test.
    """

    def prime_from(counter: int, size: int) -> int:
        nonce = 0
        while True:
            material = hashlib.sha256(seed + bytes([counter]) + nonce.to_bytes(8, "big"))
            candidate = int.from_bytes(_mgf1(material.digest(), size // 8), "big")
            candidate |= (1 << (size - 1)) | 1
            if candidate % _PUBLIC_EXPONENT != 1 and _is_probable_prime(candidate):
                return candidate
            nonce += 1

    half = bits // 2
    p = prime_from(1, half)
    q = prime_from(2, bits - half)
    attempt = 3
    while p == q or (p * q).bit_length() != bits:
        q = prime_from(attempt, bits - half)
        attempt += 1
    return RsaKeyPair(p, q)
