"""Cumulative nonce chains for the Proof-of-Receipt link.

TCP-style cumulative ACKs are vulnerable to the *optimistic ACK* attack
(Savage et al. 1999): a malicious receiver acknowledges data it has not
received, driving the sender arbitrarily fast.  The paper defeats this with
a *proof of receipt*: the sender attaches an unpredictable nonce to every
packet, and a cumulative ACK for sequence ``s`` must present a value that
can only be computed by a party that actually received every nonce up to
``s`` (we fold the nonces into a running SHA-256 chain).

:class:`CumulativeNonceChain` is the receiver side (folds nonces, produces
proofs); :class:`NonceVerifier` is the sender side (remembers what the
proof should be for each sequence number and checks ACKs against it).
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.errors import ProtocolError

NONCE_SIZE = 8
PROOF_SIZE = 16


def _fold(state: bytes, seq: int, nonce: bytes) -> bytes:
    return hashlib.sha256(state + seq.to_bytes(8, "big") + nonce).digest()


class CumulativeNonceChain:
    """Receiver-side cumulative proof computation.

    The receiver folds each in-order packet's nonce into a running state.
    ``proof()`` returns a short tag that only a party holding every nonce
    up to the current sequence could have computed.  ``next_seq``, the
    next in-order sequence number the chain expects, is a plain attribute
    (the PoR receive reads it per packet); only :meth:`fold` advances it.
    """

    __slots__ = ("_state", "next_seq")

    def __init__(self) -> None:
        self._state = hashlib.sha256(b"por-chain-init").digest()
        self.next_seq = 0

    def fold(self, seq: int, nonce: bytes) -> None:
        """Fold the nonce for ``seq`` (must be the next in-order packet)."""
        if seq != self.next_seq:
            raise ProtocolError(
                f"nonce fold out of order (expected {self.next_seq}, got {seq})"
            )
        self._state = _fold(self._state, seq, nonce)
        self.next_seq = seq + 1

    def proof(self) -> bytes:
        """Proof of receipt covering all folded packets."""
        return self._state[:PROOF_SIZE]


class NonceVerifier:
    """Sender-side proof bookkeeping.

    The sender mirrors the receiver's fold as it transmits packets, records
    the expected proof after each sequence number, and validates incoming
    cumulative ACKs.  Proofs for acknowledged prefixes are discarded, so
    memory is bounded by the in-flight window.
    """

    def __init__(self) -> None:
        self._state = hashlib.sha256(b"por-chain-init").digest()
        self._next_seq = 0
        self._expected: Dict[int, bytes] = {}
        self._acked_up_to = -1

    def register(self, seq: int, nonce: bytes) -> None:
        """Record the nonce attached to outgoing packet ``seq``."""
        if seq != self._next_seq:
            raise ProtocolError(
                f"nonce register out of order (expected {self._next_seq}, got {seq})"
            )
        self._state = _fold(self._state, seq, nonce)
        self._expected[seq] = self._state[:PROOF_SIZE]
        self._next_seq += 1

    def check(self, acked_seq: int, proof: bytes) -> bool:
        """Validate a cumulative ACK for everything up to ``acked_seq``.

        Returns True when the proof is genuine.  An ACK for a sequence the
        sender never transmitted, or with a wrong proof, returns False —
        the caller must ignore it (this is the opt-ack defense).
        """
        if acked_seq <= self._acked_up_to:
            # Stale but potentially honest duplicate; harmless.
            return False
        expected = self._expected.get(acked_seq)
        if expected is None or expected != proof:
            return False
        for seq in range(self._acked_up_to + 1, acked_seq + 1):
            self._expected.pop(seq, None)
        self._acked_up_to = acked_seq
        return True

    @property
    def acked_up_to(self) -> int:
        return self._acked_up_to
