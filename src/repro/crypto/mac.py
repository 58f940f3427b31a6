"""HMAC-SHA256 message authentication.

The Proof-of-Receipt link protects every packet between neighboring overlay
nodes with an HMAC keyed by the shared secret from an authenticated
Diffie-Hellman exchange (Section V-D of the paper).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.errors import MacError


class BatchMacContext:
    """Amortized HMAC-SHA256 for one key across many messages.

    ``hmac.new`` pays the key schedule (hashing the ipad- and opad-masked
    key blocks) on every call.  A Proof-of-Receipt link MACs every data
    packet and ACK under the *same* link key for the life of a key epoch,
    so the schedule can be paid once: keep a keyed base context and
    ``copy()`` it per message, which clones the compressed inner state
    without touching the key again.

    The context holds no per-message state, so one instance may be shared
    by every packet on a link; ``rekey`` swaps in a new key after a
    handshake/rotation.  Verification still compares digests with
    :func:`hmac.compare_digest` (constant time).
    """

    __slots__ = ("_base",)

    def __init__(self, key: bytes):
        self._base = _hmac.new(key, b"", hashlib.sha256)

    def rekey(self, key: bytes) -> None:
        """Re-derive the base context for a new link key."""
        self._base = _hmac.new(key, b"", hashlib.sha256)

    def tag(self, message: bytes) -> bytes:
        """HMAC-SHA256 of ``message``, reusing the keyed base state."""
        ctx = self._base.copy()
        ctx.update(message)
        return ctx.digest()

    def tags(self, messages) -> list:
        """Tags for a batch of messages (one key schedule, N copies)."""
        base = self._base
        return [_finish(base.copy(), message) for message in messages]

    def verify(self, message: bytes, tag: bytes) -> None:
        """Verify one ``tag``; raise :class:`MacError` on mismatch."""
        if not _hmac.compare_digest(self.tag(message), tag):
            raise MacError("HMAC verification failed")

    def verify_batch(self, pairs) -> list:
        """Verify ``(message, tag)`` pairs; return per-pair booleans.

        Batched receive paths want to salvage the good frames of a batch
        rather than abort on the first bad one, so this reports verdicts
        instead of raising.
        """
        base = self._base
        compare = _hmac.compare_digest
        verdicts = []
        for message, tag in pairs:
            ctx = base.copy()
            ctx.update(message)
            verdicts.append(compare(ctx.digest(), tag))
        return verdicts


def _finish(ctx, message: bytes) -> bytes:
    ctx.update(message)
    return ctx.digest()
