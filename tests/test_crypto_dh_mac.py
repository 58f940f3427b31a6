"""Unit tests for Diffie-Hellman and HMAC primitives."""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto.dh import GROUP_PRIME, DiffieHellman
from repro.crypto.mac import BatchMacContext
from repro.errors import CryptoError, MacError


class TestDiffieHellman:
    def test_shared_secret_agreement(self):
        alice = DiffieHellman.from_seed(b"alice")
        bob = DiffieHellman.from_seed(b"bob")
        assert alice.compute_shared(bob.public) == bob.compute_shared(alice.public)

    def test_shared_secret_is_32_bytes(self):
        alice = DiffieHellman.from_seed(b"a")
        bob = DiffieHellman.from_seed(b"b")
        assert len(alice.compute_shared(bob.public)) == 32

    def test_third_party_derives_different_secret(self):
        alice = DiffieHellman.from_seed(b"alice")
        bob = DiffieHellman.from_seed(b"bob")
        eve = DiffieHellman.from_seed(b"eve")
        honest = alice.compute_shared(bob.public)
        assert eve.compute_shared(alice.public) != honest
        assert eve.compute_shared(bob.public) != honest

    @pytest.mark.parametrize("bad", [0, 1, GROUP_PRIME - 1, GROUP_PRIME, GROUP_PRIME + 5])
    def test_degenerate_peer_values_rejected(self, bad):
        alice = DiffieHellman.from_seed(b"alice")
        with pytest.raises(CryptoError):
            alice.compute_shared(bad)

    def test_out_of_range_private_rejected(self):
        with pytest.raises(CryptoError):
            DiffieHellman(private=0)

    def test_from_seed_deterministic(self):
        assert DiffieHellman.from_seed(b"s").public == DiffieHellman.from_seed(b"s").public

    def test_random_instances_differ(self):
        assert DiffieHellman().public != DiffieHellman().public

    def test_encode_public_roundtrips(self):
        alice = DiffieHellman.from_seed(b"alice")
        encoded = alice.encode_public()
        assert int.from_bytes(encoded, "big") == alice.public
        assert len(encoded) == (GROUP_PRIME.bit_length() + 7) // 8


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """The standard library's one-shot HMAC-SHA256: the reference."""
    return std_hmac.new(key, message, hashlib.sha256).digest()


class TestHmac:
    """The link MAC is HMAC-SHA256; REAL mode computes it through
    :class:`BatchMacContext`."""

    def test_matches_stdlib(self):
        key, msg = b"k" * 32, b"payload"
        assert BatchMacContext(key).tag(msg) == hmac_sha256(key, msg)

    def test_verify_accepts_valid(self):
        BatchMacContext(b"key").verify(b"msg", hmac_sha256(b"key", b"msg"))  # no raise

    def test_verify_rejects_tampered_message(self):
        tag = hmac_sha256(b"key", b"msg")
        with pytest.raises(MacError):
            BatchMacContext(b"key").verify(b"msG", tag)

    def test_verify_rejects_wrong_key(self):
        tag = hmac_sha256(b"key", b"msg")
        with pytest.raises(MacError):
            BatchMacContext(b"yek").verify(b"msg", tag)

    def test_mac_size(self):
        assert len(BatchMacContext(b"k").tag(b"m")) == 32

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
    def test_property_roundtrip(self, key, msg):
        ctx = BatchMacContext(key)
        ctx.verify(msg, ctx.tag(msg))


class TestBatchMacContext:
    """The amortized per-link HMAC context must be byte-identical to the
    one-shot HMAC — batching is a key-schedule optimization, never a
    different MAC."""

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
    def test_tag_matches_one_shot(self, key, msg):
        assert BatchMacContext(key).tag(msg) == hmac_sha256(key, msg)

    def test_context_is_reusable_across_messages(self):
        ctx = BatchMacContext(b"key")
        messages = [b"a", b"bb", b"", b"a"]  # repeats and empties included
        assert [ctx.tag(m) for m in messages] == [
            hmac_sha256(b"key", m) for m in messages
        ]

    def test_tags_batch_matches_one_shot(self):
        ctx = BatchMacContext(b"key")
        messages = [bytes([i]) * i for i in range(10)]
        assert ctx.tags(messages) == [hmac_sha256(b"key", m) for m in messages]

    def test_verify_accepts_and_rejects(self):
        ctx = BatchMacContext(b"key")
        tag = ctx.tag(b"msg")
        ctx.verify(b"msg", tag)  # no raise
        with pytest.raises(MacError):
            ctx.verify(b"msG", tag)

    def test_verify_batch_reports_per_pair_verdicts(self):
        ctx = BatchMacContext(b"key")
        good = (b"one", ctx.tag(b"one"))
        bad = (b"two", ctx.tag(b"one"))  # replayed tag, wrong message
        assert ctx.verify_batch([good, bad, good]) == [True, False, True]

    def test_rekey_switches_keys_completely(self):
        ctx = BatchMacContext(b"old")
        old_tag = ctx.tag(b"msg")
        ctx.rekey(b"new")
        assert ctx.tag(b"msg") == hmac_sha256(b"new", b"msg")
        assert ctx.tag(b"msg") != old_tag
        with pytest.raises(MacError):
            ctx.verify(b"msg", old_tag)
