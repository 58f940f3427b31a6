"""Unit tests for the from-scratch RSA implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rsa import RsaKeyPair, _is_probable_prime, keypair_from_seed
from repro.errors import CryptoError, SignatureError

# Module-level fixtures: key generation is the slow part, share it.
KEY = keypair_from_seed(b"test-key", bits=512)
OTHER = keypair_from_seed(b"other-key", bits=512)


class TestPrimality:
    def test_known_primes(self):
        for p in [2, 3, 5, 101, 7919, 104729, (1 << 61) - 1]:
            assert _is_probable_prime(p)

    def test_known_composites(self):
        for c in [1, 4, 100, 7917, 561, 41041, (1 << 61) - 3]:
            assert not _is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for c in [561, 1105, 1729, 2465, 2821, 6601, 8911]:
            assert not _is_probable_prime(c)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        sig = KEY.sign(b"hello world")
        KEY.public.verify(b"hello world", sig)  # no raise

    def test_tampered_message_rejected(self):
        sig = KEY.sign(b"hello world")
        with pytest.raises(SignatureError):
            KEY.public.verify(b"hello worle", sig)

    def test_tampered_signature_rejected(self):
        sig = bytearray(KEY.sign(b"hello"))
        sig[5] ^= 0x01
        assert not KEY.public.is_valid(b"hello", bytes(sig))

    def test_wrong_key_rejected(self):
        sig = KEY.sign(b"msg")
        assert not OTHER.public.is_valid(b"msg", sig)

    def test_wrong_length_signature_rejected(self):
        assert not KEY.public.is_valid(b"msg", b"short")

    def test_out_of_range_representative_rejected(self):
        size = KEY.public.modulus_bytes
        huge = (KEY.public.n + 1).to_bytes(size, "big")
        assert not KEY.public.is_valid(b"msg", huge)

    def test_signature_is_deterministic(self):
        assert KEY.sign(b"abc") == KEY.sign(b"abc")

    def test_signature_size_matches_modulus(self):
        sig = KEY.sign(b"x")
        assert len(sig) == KEY.public.modulus_bytes == KEY.public.signature_size

    def test_empty_message(self):
        sig = KEY.sign(b"")
        assert KEY.public.is_valid(b"", sig)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=256))
    def test_property_roundtrip(self, message):
        sig = KEY.sign(message)
        assert KEY.public.is_valid(message, sig)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_property_cross_message_rejection(self, m1, m2):
        if m1 == m2:
            return
        sig = KEY.sign(m1)
        assert not KEY.public.is_valid(m2, sig)


class TestKeyGeneration:
    def test_keypair_from_seed_produces_working_key(self):
        key = keypair_from_seed(b"fresh", bits=512)
        assert key.public.n.bit_length() == 512
        assert key.public.is_valid(b"m", key.sign(b"m"))

    def test_keypair_from_seed_is_deterministic(self):
        k1 = keypair_from_seed(b"seed", bits=256)
        k2 = keypair_from_seed(b"seed", bits=256)
        assert k1.public.n == k2.public.n

    def test_different_seeds_give_different_keys(self):
        k1 = keypair_from_seed(b"seed-a", bits=256)
        k2 = keypair_from_seed(b"seed-b", bits=256)
        assert k1.public.n != k2.public.n

    def test_equal_primes_rejected(self):
        with pytest.raises(CryptoError):
            RsaKeyPair(7919, 7919)
