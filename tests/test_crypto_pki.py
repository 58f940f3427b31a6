"""Unit tests for the PKI and simulated/real/none signature modes."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.encoding import canonical_bytes
from repro.crypto.pki import ADMIN, Pki, PkiMode
from repro.crypto.simulated import SimulatedSignature
from repro.errors import CryptoError


@pytest.fixture(params=[PkiMode.SIMULATED, PkiMode.REAL])
def pki(request):
    kwargs = {"rsa_bits": 256} if request.param is PkiMode.REAL else {}
    p = Pki(mode=request.param, seed=1, **kwargs)
    p.register(1)
    p.register(2)
    return p


class TestSignVerify:
    def test_roundtrip(self, pki):
        fields = ("msg", 1, 9, 42)
        sig = pki.identity(1).sign(fields)
        assert pki.verify(1, fields, sig)

    def test_tampered_fields_rejected(self, pki):
        fields = ("msg", 1, 9, 42)
        sig = pki.identity(1).sign(fields)
        assert not pki.verify(1, ("msg", 1, 9, 43), sig)

    def test_wrong_signer_claim_rejected(self, pki):
        fields = ("msg", 1, 9, 42)
        sig = pki.identity(1).sign(fields)
        assert not pki.verify(2, fields, sig)

    def test_forged_signature_rejected(self, pki):
        fields = ("msg", 1, 9, 42)
        forged = pki.forge(claimed_signer=1, fields=fields)
        assert not pki.verify(1, fields, forged)

    def test_unknown_signer_rejected(self, pki):
        sig = pki.identity(1).sign(("x",))
        assert not pki.verify(99, ("x",), sig)

    def test_wrong_signature_type_rejected(self, pki):
        assert not pki.verify(1, ("x",), "not-a-signature")

    def test_admin_identity_exists(self, pki):
        sig = pki.admin.sign(("topology", 7))
        assert pki.verify(ADMIN, ("topology", 7), sig)

    def test_signature_wire_size_positive(self, pki):
        assert pki.signature_wire_size > 0


class TestNoneMode:
    def test_none_mode_always_verifies(self):
        pki = Pki(mode=PkiMode.NONE)
        pki.register(1)
        assert pki.identity(1).sign(("x",)) is None
        assert pki.verify(1, ("x",), None)
        assert pki.signature_wire_size == 0


class TestRegistry:
    def test_register_is_idempotent(self):
        pki = Pki()
        a = pki.register("n1")
        b = pki.register("n1")
        assert a is b

    def test_unknown_identity_raises(self):
        pki = Pki()
        with pytest.raises(CryptoError):
            pki.identity("ghost")

    def test_knows(self):
        pki = Pki()
        pki.register(5)
        assert pki.knows(5)
        assert pki.knows(ADMIN)
        assert not pki.knows(6)

    def test_deterministic_across_instances(self):
        p1, p2 = Pki(seed=3), Pki(seed=3)
        p1.register(1)
        p2.register(1)
        sig1 = p1.identity(1).sign(("f",))
        assert p2.verify(1, ("f",), sig1)

    def test_different_seed_means_different_keys(self):
        p1, p2 = Pki(seed=3), Pki(seed=4)
        p1.register(1)
        p2.register(1)
        sig1 = p1.identity(1).sign(("f",))
        assert not p2.verify(1, ("f",), sig1)


class TestLinkSecrets:
    def test_symmetric(self):
        pki = Pki(seed=1)
        assert pki.link_secret(1, 2) == pki.link_secret(2, 1)

    def test_distinct_links_distinct_secrets(self):
        pki = Pki(seed=1)
        assert pki.link_secret(1, 2) != pki.link_secret(1, 3)


class TestSimulatedSignatureWireSize:
    def test_matches_rsa_2048(self):
        assert SimulatedSignature.WIRE_SIZE == 256


class TestCanonicalEncoding:
    @pytest.mark.parametrize(
        "a, b",
        [
            ((1, "2"), (1, 2)),
            (("ab", "c"), ("a", "bc")),
            ((b"ab",), ("ab",)),
            ((0,), (False,)),
            ((1,), (True,)),
            ((None,), ("",)),
            (((1, 2), 3), (1, (2, 3))),
        ],
    )
    def test_distinct_values_encode_distinctly(self, a, b):
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_lists_and_tuples_equivalent(self):
        assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))

    def test_unsupported_type_rejected(self):
        with pytest.raises(CryptoError):
            canonical_bytes({"a": 1})

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=20),
                st.binary(max_size=20),
            ),
            lambda children: st.tuples(children, children),
            max_leaves=10,
        )
    )
    def test_property_encoding_is_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)
