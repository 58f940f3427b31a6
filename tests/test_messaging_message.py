"""Unit tests for message and acknowledgment formats."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.crypto.pki import Pki
from repro.errors import ConfigurationError
from repro.messaging.message import (
    E2E_ACK_BASE_SIZE,
    E2E_ACK_ENTRY_SIZE,
    MESSAGE_HEADER_SIZE,
    E2eAck,
    Hello,
    Message,
    NeighborAck,
    Semantics,
    StateRequest,
)
from repro.overlay.config import DisseminationMethod


@pytest.fixture
def pki():
    p = Pki(seed=1)
    for node in (1, 2, 3):
        p.register(node)
    return p


def fields(**kwargs):
    defaults = dict(
        source=1, dest=3, seq=7, semantics=Semantics.PRIORITY,
        priority=5, expiration=10.0, size_bytes=800,
    )
    defaults.update(kwargs)
    return defaults


def msg(**kwargs):
    return Message(**fields(**kwargs))


def signed_msg(pki, **kwargs):
    return Message.create(pki, **fields(**kwargs))


class TestMessageSignatures:
    def test_sign_verify_roundtrip(self, pki):
        signed = signed_msg(pki)
        assert signed.verify(pki)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dest", 2),
            ("seq", 8),
            ("priority", 10),
            ("expiration", 99.0),
            ("size_bytes", 4000),
            ("flooding", False),
            ("sent_at", 5.0),
            ("source", 2),
        ],
    )
    def test_any_field_tamper_breaks_signature(self, pki, field, value):
        signed = signed_msg(pki)
        tampered = dataclasses.replace(signed, **{field: value})
        assert not tampered.verify(pki)

    def test_path_tamper_breaks_signature(self, pki):
        signed = signed_msg(pki, flooding=False, paths=((1, 2, 3),))
        rerouted = dataclasses.replace(signed, paths=((1, 3),))
        assert not rerouted.verify(pki)

    def test_payload_tamper_breaks_signature(self, pki):
        """The source signs the bytes it sends (as real Spines does): a
        forwarder that swaps the payload -- same uid, so the first copy to
        arrive would win dedup -- no longer verifies."""
        for original, swapped in [
            (b"a", b"b"), (b"a", "a"), ("a", "b"), (b"a", None), (None, b""), (b"", ""),
        ]:
            signed = signed_msg(pki, payload=original)
            assert signed.verify(pki)
            tampered = dataclasses.replace(signed, payload=swapped)
            assert tampered.uid == signed.uid
            assert not tampered.verify(pki), (original, swapped)

    def test_payload_is_signed_in_real_mode_too(self):
        """REAL mode signs ``canonical_bytes`` of the same tuple."""
        from repro.crypto.pki import PkiMode

        real = Pki(mode=PkiMode.REAL, seed=1, rsa_bits=512)
        real.register(1)
        for payload in (b"bytes", "text", None):
            signed = signed_msg(real, payload=payload)
            assert signed.verify(real)
            assert not dataclasses.replace(signed, payload=b"EVIL").verify(real)

    def test_simulator_only_payloads_share_one_marker(self, pki):
        """Objects the live codec cannot carry never cross a real wire;
        they (and ``None``) sign as one fixed marker, never as ``None``."""
        signed = signed_msg(pki, payload={"report": 1})
        assert dataclasses.replace(signed, payload=None).verify(pki)
        assert None not in signed.signed_fields()
        assert not dataclasses.replace(signed, size_bytes=801).verify(pki)


class TestMessageProperties:
    def test_uid_distinguishes_semantics_and_flows(self):
        a = msg(semantics=Semantics.PRIORITY)
        b = msg(semantics=Semantics.RELIABLE)
        c = msg(dest=2)
        d = msg(seq=8)
        uids = {a.uid, b.uid, c.uid, d.uid}
        assert len(uids) == 4

    def test_flow(self):
        assert msg().flow == (1, 3)

    def test_wire_size_components(self):
        plain = msg()
        assert plain.wire_size(256) == 800 + MESSAGE_HEADER_SIZE + 256
        pathy = msg(flooding=False, paths=((1, 2, 3), (1, 3)))
        assert pathy.wire_size(0) == 800 + MESSAGE_HEADER_SIZE + 4 * 5

    def test_expiry(self):
        assert msg(expiration=5.0).is_expired(5.1)
        assert not msg(expiration=5.0).is_expired(4.9)
        assert not msg(expiration=None).is_expired(1e9)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_uid_injective_in_seq(self, seq):
        assert msg(seq=seq).uid != msg(seq=seq + 1).uid


class TestE2eAck:
    def test_create_and_verify(self, pki):
        ack = E2eAck.create(pki, 3, stamp=1, by_source={1: 10, 2: 4})
        assert ack.verify(pki)
        assert ack.seq_for(1) == 10
        assert ack.seq_for(2) == 4
        assert ack.seq_for(99) == -1

    def test_tamper_rejected(self, pki):
        ack = E2eAck.create(pki, 3, stamp=1, by_source={1: 10})
        boosted = dataclasses.replace(ack, cumulative=(("1", 99),))
        assert not boosted.verify(pki)

    def test_progress_semantics(self, pki):
        old = E2eAck.create(pki, 3, stamp=1, by_source={1: 10})
        newer = E2eAck.create(pki, 3, stamp=2, by_source={1: 11})
        same = E2eAck.create(pki, 3, stamp=2, by_source={1: 10})
        stale = E2eAck.create(pki, 3, stamp=0, by_source={1: 99})
        assert newer.indicates_progress_over(old)
        assert not same.indicates_progress_over(old)   # no flow advanced
        assert not stale.indicates_progress_over(old)  # older stamp
        assert old.indicates_progress_over(None)

    def test_wire_size_grows_with_entries(self, pki):
        one = E2eAck.create(pki, 3, 1, {1: 1})
        two = E2eAck.create(pki, 3, 1, {1: 1, 2: 1})
        assert one.wire_size == E2E_ACK_BASE_SIZE + E2E_ACK_ENTRY_SIZE
        assert two.wire_size == one.wire_size + E2E_ACK_ENTRY_SIZE

    def test_cumulative_is_sorted_and_canonical(self):
        a = E2eAck.make_cumulative({2: 5, 1: 3})
        b = E2eAck.make_cumulative({1: 3, 2: 5})
        assert a == b == (("1", 3), ("2", 5))


class TestSmallFormats:
    def test_neighbor_ack_size(self):
        ack = NeighborAck(1, ((("1", "3"), 5, 69),))
        assert ack.wire_size > 0

    def test_hello_and_state_request_sizes(self):
        assert Hello.WIRE_SIZE > 0
        assert StateRequest.WIRE_SIZE > 0


class TestDisseminationMethod:
    def test_factories(self):
        assert DisseminationMethod.flooding().is_flooding
        k3 = DisseminationMethod.k_paths(3)
        assert not k3.is_flooding
        assert k3.k == 3

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            DisseminationMethod.k_paths(0)
