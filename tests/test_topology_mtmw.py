"""Unit tests for the Maximal Topology with Minimal Weights."""

import pytest

from repro.crypto.pki import Pki
from repro.errors import TopologyError
from repro.topology.generators import ring
from repro.topology.mtmw import Mtmw, MtmwHolder, MtmwUpdateResult


@pytest.fixture
def pki():
    return Pki(seed=1)


@pytest.fixture
def mtmw(pki):
    return Mtmw.create(ring(5, weight=0.010), pki, seqno=1)


class TestCreateVerify:
    def test_created_mtmw_verifies(self, pki, mtmw):
        assert mtmw.verify(pki)

    def test_tampered_topology_fails_verification(self, pki, mtmw):
        mtmw._topology.set_weight(1, 2, 0.001)
        assert not mtmw.verify(pki)

    def test_tampered_seqno_fails_verification(self, pki, mtmw):
        mtmw.seqno = 99
        assert not mtmw.verify(pki)

    def test_foreign_admin_rejected(self, mtmw):
        other_pki = Pki(seed=2)
        assert not mtmw.verify(other_pki)

    def test_non_admin_signature_rejected(self, pki):
        topo = ring(5)
        pki.register(1)
        forged = Mtmw(
            topo, 1, pki.identity(1).sign(Mtmw.signed_fields(topo, 1))
        )
        assert not forged.verify(pki)

    def test_invalid_seqno_rejected(self, pki):
        with pytest.raises(TopologyError):
            Mtmw.create(ring(5), pki, seqno=0)

    def test_mtmw_snapshot_is_independent(self, pki):
        topo = ring(5)
        mtmw = Mtmw.create(topo, pki)
        topo.set_weight(1, 2, 99.0)
        assert mtmw.min_weight(1, 2) == 0.010


class TestQueries:
    def test_membership(self, mtmw):
        assert 1 in mtmw.members
        assert 99 not in mtmw.members
        assert sorted(mtmw.members) == [1, 2, 3, 4, 5]

    def test_edges_and_neighbors(self, mtmw):
        assert mtmw.is_edge(1, 2)
        assert not mtmw.is_edge(1, 3)
        assert mtmw.are_neighbors(5, 1)
        assert sorted(mtmw.topology.neighbors(1)) == [2, 5]

    def test_min_weight(self, mtmw):
        assert mtmw.min_weight(1, 2) == 0.010
        assert mtmw.min_weight(2, 1) == 0.010
        with pytest.raises(TopologyError):
            mtmw.min_weight(1, 3)


class TestHolderReplayProtection:
    def test_initial_must_verify(self, pki, mtmw):
        holder = MtmwHolder(pki, mtmw)
        assert holder.current is mtmw
        bad = Mtmw(ring(5), 1, signature="junk")
        with pytest.raises(TopologyError):
            MtmwHolder(pki, bad)

    def test_accepts_fresh_update(self, pki, mtmw):
        holder = MtmwHolder(pki, mtmw)
        new = mtmw.successor(ring(6), pki)
        assert holder.consider(new) is MtmwUpdateResult.ACCEPTED
        assert holder.current is new
        assert holder.current.seqno == 2

    def test_rejects_replayed_old_mtmw(self, pki, mtmw):
        holder = MtmwHolder(pki, mtmw)
        new = mtmw.successor(ring(6), pki)
        holder.consider(new)
        # An attacker replays the original (validly signed) MTMW.
        assert holder.consider(mtmw) is MtmwUpdateResult.STALE
        assert holder.current is new

    def test_rejects_same_seqno(self, pki, mtmw):
        holder = MtmwHolder(pki, mtmw)
        same = Mtmw.create(ring(6), pki, seqno=1)
        assert holder.consider(same) is MtmwUpdateResult.STALE

    def test_rejects_bad_signature(self, pki, mtmw):
        holder = MtmwHolder(pki, mtmw)
        forged = Mtmw(ring(6), 2, signature="junk")
        assert holder.consider(forged) is MtmwUpdateResult.BAD_SIGNATURE
        assert holder.current is mtmw

    def test_skipping_seqnos_is_allowed(self, pki, mtmw):
        """A node that missed MTMW #2 must still accept #3."""
        holder = MtmwHolder(pki, mtmw)
        v3 = Mtmw.create(ring(6), pki, seqno=3)
        assert holder.consider(v3) is MtmwUpdateResult.ACCEPTED
