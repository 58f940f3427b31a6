"""Unit tests for intrusion-tolerant link-state routing."""

import pytest

from repro.crypto.pki import Pki
from repro.errors import TopologyError
from repro.routing.link_state import LinkStateUpdate, UpdateRateLimiter
from repro.routing.state import FAILED_WEIGHT, RoutingState
from repro.routing.validation import UpdateResult, validate_update
from repro.topology.generators import ring
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw


@pytest.fixture
def pki():
    p = Pki(seed=1)
    for node in range(1, 6):
        p.register(node)
    return p


@pytest.fixture
def mtmw(pki):
    return Mtmw.create(ring(5, weight=0.010), pki)


@pytest.fixture
def state(mtmw, pki):
    return RoutingState(mtmw, pki)


class TestUpdateSignatures:
    def test_create_and_verify(self, pki):
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.02, seqno=1)
        assert update.verify(pki)

    def test_tampered_weight_fails(self, pki):
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.02, seqno=1)
        tampered = LinkStateUpdate(1, 1, 2, 0.001, 1, update.signature)
        assert not tampered.verify(pki)

    def test_wrong_issuer_fails(self, pki):
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.02, seqno=1)
        relabeled = LinkStateUpdate(2, 1, 2, 0.02, 1, update.signature)
        assert not relabeled.verify(pki)


class TestMtmwValidation:
    def test_valid_update_accepted(self, mtmw, pki):
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.02, seqno=1)
        assert validate_update(update, mtmw, pki) is UpdateResult.ACCEPTED

    def test_below_min_weight_detected(self, mtmw, pki):
        """Black-hole attack: advertise a too-attractive weight."""
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.001, seqno=1)
        result = validate_update(update, mtmw, pki)
        assert result is UpdateResult.BELOW_MIN_WEIGHT
        assert result.proves_compromise

    def test_non_endpoint_detected(self, mtmw, pki):
        """A node may not change the weights of non-neighboring links."""
        update = LinkStateUpdate.create(pki, 4, 1, 2, 0.5, seqno=1)
        result = validate_update(update, mtmw, pki)
        assert result is UpdateResult.NOT_ENDPOINT
        assert result.proves_compromise

    def test_wormhole_link_detected(self, mtmw, pki):
        """Advertising a link that is not in the MTMW (wormhole)."""
        update = LinkStateUpdate.create(pki, 1, 1, 3, 0.001, seqno=1)
        result = validate_update(update, mtmw, pki)
        assert result is UpdateResult.UNKNOWN_LINK
        assert result.proves_compromise

    def test_nan_weight_is_below_min_weight(self, mtmw, pki):
        """NaN compares False with everything: a NaN report must not pass
        the minimum-weight rule, or, taken first into the max of the two
        endpoints' reports, it hides the other endpoint's failure report."""
        update = LinkStateUpdate.create(pki, 1, 1, 2, float("nan"), seqno=1)
        result = validate_update(update, mtmw, pki)
        assert result is UpdateResult.BELOW_MIN_WEIGHT
        assert result.proves_compromise

    def test_nan_report_does_not_mask_the_honest_endpoints_failure(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, float("nan"), seqno=1))
        assert 1 in state.detected_compromised
        state.apply_update(LinkStateUpdate.create(pki, 2, 1, 2, FAILED_WEIGHT, seqno=1))
        assert not state.is_link_usable(1, 2)

    def test_bad_signature_not_provable(self, mtmw, pki):
        update = LinkStateUpdate(1, 1, 2, 0.02, 1, signature="junk")
        result = validate_update(update, mtmw, pki)
        assert result is UpdateResult.BAD_SIGNATURE
        assert not result.proves_compromise

    def test_exact_min_weight_allowed(self, mtmw, pki):
        update = LinkStateUpdate.create(pki, 1, 1, 2, 0.010, seqno=1)
        assert validate_update(update, mtmw, pki) is UpdateResult.ACCEPTED


class TestRoutingState:
    def test_initial_weights_are_mtmw_minimums(self, state):
        assert state.effective_weight(1, 2) == 0.010

    def test_accepted_update_raises_weight(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.5, seqno=1))
        assert state.effective_weight(1, 2) == 0.5

    def test_effective_weight_is_max_of_reports(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.5, seqno=1))
        state.apply_update(LinkStateUpdate.create(pki, 2, 1, 2, 0.02, seqno=1))
        assert state.effective_weight(1, 2) == 0.5

    def test_compromised_node_cannot_lower_below_peer_report(self, state, pki):
        """Node 2 (honest) reports the link bad; node 1 (compromised)
        re-advertising the minimum cannot win."""
        state.apply_update(LinkStateUpdate.create(pki, 2, 1, 2, 5.0, seqno=1))
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.010, seqno=1))
        assert state.effective_weight(1, 2) == 5.0

    def test_node_can_lower_its_own_previous_report(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 5.0, seqno=1))
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.010, seqno=2))
        assert state.effective_weight(1, 2) == 0.010

    def test_overtaken_by_events(self, state, pki):
        """Stale (lower seqno) updates are ignored — replay defense."""
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 5.0, seqno=10))
        result = state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.010, seqno=3))
        assert result is UpdateResult.STALE
        assert state.effective_weight(1, 2) == 5.0

    def test_provable_violation_marks_compromised(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 3, 1, 2, 0.5, seqno=1))
        assert 3 in state.detected_compromised

    def test_rate_limiting(self, mtmw, pki):
        state = RoutingState(mtmw, pki, update_rate_per_second=1.0, update_burst=3)
        results = [
            state.apply_update(
                LinkStateUpdate.create(pki, 1, 1, 2, 0.02 + i * 0.001, seqno=i), now=0.0
            )
            for i in range(6)
        ]
        assert results[:3] == [UpdateResult.ACCEPTED] * 3
        assert results[3:] == [UpdateResult.RATE_LIMITED] * 3
        # Tokens refill with time.
        later = state.apply_update(
            LinkStateUpdate.create(pki, 1, 1, 2, 0.5, seqno=10), now=5.0
        )
        assert later is UpdateResult.ACCEPTED


class TestRoutingGraph:
    def test_failed_link_excluded(self, state, pki):
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, FAILED_WEIGHT, seqno=1))
        assert not state.is_link_usable(1, 2)
        graph = state.graph()
        assert not graph.has_edge(1, 2)
        # The ring reroutes the long way.
        assert state.shortest_path(1, 2) == [1, 5, 4, 3, 2]

    def test_graph_cache_invalidated_on_update(self, state, pki):
        g1 = state.graph()
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, 0.5, seqno=1))
        g2 = state.graph()
        assert g1 is not g2
        assert g2.weight(1, 2) == 0.5

    def test_k_paths_on_current_view(self, state, pki):
        paths = state.k_paths_best_effort(1, 3, 2)
        assert len(paths) == 2
        state.apply_update(LinkStateUpdate.create(pki, 1, 1, 2, FAILED_WEIGHT, seqno=1))
        remaining = state.k_paths_best_effort(1, 3, 2)
        assert len(remaining) == 1
        assert remaining[0] == [1, 5, 4, 3]

    def test_make_update_clamps_at_minimum(self, state):
        update = state.make_update(1, 2, weight=0.0001, seqno=1)
        assert update.weight == 0.010
        assert validate_update(update, state.mtmw, state.pki) is UpdateResult.ACCEPTED

    def test_make_update_rejects_non_neighbor(self, state):
        with pytest.raises(TopologyError):
            state.make_update(1, 3, weight=1.0, seqno=1)


class TestRateLimiter:
    def test_burst_then_refill(self):
        limiter = UpdateRateLimiter(rate_per_second=2.0, burst=2)
        assert limiter.allow(0.0)
        assert limiter.allow(0.0)
        assert not limiter.allow(0.0)
        assert limiter.allow(0.5)  # one token refilled

    def test_tokens_capped_at_burst(self):
        limiter = UpdateRateLimiter(rate_per_second=100.0, burst=2)
        assert limiter.allow(100.0)
        assert limiter.allow(100.0)
        assert not limiter.allow(100.0)
