"""Hypothesis property tests for the hot-path caches.

The performance overhaul added two derived-value caches that must be
*observationally invisible*:

* the per-node :class:`~repro.routing.link_state.RouteCache` — keyed by
  the routing view's ``version``, which advances on every accepted
  (sequence-number-gated) link-state update, so a cached route must
  always equal a fresh recomputation on the current view;
* the per-object signature-verdict cache on
  :class:`~repro.messaging.message.Message` and the other signed types
  (keyed by PKI instance and epoch), which must never return a verdict
  computed under key material that has since rotated.  A SIMULATED
  ``Pki.verify`` memoises nothing: a cold check recomputes the tag.

Hypothesis drives randomized update/query and rotate/sign/verify
interleavings and checks cached answers against cache-bypassing
recomputation at every step.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.pki import Pki, PkiMode
from repro.messaging.message import Message, Semantics
from repro.routing.link_state import LinkStateUpdate
from repro.routing.state import RoutingState
from repro.routing.validation import UpdateResult
from repro.topology.disjoint import best_effort_disjoint_paths
from tests.fixtures import random_connected
from repro.topology.mtmw import Mtmw

CACHE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (edge picker, weight multiplier over the MTMW floor, which endpoint
#: issues, whether to replay a stale seqno instead of a fresh one).
UPDATE_STEP = st.tuples(
    st.integers(min_value=0, max_value=1_000),
    st.sampled_from([1.0, 2.0, 10.0, 100.0]),
    st.booleans(),
    st.booleans(),
)


def _build_state(seed: int):
    topo = random_connected(6, extra_edges=5, rng=random.Random(seed))
    pki = Pki(mode=PkiMode.SIMULATED, seed=seed)
    for node_id in topo.nodes:
        pki.register(node_id)
    mtmw = Mtmw.create(topo, pki)
    # A huge rate budget: this test is about cache invalidation, not the
    # per-issuer rate limiter.
    state = RoutingState(mtmw, pki, update_rate_per_second=1e6, update_burst=1_000_000)
    return topo, pki, state


def _assert_routes_fresh(state: RoutingState, pairs) -> None:
    """Every cached route equals a cache-bypassing recomputation."""
    for source, dest in pairs:
        fresh_graph = state.graph()
        expected_kp = best_effort_disjoint_paths(fresh_graph, source, dest, 2)
        expected_sp = fresh_graph.shortest_path(source, dest)
        # First call may compute-and-store, second must hit the cache;
        # both have to equal the bypassed recomputation.
        assert state.k_paths_best_effort(source, dest, 2) == expected_kp
        assert state.k_paths_best_effort(source, dest, 2) == expected_kp
        assert state.shortest_path(source, dest) == expected_sp
        assert state.shortest_path(source, dest) == expected_sp


@CACHE_SETTINGS
@given(st.integers(min_value=0, max_value=10_000), st.lists(UPDATE_STEP, max_size=12))
def test_route_cache_always_matches_fresh_recomputation(seed, steps):
    topo, pki, state = _build_state(seed)
    edges = sorted(topo.edges())
    nodes = sorted(topo.nodes)
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(3)]
    seqnos = {}

    _assert_routes_fresh(state, pairs)
    for edge_pick, factor, issue_from_b, replay_stale in steps:
        a, b = edges[edge_pick % len(edges)]
        issuer = b if issue_from_b else a
        last = seqnos.get((issuer, a, b), 0)
        seqno = last if replay_stale and last else last + 1
        seqnos[(issuer, a, b)] = seqno
        weight = state.mtmw.min_weight(a, b) * factor
        update = LinkStateUpdate.create(pki, issuer, a, b, weight, seqno)
        version_before = state.version
        result = state.apply_update(update, now=0.0)
        if replay_stale and last:
            # A replayed seqno is overtaken-by-events: the view (and thus
            # the cache keys) must not move.
            assert result is UpdateResult.STALE
            assert state.version == version_before
        else:
            assert result is UpdateResult.ACCEPTED
            assert state.version == version_before + 1
        _assert_routes_fresh(state, pairs)

    # The second lookup of every query above was a guaranteed hit; the
    # cache must actually be caching, not recomputing.
    hits, misses, _ = state.route_cache_stats
    assert hits >= misses


@CACHE_SETTINGS
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(st.sampled_from(["rotate", "sign"]), st.sampled_from(["a", "b"])),
        max_size=10,
    ),
)
def test_verify_memo_never_stale_after_key_rotation(seed, ops):
    pki = Pki(mode=PkiMode.SIMULATED, seed=seed)
    pki.register("a")
    pki.register("b")
    rotations = {"a": 0, "b": 0}
    held = []  # (message, source, source's rotation count at signing)
    seq = 0
    for op, who in ops:
        if op == "rotate":
            pki.rotate(who)
            rotations[who] += 1
        else:
            seq += 1
            message = Message.create(
                pki,
                source=who,
                dest="b" if who == "a" else "a",
                seq=seq,
                semantics=Semantics.PRIORITY,
            )
            assert message.verify(pki) is True
            held.append((message, who, rotations[who]))
        for message, source, rotation_at_sign in held:
            expected = rotations[source] == rotation_at_sign
            # Warm path (the per-object cache), twice: a cached verdict
            # must answer the same question as the cold computation.
            assert message.verify(pki) is expected
            assert message.verify(pki) is expected
            # A cold copy (``replace`` resets every cache slot) agrees.
            assert dataclasses.replace(message).verify(pki) is expected


@CACHE_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_link_state_update_verify_not_stale_after_rotation(seed):
    pki = Pki(mode=PkiMode.SIMULATED, seed=seed)
    pki.register("x")
    pki.register("y")
    update = LinkStateUpdate.create(pki, "x", "x", "y", 0.01, seqno=1)
    # Verified at several hops: each check recomputes the tag.
    assert update.verify(pki) is True
    assert update.verify(pki) is True
    pki.rotate("x")
    # The old-key signature must not survive the rotation.
    assert update.verify(pki) is False
    assert update.verify(pki) is False
    fresh = LinkStateUpdate.create(pki, "x", "x", "y", 0.01, seqno=2)
    assert fresh.verify(pki) is True
