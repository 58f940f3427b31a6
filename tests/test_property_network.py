"""Property-based whole-network tests.

Hypothesis drives random topologies, workloads, attacker placements, and
fault schedules; the paper's guarantees are checked as invariants:

* determinism: the same seed reproduces the identical history;
* priority: at-most-once delivery, only genuinely sent messages arrive,
  expired messages never arrive;
* reliable: exactly-once, in-order, gapless prefix delivery — under
  Byzantine drops and crash/recovery — and completeness when a correct
  path exists;
* flooding optimality: delivery whenever a correct path exists.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.byzantine.behaviors import DroppingBehavior, DuplicatingBehavior
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from tests.fixtures import random_connected

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAST_CFG = OverlayConfig(link_bandwidth_bps=None)
PACED_CFG = OverlayConfig(link_bandwidth_bps=1e6)


def build_random(seed, nodes=7, extra=8, config=FAST_CFG):
    topo = random_connected(nodes, extra_edges=extra, rng=random.Random(seed))
    return OverlayNetwork.build(topo, config, seed=seed)


class TestDeterminism:
    @SLOW
    @given(st.integers(min_value=0, max_value=10_000))
    def test_identical_seeds_identical_histories(self, seed):
        def run():
            net = build_random(seed, config=PACED_CFG)
            nodes = sorted(net.topology.nodes)
            rng = random.Random(seed)
            for _ in range(10):
                src, dst = rng.sample(nodes, 2)
                net.node(src).send_priority(dst, size_bytes=rng.randrange(100, 1200))
            net.run(5.0)
            return (
                net.sim.events_run,
                net.stats.counters(),
                sorted(
                    (name, meter.total_bytes)
                    for name, meter in net.stats._meters.items()
                ),
            )

        assert run() == run()


class TestPriorityInvariants:
    @SLOW
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 3))
    def test_at_most_once_and_authentic(self, seed, attackers):
        net = build_random(seed)
        nodes = sorted(net.topology.nodes)
        rng = random.Random(seed)
        compromised = rng.sample(nodes, attackers)
        for node_id in compromised:
            net.compromise(node_id, DuplicatingBehavior(copies=2))
        correct = [n for n in nodes if n not in compromised]
        if len(correct) < 2:
            return
        src, dst = correct[0], correct[-1]
        delivered = []
        net.node(dst).on_deliver = lambda m: delivered.append(m.uid)
        sent = {net.node(src).send_priority(dst).uid for _ in range(8)}
        net.run(5.0)
        assert len(delivered) == len(set(delivered))  # at most once
        assert set(delivered) <= sent                 # only authentic

    @SLOW
    @given(st.integers(min_value=0, max_value=10_000))
    def test_flooding_delivers_iff_correct_path_exists(self, seed):
        net = build_random(seed)
        nodes = sorted(net.topology.nodes)
        rng = random.Random(seed)
        compromised = set(rng.sample(nodes, min(2, len(nodes) - 2)))
        for node_id in compromised:
            net.compromise(node_id, DroppingBehavior())
        correct = [n for n in nodes if n not in compromised]
        src, dst = correct[0], correct[-1]
        path_exists = dst in net.topology.reachable_from(
            src, exclude_nodes=compromised
        )
        net.node(src).send_priority(dst)
        net.run(5.0)
        if path_exists:
            assert net.delivered_count(src, dst) == 1
        else:
            assert net.delivered_count(src, dst) == 0

    @SLOW
    @given(st.integers(min_value=0, max_value=10_000))
    def test_expired_messages_never_delivered(self, seed):
        net = build_random(seed, config=PACED_CFG)
        nodes = sorted(net.topology.nodes)
        src, dst = nodes[0], nodes[-1]
        delivered = []
        net.node(dst).on_deliver = lambda m: delivered.append(m)
        net.node(src).send_priority(dst, expire_after=1e-6)
        net.run(3.0)
        for message in delivered:
            assert not message.is_expired(net.sim.now)


class TestReliableInvariants:
    @SLOW
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=40),
        st.booleans(),
    )
    def test_exactly_once_in_order_gapless(self, seed, count, use_kpaths):
        net = build_random(seed, config=PACED_CFG)
        nodes = sorted(net.topology.nodes)
        rng = random.Random(seed)
        attacker = rng.choice(nodes[1:-1])
        net.compromise(attacker, DroppingBehavior(drop_fraction=0.5, rng=rng))
        src, dst = nodes[0], nodes[-1]
        if attacker in (src, dst):
            return
        method = (
            DisseminationMethod.k_paths(2) if use_kpaths
            else DisseminationMethod.flooding()
        )
        received = []
        net.node(dst).on_deliver = lambda m: received.append(m.seq)
        sent = [0]

        def tick():
            while sent[0] < count and net.node(src).send_reliable(
                dst, size_bytes=400, method=method
            ):
                sent[0] += 1
            if sent[0] < count:
                net.sim.schedule(0.05, tick)

        tick()
        net.run(30.0)
        # The prefix property: whatever arrived is the exact prefix.
        assert received == list(range(1, len(received) + 1))

    @SLOW
    @given(st.integers(min_value=0, max_value=10_000))
    def test_completeness_across_crash_recovery(self, seed):
        net = build_random(seed, nodes=6, extra=6, config=PACED_CFG)
        nodes = sorted(net.topology.nodes)
        rng = random.Random(seed)
        src, dst = nodes[0], nodes[-1]
        victim = rng.choice(nodes[1:-1])
        received = []
        net.node(dst).on_deliver = lambda m: received.append(m.seq)
        count = 30
        sent = [0]

        def tick():
            while sent[0] < count and net.node(src).send_reliable(dst, size_bytes=400):
                sent[0] += 1
            if sent[0] < count:
                net.sim.schedule(0.05, tick)

        tick()
        net.run(0.5)
        net.crash(victim)
        net.run(2.0)
        net.recover(victim)
        net.run(40.0)
        assert sent[0] == count
        assert received == list(range(1, count + 1))
