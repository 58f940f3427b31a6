"""The paper's stated theorems (Section V-C), checked as experiments.

These are not proofs — the formal proofs live in Obenshain's thesis [35]
— but each theorem's *statement* is checkable on concrete executions,
including adversarial ones, and a reproduction should check them.
"""

import pytest

from repro.byzantine.attacks import SaturationFlow
from repro.messaging.message import Semantics
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import clique, ring
from repro.topology.graph import Topology

LINK_BPS = 1e6
WIRE = 882 + 64 + 256 + 48  # payload + header + signature + PoR framing


def paced(**kwargs):
    defaults = dict(link_bandwidth_bps=LINK_BPS)
    defaults.update(kwargs)
    return OverlayConfig(**defaults)


class TestPriorityFloodingTimelySafe:
    """Theorem — Priority Flooding Timely-Safe.

    "If the network has no highest-priority message from a correct source
    S, then if S introduces a single highest-priority message m to a
    correct destination D, D will receive m within some time t.  t is no
    greater than the minimum message transmission time along a correct
    path between S and D, including the time it takes for at most n-1
    messages to be sent at each correct node along that path."
    """

    def test_bound_holds_under_saturation(self):
        net = OverlayNetwork.build(ring(5), paced(), seed=61)
        n = 5
        # Saturate the network with 4 other sources at capacity.
        for source, dest in [(2, 4), (3, 5), (4, 1), (5, 2)]:
            SaturationFlow(net, source, dest, rate_bps=LINK_BPS,
                           size_bytes=882, priority=10).start()
        net.run(5.0)  # reach steady contention
        message = net.node(1).send_priority(3, size_bytes=882, priority=10)
        net.run(10.0)
        recorder = net.flow_latency(1, 3)
        assert recorder.count == 1
        latency = recorder.samples[0][1]
        # Bound: per hop, propagation + up to (n-1) message transmissions
        # (the RR cycle of the other active sources) + our own; the
        # shortest correct 1->3 path has 2 hops.  Add the PoR in-flight
        # allowance (pacing keeps ~2 packets committed per link).
        per_message = WIRE * 8 / LINK_BPS
        hops = 2
        bound = hops * (0.010 + (n - 1 + 3) * per_message)
        assert latency <= bound

    def test_no_contention_latency_is_propagation_plus_transmission(self):
        net = OverlayNetwork.build(ring(5), paced(), seed=62)
        net.node(1).send_priority(3, size_bytes=882, priority=10)
        net.run(2.0)
        latency = net.flow_latency(1, 3).samples[0][1]
        per_message = WIRE * 8 / LINK_BPS
        assert latency == pytest.approx(2 * (0.010 + per_message), rel=0.2)


class TestPriorityFloodingGuaranteedThroughput:
    """Theorem — Priority Flooding Guaranteed Throughput.

    "If there exists a correct path from a correct source S to a correct
    destination D, and S sends only to D, and S is one of g correct
    sources actively sending, and there are f compromised sources
    actively sending, then the rate at which S can send to D is no less
    than 1/(f+g) times the minimum bandwidth over all edges in that
    correct path."
    """

    @pytest.mark.parametrize("f", [1, 3])
    def test_fair_share_floor(self, f):
        net = OverlayNetwork.build(clique(6), paced(), seed=63)
        # S = 1 (correct, g = 1), f compromised sources saturating.
        for attacker, dest in [(2, 5), (3, 6), (4, 2)][:f]:
            SaturationFlow(net, attacker, dest, rate_bps=2 * LINK_BPS,
                           size_bytes=882, priority=10).start()
        honest = SaturationFlow(net, 1, 6, rate_bps=2 * LINK_BPS,
                                size_bytes=882, priority=5)
        honest.start()
        net.run(20.0)
        goodput_bps = net.flow_goodput(1, 6).average_mbps(5.0, 20.0) * 1e6
        floor = (LINK_BPS * 882 / WIRE) / (f + 1)
        assert goodput_bps >= 0.9 * floor


class TestReliableFloodingSafety:
    """Theorem — Reliable Flooding Safety.

    "If a correct source node S accepts i messages destined to some
    correct destination node D, then the first i-b messages have all
    been reliably delivered in order at D, where b is the size of the
    buffer for one flow at a node."
    """

    @pytest.mark.parametrize("b", [4, 16])
    def test_accepted_minus_buffer_always_delivered(self, b):
        from repro.byzantine.behaviors import DroppingBehavior

        net = OverlayNetwork.build(clique(5), paced(reliable_buffer=b), seed=64)
        net.compromise(3, DroppingBehavior())  # adversity along the way
        received = []
        net.node(5).on_deliver = lambda m: received.append(m.seq)
        source = net.node(1)
        accepted = [0]

        def tick():
            while accepted[0] < 120 and source.send_reliable(5, size_bytes=400):
                accepted[0] += 1
                # Check the invariant at every acceptance point.
            if accepted[0] < 120:
                net.sim.schedule(0.05, tick)

        def check():
            i = accepted[0]
            if i > b:
                assert received[: i - b] == list(range(1, i - b + 1)), (
                    f"accepted {i}, buffer {b}: prefix not delivered"
                )
            if accepted[0] < 120 or len(received) < 120:
                net.sim.schedule(0.1, check)

        tick()
        check()
        net.run(60.0)
        assert received == list(range(1, 121))


class TestReliableFloodingGuaranteedThroughput:
    """Theorem — Reliable Flooding Guaranteed Throughput.

    The guaranteed floor is 1/((f+g)(n-1)) of the min path bandwidth —
    loose because in the worst case every message must visit all n nodes
    before the buffer frees.  Measured goodput sits far above it.
    """

    def test_floor_is_respected(self):
        net = OverlayNetwork.build(clique(5), paced(e2e_ack_timeout=0.1), seed=65)
        n, f, g = 5, 2, 1
        for attacker, dest in [(2, 4), (3, 5)]:
            SaturationFlow(net, attacker, dest, rate_bps=2 * LINK_BPS,
                           size_bytes=882, semantics=Semantics.RELIABLE).start()
        honest = SaturationFlow(net, 1, 4, rate_bps=2 * LINK_BPS,
                                size_bytes=882, semantics=Semantics.RELIABLE)
        honest.start()
        net.run(20.0)
        goodput_bps = net.flow_goodput(1, 4).average_mbps(5.0, 20.0) * 1e6
        floor = (LINK_BPS * 882 / WIRE) / ((f + g) * (n - 1))
        assert goodput_bps >= floor
