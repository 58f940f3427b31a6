"""Integration tests: administrator MTMW redistribution (Section V-A)."""

from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology.generators import ring
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw, MtmwUpdateResult

PACED = OverlayConfig(link_bandwidth_bps=1e6)


def ring_without(n, a, b, weight=0.010):
    topo = ring(n, weight=weight)
    topo.remove_edge(a, b)
    return topo


def distribute(net, topology, via):
    """Administrator action: sign a successor MTMW and inject it at ``via``,
    from where it floods to every node."""
    successor = net.mtmw.successor(topology, net.pki)
    net.mtmw = successor
    net.node(via).adopt_mtmw(successor)
    return successor


class TestDistribution:
    def test_new_mtmw_floods_to_every_node(self):
        net = OverlayNetwork.build(ring(5), PACED)
        new_topo = ring(5, weight=0.020)  # raise every minimum weight
        successor = distribute(net, new_topo, via=1)
        net.run(2.0)
        for node in net.nodes.values():
            assert node.mtmw.seqno == successor.seqno == 2
            assert node.mtmw.min_weight(1, 2) == 0.020

    def test_replayed_old_mtmw_rejected_everywhere(self):
        net = OverlayNetwork.build(ring(5), PACED)
        original = net.nodes[1].mtmw
        distribute(net, ring(5, weight=0.020), via=1)
        net.run(2.0)
        # An attacker replays the original (validly signed) MTMW.
        result = net.node(3).adopt_mtmw(original)
        assert result is MtmwUpdateResult.STALE
        assert net.node(3).mtmw.seqno == 2

    def test_forged_mtmw_rejected(self):
        net = OverlayNetwork.build(ring(5), PACED)
        forged = Mtmw(ring(5, weight=0.001), seqno=9, signature="junk")
        result = net.node(3).adopt_mtmw(forged)
        assert result is MtmwUpdateResult.BAD_SIGNATURE
        assert net.node(3).mtmw.seqno == 1


class TestLinkRemoval:
    def test_removed_link_stops_carrying_traffic(self):
        net = OverlayNetwork.build(ring(4), PACED)
        distribute(net, ring_without(4, 1, 2), via=3)
        net.run(2.0)
        before = net.node(1).links[2].data_transmissions
        net.client(1).send_priority(2)
        net.run(2.0)
        # Flooding delivers the long way; the removed link carries no data.
        assert net.delivered_count(1, 2) == 1
        assert net.node(1).links[2].data_transmissions == before

    def test_messages_from_removed_neighbor_rejected(self):
        from repro.byzantine.behaviors import Behavior

        class IgnoreAdministrator(Behavior):
            """A compromised node that refuses MTMW updates."""

            def filter_incoming(self, payload, neighbor, node):
                if isinstance(payload, Mtmw):
                    return None
                return payload

        net = OverlayNetwork.build(ring(4), PACED)
        net.compromise(1, IgnoreAdministrator())
        distribute(net, ring_without(4, 1, 2), via=3)
        net.run(2.0)
        assert net.node(1).mtmw.seqno == 1  # stuck on the old topology
        assert net.node(2).mtmw.seqno == 2
        rejected_before = net.node(2).non_neighbor_rejected
        # The stale/compromised node keeps pushing data over the removed
        # edge; its ex-neighbor rejects every message.
        net.node(1).send_priority(3, explicit_paths=((1, 2, 3),))
        net.run(2.0)
        assert net.node(2).non_neighbor_rejected > rejected_before
        assert net.delivered_count(1, 3) == 0

    def test_routing_recomputed_on_new_minimums(self):
        topo = ring(4)
        net = OverlayNetwork.build(topo, PACED)
        # Make edge 1-2 administratively expensive: K=1 reroutes.
        expensive = ring(4)
        expensive.set_weight(1, 2, 1.0)
        distribute(net, expensive, via=1)
        net.run(2.0)
        path = net.node(1).routing.shortest_path(1, 2)
        assert path == [1, 4, 3, 2]

    def test_reliable_flow_survives_link_removal(self):
        net = OverlayNetwork.build(ring(4), PACED)
        sent = [0]

        def tick():
            while sent[0] < 60 and net.node(1).send_reliable(3, size_bytes=800):
                sent[0] += 1
            if sent[0] < 60:
                net.sim.schedule(0.05, tick)

        tick()
        net.run(1.0)
        distribute(net, ring_without(4, 1, 2), via=1)
        net.run(20.0)
        assert net.delivered_count(1, 3) == 60


class TestReAddingLinks:
    def test_link_can_be_restored_by_later_mtmw(self):
        net = OverlayNetwork.build(ring(4), PACED)
        distribute(net, ring_without(4, 1, 2), via=1)
        net.run(2.0)
        distribute(net, ring(4), via=1)  # seqno 3: edge is back
        net.run(2.0)
        assert all(node.mtmw.is_edge(1, 2) for node in net.nodes.values())
        net.client(1).send_priority(2, method=DisseminationMethod.k_paths(1))
        net.run(1.0)
        assert net.delivered_count(1, 2) == 1
