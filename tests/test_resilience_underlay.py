"""Unit tests for the multi-ISP underlay, BGP hijack, and rotating DDoS."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.resilience.bgp import BgpHijack
from repro.resilience.ddos import RotatingLinkAttack
from repro.resilience.underlay import Underlay, multihomed, single_homed
from repro.topology.generators import ring

FAST = OverlayConfig(link_bandwidth_bps=None)


def square():
    """4-node ring; nodes 1,3 on ISP red, 2,4 on ISP blue."""
    net = OverlayNetwork.build(ring(4), FAST)
    underlay = single_homed(net, {1: "red", 2: "blue", 3: "red", 4: "blue"})
    return net, underlay


def square_multihomed():
    net = OverlayNetwork.build(ring(4), FAST)
    underlay = multihomed(net, {n: ["red", "blue"] for n in (1, 2, 3, 4)})
    return net, underlay


class TestContracts:
    def test_missing_contract_rejected(self):
        net = OverlayNetwork.build(ring(4), FAST)
        with pytest.raises(ConfigurationError):
            Underlay(net, {1: ["red"]})

    def test_combos_single_homed(self):
        _, underlay = square()
        assert underlay.combos(1, 2) == [("red", "blue")]

    def test_combos_multihomed(self):
        _, underlay = square_multihomed()
        assert len(underlay.combos(1, 2)) == 4

    def test_all_links_initially_usable(self):
        _, underlay = square()
        assert len(underlay.usable_links()) == 4
        assert underlay.connected_pairs_fraction() == 1.0


class TestIspMeltdown:
    def test_single_homed_meltdown_kills_links(self):
        net, underlay = square()
        underlay.fail_isp("red")
        # Every link touches a red node: everything is down.
        assert underlay.usable_links() == []
        assert underlay.connected_pairs_fraction() == 0.0

    def test_multihomed_survives_single_meltdown(self):
        net, underlay = square_multihomed()
        underlay.fail_isp("red")
        assert len(underlay.usable_links()) == 4
        assert underlay.connected_pairs_fraction() == 1.0

    def test_unknown_isp_rejected(self):
        _, underlay = square()
        with pytest.raises(ConfigurationError):
            underlay.fail_isp("mystery")

    def test_meltdown_fails_overlay_channels(self):
        net, underlay = square()
        underlay.fail_isp("red")
        net.client(1).send_priority(3)
        net.run(2.0)
        assert net.delivered_count(1, 3) == 0


class TestBgpHijack:
    def test_hijack_kills_cross_isp_links_only(self):
        net, underlay = square()
        underlay.set_bgp_hijacked(True)
        # All four links are cross-ISP in the single-homed square.
        assert underlay.usable_links() == []

    def test_same_isp_links_survive(self):
        net = OverlayNetwork.build(ring(4), FAST)
        underlay = single_homed(net, {1: "red", 2: "red", 3: "red", 4: "blue"})
        underlay.set_bgp_hijacked(True)
        assert set(underlay.usable_links()) == {(1, 2), (2, 3)}

    def test_multihomed_switches_to_same_isp_combo(self):
        """Multihoming lets the overlay keep every link during a hijack."""
        net, underlay = square_multihomed()
        underlay.set_bgp_hijacked(True)
        assert len(underlay.usable_links()) == 4
        net.client(1).send_priority(3)
        net.run(2.0)
        assert net.delivered_count(1, 3) == 1

    def test_timed_hijack(self):
        net, underlay = square()
        hijack = BgpHijack(underlay)
        net.sim.schedule_at(1.0, hijack.start)
        net.sim.schedule_at(3.0, hijack.stop)
        net.run(0.5)
        assert len(underlay.usable_links()) == 4
        net.run(1.0)  # t = 1.5: hijack active
        assert underlay.usable_links() == []
        net.run(2.0)  # t = 3.5: over
        assert len(underlay.usable_links()) == 4


class TestRotatingDdos:
    def test_single_homed_target_link_stays_dead(self):
        net, underlay = square()
        attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.5)
        attack.start()
        for _ in range(4):
            net.run(0.5)
            assert not underlay.link_usable(1, 2)
        attack.stop()
        assert underlay.link_usable(1, 2)

    def test_multihomed_link_survives_narrow_attack(self):
        """With 4 combos and breadth 1, some combo is always clean."""
        net, underlay = square_multihomed()
        attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], breadth=1)
        attack.start()
        net.run(1.0)
        assert underlay.link_usable(1, 2)

    def test_broad_attack_kills_multihomed_link(self):
        net, underlay = square_multihomed()
        attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], breadth=4)
        attack.start()
        net.run(1.0)
        assert not underlay.link_usable(1, 2)

    def test_overlay_routes_around_attacked_link(self):
        """The Figure 2 point: the overlay delivers although the direct
        Internet path (link 1-2) is persistently broken."""
        net, underlay = square()
        attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.3)
        attack.start()
        net.run(0.1)
        net.client(1).send_priority(2)  # flooding routes via 4-3
        net.run(2.0)
        assert net.delivered_count(1, 2) == 1

    def test_invalid_parameters(self):
        net, underlay = square()
        with pytest.raises(ConfigurationError):
            RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.0)
        with pytest.raises(ConfigurationError):
            RotatingLinkAttack(net.sim, underlay, [(1, 2)], breadth=0)

    def test_unknown_combo_rejected(self):
        _, underlay = square()
        with pytest.raises(TopologyError):
            underlay.set_combo(1, 2, ("green", "green"), up=False)
