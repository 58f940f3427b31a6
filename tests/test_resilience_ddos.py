"""Unit tests for the rotating link-flooding attack (resilience/ddos.py).

The attack model is what Figure 2 is built on: flood one route
combination per targeted link at a time, rotating faster than Internet
routing reacts.  Single-homed links die outright; multihomed links
survive any attacker whose breadth is below the combination count.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.resilience.ddos import RotatingLinkAttack
from repro.resilience.underlay import multihomed, single_homed
from repro.topology import generators


def _net():
    return OverlayNetwork.build(generators.clique(3), OverlayConfig(), seed=1)


def _single_homed_underlay(net):
    return single_homed(net, {node: "isp1" for node in net.topology.nodes})


def _multihomed_underlay(net):
    return multihomed(net, {node: ["isp1", "isp2"] for node in net.topology.nodes})


def test_constructor_validates_parameters():
    net = _net()
    underlay = _single_homed_underlay(net)
    with pytest.raises(ConfigurationError):
        RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.0)
    with pytest.raises(ConfigurationError):
        RotatingLinkAttack(net.sim, underlay, [(1, 2)], breadth=0)


def test_single_homed_target_is_continuously_dead():
    net = _net()
    underlay = _single_homed_underlay(net)
    attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.5)
    attack.start()
    # A single-homed link has exactly one combination: every rotation
    # re-floods it, so the link never comes back while the attack runs.
    for _ in range(4):
        net.sim.run(until=net.sim.now + 0.5)
        assert not underlay.link_usable(1, 2)
    # Untargeted links are untouched.
    assert underlay.link_usable(1, 3)
    assert underlay.link_usable(2, 3)


def test_multihomed_target_survives_narrow_attacker():
    net = _net()
    underlay = _multihomed_underlay(net)
    assert len(underlay.combos(1, 2)) == 4
    attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.5, breadth=1)
    attack.start()
    flooded_over_time = set()
    for _ in range(8):
        assert underlay.link_usable(1, 2)  # 3 of 4 combos always up
        flooded_over_time.update(combo for _, _, combo in attack._flooded)
        net.sim.run(until=net.sim.now + 0.5)
    # The attack really rotates: over 8 periods it cycled through every
    # combination, not just re-flooded one.
    assert flooded_over_time == set(underlay.combos(1, 2))


def test_multihomed_target_dies_when_breadth_covers_all_combos():
    net = _net()
    underlay = _multihomed_underlay(net)
    attack = RotatingLinkAttack(net.sim, underlay, [(1, 2)], rotation_period=0.5, breadth=4)
    attack.start()
    for _ in range(3):
        assert not underlay.link_usable(1, 2)
        net.sim.run(until=net.sim.now + 0.5)


def test_stop_releases_every_flooded_combination():
    net = _net()
    underlay = _single_homed_underlay(net)
    attack = RotatingLinkAttack(net.sim, underlay, [(1, 2), (2, 3)], rotation_period=0.5)
    attack.start()
    assert not underlay.link_usable(1, 2)
    assert not underlay.link_usable(2, 3)
    attack.stop()
    assert underlay.link_usable(1, 2)
    assert underlay.link_usable(2, 3)
    assert attack._flooded == []
    # A stopped attack schedules no further rotations.
    net.sim.run(until=net.sim.now + 2.0)
    assert underlay.link_usable(1, 2)


# ----------------------------------------------------------------------
# Client-tier admission floods (application-layer DoS)
# ----------------------------------------------------------------------
class TestAdmissionFlood:
    """A Byzantine client population hammering one node's admission
    stage: the reject watermark must engage, but a conforming honest
    client below the per-source floor must never lose an offer."""

    @staticmethod
    def _flood_net():
        from repro.messaging.admission import AdmissionConfig

        config = OverlayConfig(
            link_bandwidth_bps=2e5,
            priority_queue_capacity=50,
            admission=AdmissionConfig(
                capacity_rate=400.0,
                floor_min=4.0,
                floor_max=100.0,
                burst_tokens=8.0,
                park_capacity=32,
                park_timeout=0.5,
            ),
        )
        return OverlayNetwork.build(
            generators.chordal_ring(6, chords=2, weight=0.001), config, seed=1
        )

    @staticmethod
    def _periodic(sim, interval, fn, until):
        def tick():
            if sim.now >= until:
                return
            fn()
            sim.schedule(interval, tick)

        sim.schedule(0.0, tick)

    def test_burst_flood_hits_reject_watermark_without_starving_honest(self):
        from repro.messaging.admission import AdmissionState

        net = self._flood_net()
        node = net.node(1)
        states_seen = set()
        attacker_outcomes = {"admitted": 0, "parked": 0, "rejected": 0}
        honest_outcomes = {"admitted": 0, "parked": 0, "rejected": 0}
        attack_round = [0]

        def flood():
            # 40 offers per 10 ms across a rotating attacker population.
            attack_round[0] += 1
            for index in range(40):
                client = f"1/attacker-{index % 20}"
                outcome = node.offer_priority(
                    4, size_bytes=200, priority=9, client=client
                )
                attacker_outcomes[outcome.value] += 1
            states_seen.add(node.admission.state)

        def honest():
            # Conforming: one offer per 300 ms << floor_min (4/s).
            outcome = node.offer_priority(
                3, size_bytes=200, priority=2, client="1/honest"
            )
            honest_outcomes[outcome.value] += 1

        self._periodic(net.sim, 0.010, flood, until=4.0)
        self._periodic(net.sim, 0.300, honest, until=4.0)
        net.sim.run(until=6.0)

        # The flood drove the load signal through the reject watermark...
        assert AdmissionState.REJECT in states_seen
        assert attacker_outcomes["rejected"] > 0
        # ...and throttled the attackers hard (most offers not admitted).
        attacker_total = sum(attacker_outcomes.values())
        assert attacker_outcomes["admitted"] < attacker_total * 0.5
        # The honest conforming source lost nothing.
        assert honest_outcomes["rejected"] == 0
        assert honest_outcomes["parked"] == 0
        assert honest_outcomes["admitted"] == sum(honest_outcomes.values()) > 0

    def test_sybil_forged_source_ids_are_bounded_per_id(self):
        net = self._flood_net()
        node = net.node(1)
        config = node.admission.config
        per_sybil_admitted = []

        def sybil_wave():
            # Each wave mints a fresh forged identity and bursts 20
            # offers through it — the classic meter-evasion move.
            sybil = f"1/sybil-{len(per_sybil_admitted)}"
            admitted = 0
            for _ in range(20):
                outcome = node.offer_priority(
                    4, size_bytes=200, priority=9, client=sybil
                )
                if outcome.value == "admitted":
                    admitted += 1
            per_sybil_admitted.append(admitted)

        self._periodic(net.sim, 0.050, sybil_wave, until=3.0)
        net.sim.run(until=5.0)

        assert len(per_sybil_admitted) >= 50
        # A forged id buys at most one full initial bucket, never more:
        # the flood is bounded per identity even though ids are free.
        assert max(per_sybil_admitted) <= int(config.burst_tokens) + 1
        # And enough pressure built up that later offers were refused.
        assert node.admission.rejected > 0

    def test_conservation_holds_on_every_node_after_flood(self):
        net = self._flood_net()
        node = net.node(1)

        def flood():
            for index in range(30):
                node.offer_priority(
                    4, size_bytes=200, priority=9, client=f"1/a{index % 10}"
                )

        self._periodic(net.sim, 0.010, flood, until=2.0)
        net.sim.run(until=4.0)
        for overlay in net.nodes.values():
            offered, accounted = overlay.admission.balance()
            assert offered == accounted
