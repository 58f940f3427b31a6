"""Turret-style automated attack finding (Section VI-B1).

The paper used Turret to find message-validation bugs in Spines and then
fixed them; "further iterations of Turret have not revealed new issues".
These tests run small campaigns and require that no invariant violation
or crash is found.
"""

import pytest

from repro.byzantine.turret import FieldFuzzBehavior, TurretCampaign, TurretReport
from repro.overlay.config import OverlayConfig
from repro.topology.generators import clique, ring
from repro.topology import global_cloud


class TestCampaign:
    def test_clique_campaign_clean(self):
        campaign = TurretCampaign(
            lambda: clique(5), n_compromised=2, run_seconds=4.0, master_seed=100
        )
        report = campaign.run(6)
        assert report.ok, report.summary()

    def test_ring_campaign_clean(self):
        campaign = TurretCampaign(
            lambda: ring(5), n_compromised=1, run_seconds=4.0, master_seed=200
        )
        report = campaign.run(6)
        assert report.ok, report.summary()

    def test_global_cloud_campaign_clean(self):
        campaign = TurretCampaign(
            lambda: global_cloud.topology(),
            n_compromised=3,
            run_seconds=3.0,
            master_seed=300,
        )
        report = campaign.run(3)
        assert report.ok, report.summary()

    def test_iterations_are_reproducible(self):
        campaign = TurretCampaign(lambda: clique(4), run_seconds=2.0)
        a = campaign.run_iteration(seed=42)
        b = campaign.run_iteration(seed=42)
        assert a == b

    def test_different_seeds_draw_different_strategies(self):
        campaign = TurretCampaign(lambda: clique(5), run_seconds=1.0)
        outcomes = {campaign.run_iteration(seed=s).strategies for s in range(8)}
        assert len(outcomes) > 2


class TestReport:
    def test_summary_mentions_failures(self):
        from repro.byzantine.turret import TurretIteration

        bad = TurretIteration(
            seed=7, compromised=(1,), strategies=("drop",),
            violations=("duplicate priority delivery",),
        )
        report = TurretReport([bad])
        assert not report.ok
        assert "seed=7" in report.summary()
        assert "duplicate" in report.summary()

    def test_ok_report(self):
        report = TurretReport([])
        assert report.ok
        assert "0 failure" in report.summary()


class TestFieldFuzzer:
    def test_fuzzed_messages_rejected_downstream(self):
        """Whatever the fuzzer does to a message, correct nodes must not
        deliver it as valid traffic from the source."""
        import random

        from repro.overlay.network import OverlayNetwork
        from tests.fixtures import line
        from repro.overlay.config import DisseminationMethod

        net = OverlayNetwork.build(line(3), OverlayConfig(link_bandwidth_bps=None))
        fuzzer = FieldFuzzBehavior(random.Random(1), fuzz_fraction=1.0)
        net.compromise(2, fuzzer)
        for _ in range(20):
            net.client(1).send_priority(3, method=DisseminationMethod.k_paths(1))
        net.run(3.0)
        assert fuzzer.fuzzed > 0
        # A fuzz that changes any signed field breaks the signature; the
        # destination delivers nothing it can't authenticate.
        delivered = net.delivered_count(1, 3)
        rejected = net.node(3).invalid_messages_rejected
        assert delivered + rejected >= 1
        assert delivered == 0 or rejected > 0
