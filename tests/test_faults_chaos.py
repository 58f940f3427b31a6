"""Integration tests for the chaos engine, overlay self-healing, and the
invariant monitor (repro.faults.chaos / repro.faults.invariants)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import ChaosEngine, _edge
from repro.faults.invariants import InvariantMonitor
from repro.faults.schedule import ChaosSpec, Fault, FaultSchedule
from repro.messaging.message import Message, Semantics
from repro.overlay.config import OverlayConfig
from repro.overlay import node as node_module
from repro.overlay.network import OverlayNetwork
from repro.routing.state import FAILED_WEIGHT
from repro.topology.generators import chordal_ring, clique, ring

FAST = OverlayConfig(link_bandwidth_bps=None)


def manual_schedule(*faults, duration=60.0):
    return FaultSchedule(seed=0, duration=duration, faults=tuple(
        sorted(faults, key=lambda f: f.start)
    ))


def build(topo=None, config=FAST, seed=0):
    return OverlayNetwork.build(topo or chordal_ring(8), config, seed=seed)


def impaired(channel):
    return channel._extra_loss > 0.0 or channel._extra_delay > 0.0


def quarantined_links(net):
    """The neighbors each live node holds in quarantine (nodes with none
    omitted)."""
    out = {}
    for node_id, node in net.nodes.items():
        held = [n for n, link in node.links.items() if not link.monitor_up]
        if held and not node.crashed:
            out[node_id] = held
    return out


class TestQuarantine:
    def test_failed_link_quarantined_within_probe_timeout(self):
        net = build(ring(5))
        net.run(2.0)
        net.fail_link(1, 2)
        # Detection bound: hello_timeout plus one hello tick.
        net.run(net.config.hello_timeout + net.config.hello_interval + 0.1)
        node = net.node(1)
        assert not node.links[2].monitor_up
        assert not node.routing.is_link_usable(1, 2)
        assert node.routing.effective_weight(1, 2) == FAILED_WEIGHT
        assert 2 in quarantined_links(net)[1]

    def test_other_nodes_learn_of_quarantine(self):
        net = build(ring(5))
        net.run(2.0)
        net.fail_link(1, 2)
        net.run(6.0)
        # A remote node's link-state also excludes the quarantined link.
        assert not net.node(4).routing.is_link_usable(1, 2)

    def test_reinstated_after_probation(self):
        net = build(ring(5))
        net.run(2.0)
        net.fail_link(1, 2)
        net.run(6.0)
        link = net.node(1).links[2]
        assert link.quarantine_count == 1
        assert link.probes_sent > 0
        net.restore_link(1, 2)
        # Probe hears the neighbor, probation runs, link reinstated.
        net.run(node_module.PROBE_BACKOFF_MAX + node_module.QUARANTINE_PROBATION + 3.0)
        assert link.monitor_up
        assert link.reinstatements == 1
        assert net.node(1).routing.is_link_usable(1, 2)
        assert quarantined_links(net) == {}

    def test_quarantine_stats_counters(self):
        net = build(ring(5))
        net.run(2.0)
        net.fail_link(1, 2)
        net.run(6.0)
        assert net.stats.counter("link_quarantines").value >= 2  # both ends
        net.restore_link(1, 2)
        net.run(10.0)
        assert net.stats.counter("link_reinstatements").value >= 2

    def test_probe_backoff_caps_probe_volume(self):
        net = build(ring(5))
        net.run(2.0)
        net.fail_link(1, 2)
        net.run(6.0)
        link = net.node(1).links[2]
        before = link.probes_sent
        net.run(40.0)
        # Backed off to PROBE_BACKOFF_MAX: at most ~1 probe/4 s (+ jitter).
        assert link.probes_sent - before <= 14

    def test_gray_failure_one_direction_quarantines_link(self):
        net = build(ring(5))
        net.run(2.0)
        # Kill 1->2 silently: node 2 stops hearing node 1.
        net.channels[(1, 2)].set_impairment(extra_loss=0.999999999)
        net.run(8.0)
        assert not net.node(2).links[1].monitor_up
        # Effective weight is the max of both reports, so the link is
        # unusable network-wide even though node 1 still hears node 2.
        assert not net.node(1).routing.is_link_usable(1, 2)
        net.channels[(1, 2)].set_impairment()
        net.run(12.0)
        assert net.node(2).links[1].monitor_up


class TestChaosEngine:
    def test_same_seed_identical_schedule_and_stats(self):
        spec = ChaosSpec.full(duration=40.0, intensity=3.0)
        results = []
        for _ in range(2):
            topo = chordal_ring(8)
            net = build(topo, seed=11)
            schedule = spec.generate(topo, seed=11)
            engine = ChaosEngine(net, schedule)
            engine.arm()
            client = net.client(1)

            def tick(client=client, net=net):
                try:
                    client.send_priority(5, size_bytes=300)
                except Exception:
                    pass
                net.sim.schedule(0.5, tick)

            net.sim.schedule(0.1, tick)
            net.run(50.0)
            results.append((
                schedule.describe(),
                list(engine.applied),
                net.delivered_count(1, 5),
                net.stats.counter("link_quarantines").value,
            ))
        assert results[0] == results[1]

    def test_flap_applies_and_heals(self):
        net = build(ring(5))
        schedule = manual_schedule(Fault(1.0, "flap", (1, 2), 3.0))
        ChaosEngine(net, schedule).arm()
        net.run(2.0)
        assert not net.channels[(1, 2)]._up
        net.run(3.0)
        assert net.channels[(1, 2)]._up

    def test_overlapping_link_faults_refcounted(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "flap", (1, 2), 10.0),
            Fault(2.0, "flap", (1, 2), 2.0),  # ends first; link must stay down
        )
        ChaosEngine(net, schedule).arm()
        net.run(5.0)
        assert not net.channels[(1, 2)]._up
        net.run(7.0)
        assert net.channels[(1, 2)]._up

    def test_gray_fault_sets_and_clears_impairment(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "gray", (1, 2), 4.0,
                  params=(("extra_delay", 0.05), ("extra_loss", 0.3)))
        )
        ChaosEngine(net, schedule).arm()
        net.run(2.0)
        assert impaired(net.channels[(1, 2)])
        assert impaired(net.channels[(2, 1)])
        net.run(4.0)
        assert not impaired(net.channels[(1, 2)])

    def test_noise_fault_projects_onto_loss_and_delay(self):
        # In the simulator, the wire-noise fault's corruption share folds
        # into loss (a corrupted datagram dies at decode/MAC), and
        # dup/reorder have no sim-channel representation.
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "noise", (1, 2), 4.0, params=(
                ("corrupt", 0.5), ("dup", 0.9), ("extra_delay", 0.02),
                ("extra_loss", 0.5), ("reorder", 0.9),
            ))
        )
        engine = ChaosEngine(net, schedule)
        engine.arm()
        net.run(2.0)
        channel = net.channels[(1, 2)]
        assert impaired(channel)
        # 1 - (1-0.5)(1-0.5) = 0.75 composed loss.
        assert channel._extra_loss == pytest.approx(0.75)
        assert channel._extra_delay == pytest.approx(0.02)
        net.run(4.0)
        assert not impaired(net.channels[(1, 2)])
        assert engine.counts["noise"] == 1

    def test_noise_and_gray_compose_on_same_edge(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "gray", (1, 2), 10.0,
                  params=(("extra_delay", 0.01), ("extra_loss", 0.2))),
            Fault(2.0, "noise", (1, 2), 2.0, params=(
                ("corrupt", 0.0), ("dup", 0.1), ("extra_delay", 0.01),
                ("extra_loss", 0.5), ("reorder", 0.1),
            )),
        )
        ChaosEngine(net, schedule).arm()
        net.run(3.0)
        channel = net.channels[(1, 2)]
        # 1 - (1-0.2)(1-0.5) = 0.6 while both are active.
        assert channel._extra_loss == pytest.approx(0.6)
        assert channel._extra_delay == pytest.approx(0.02)
        net.run(5.0)
        # The noise fault ended; the gray failure must survive unchanged.
        assert channel._extra_loss == pytest.approx(0.2)
        assert channel._extra_delay == pytest.approx(0.01)

    def test_burst_impairs_all_links_of_node(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "burst", (1,), 2.0, params=(("extra_loss", 0.8),))
        )
        ChaosEngine(net, schedule).arm()
        net.run(1.5)
        for neighbor in net.topology.neighbors(1):
            assert impaired(net.channels[(1, neighbor)])
        net.run(2.0)
        for neighbor in net.topology.neighbors(1):
            assert not impaired(net.channels[(1, neighbor)])

    def test_crash_and_restart(self):
        net = build(ring(5))
        schedule = manual_schedule(Fault(1.0, "crash", (3,), 4.0))
        ChaosEngine(net, schedule).arm()
        net.run(2.0)
        assert net.node(3).crashed
        net.run(4.0)
        assert not net.node(3).crashed

    def test_partition_cuts_crossing_edges_only(self):
        net = build(clique(5))
        schedule = manual_schedule(Fault(1.0, "partition", (1, 2), 3.0))
        ChaosEngine(net, schedule).arm()
        net.run(2.0)
        assert net.channels[(1, 2)]._up          # inside the partition side
        assert not net.channels[(1, 3)]._up      # crossing
        assert not net.channels[(2, 4)]._up      # crossing
        assert net.channels[(3, 4)]._up          # outside
        net.run(3.0)
        assert net.channels[(1, 3)]._up

    def test_recovery_refails_links_with_active_faults(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "flap", (2, 3), 20.0),
            Fault(2.0, "crash", (2,), 3.0),
        )
        ChaosEngine(net, schedule).arm()
        net.run(6.0)  # node 2 recovered at t=5, flap still active
        assert not net.node(2).crashed
        assert not net.channels[(2, 3)]._up
        net.run(20.0)
        assert net.channels[(2, 3)]._up

    def test_arm_twice_rejected(self):
        net = build(ring(5))
        engine = ChaosEngine(net, manual_schedule())
        engine.arm()
        with pytest.raises(ConfigurationError):
            engine.arm()

    def test_unknown_targets_skipped(self):
        net = build(ring(5))
        schedule = manual_schedule(
            Fault(1.0, "flap", (90, 91), 1.0),
            Fault(1.0, "crash", (90,), 1.0),
        )
        engine = ChaosEngine(net, schedule)
        engine.arm()
        net.run(5.0)
        assert engine.skipped == 2
        assert engine.summary()["faults_applied"]["flap"] == 0

    def test_edge_key_is_order_independent(self):
        assert _edge(2, 1) == _edge(1, 2)


class TestInvariantMonitor:
    def test_detects_manufactured_duplicate_delivery(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        message = Message(
            source=1, dest=3, seq=1, semantics=Semantics.PRIORITY,
            size_bytes=100, sent_at=0.0,
        )
        net.node(3).deliver_local(message)
        net.node(3).deliver_local(message)
        assert not monitor.ok
        assert monitor.violations[0].invariant == "no-duplicate-delivery"

    def test_detects_reliable_reordering(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        for seq in (1, 2, 2):
            net.node(3).deliver_local(Message(
                source=1, dest=3, seq=seq, semantics=Semantics.RELIABLE,
                size_bytes=100, sent_at=0.0,
            ))
        assert any(v.invariant == "per-flow-ordering" for v in monitor.violations)

    def test_crash_resets_dedup_horizon(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        message = Message(
            source=1, dest=3, seq=1, semantics=Semantics.PRIORITY,
            size_bytes=100, sent_at=0.0,
        )
        net.node(3).deliver_local(message)
        net.crash(3)
        net.recover(3)
        net.node(3).deliver_local(message)  # fresh incarnation: legitimate
        assert monitor.ok

    def test_clean_chaos_soak_has_no_violations(self):
        topo = chordal_ring(8)
        net = build(topo, seed=2)
        spec = ChaosSpec.full(duration=40.0, intensity=2.0)
        ChaosEngine(net, spec.generate(topo, seed=2)).arm()
        monitor = InvariantMonitor(net)
        monitor.arm()
        client = net.client(1)

        def tick():
            try:
                client.send_priority(5, size_bytes=300)
                client.send_reliable(4, size_bytes=300)
            except Exception:
                pass
            net.sim.schedule(0.4, tick)

        net.sim.schedule(0.1, tick)
        net.run(50.0)
        assert monitor.deliveries_checked > 0
        assert monitor.routing_checks > 0
        assert monitor.ok, monitor.report()

    def test_fairness_floor_flags_starved_flow(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        monitor.arm_fairness(1, 3, min_bps=1000.0, window=2.0, grace=1.0)
        net.run(20.0)  # nothing ever sent on the flow
        assert any(
            v.invariant == "priority-fairness-floor" for v in monitor.violations
        )

    def test_fairness_floor_satisfied_by_traffic(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        monitor.arm_fairness(1, 3, min_bps=1000.0, window=2.0, grace=1.0)
        client = net.client(1)

        def tick():
            client.send_priority(3, size_bytes=500)
            net.sim.schedule(0.2, tick)

        net.sim.schedule(0.0, tick)
        net.run(20.0)
        assert monitor.ok, monitor.report()

    def test_monitor_report_format(self):
        net = build(ring(5))
        monitor = InvariantMonitor(net)
        monitor.arm()
        net.run(3.0)
        report = monitor.report()
        assert "0 violations" in report
        assert monitor.summary()["violations"] == 0


class TestNetworkHelpers:
    def test_impair_link_both_directions(self):
        net = build(ring(5))
        net.impair_link(1, 2, extra_loss=0.5, extra_delay=0.01)
        assert impaired(net.channels[(1, 2)]) and impaired(net.channels[(2, 1)])
        net.impair_link(1, 2)
        assert not impaired(net.channels[(1, 2)])

    def test_quarantined_links_empty_when_healthy(self):
        net = build(ring(5))
        net.run(5.0)
        assert quarantined_links(net) == {}
