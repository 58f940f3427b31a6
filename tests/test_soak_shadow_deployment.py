"""Long-run soak test: the shadow deployment in miniature.

The paper's deployment "ran for several months as a complete shadow
monitoring system".  This test compresses that into 10 simulated minutes
of continuous operation on the 12-node cloud with everything happening
at once:

* the monitoring workload reporting to a sink the whole time,
* proactive recovery cycling every node through take-down/restore,
* a Byzantine node appearing mid-run (and being cleaned by recovery),
* periodic underlay link failures and repairs,
* a reliable control flow running end to end.

Invariants checked throughout and at the end: the monitoring view stays
fresh, the reliable flow is exactly-once in-order, no unhandled
exceptions, and per-node soft state (dedup metadata, flow buffers)
remains bounded.
"""

import pytest

from repro.byzantine.behaviors import DroppingBehavior
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.workloads.experiment import SCALED_LINK_BPS, Deployment
from repro.workloads.monitoring import MonitoringWorkload
from repro.workloads.traffic import ReliableBacklogTraffic

SINK = 3
MINUTES = 10


@pytest.mark.slow
def test_soak_ten_simulated_minutes():
    deployment = Deployment(
        config=OverlayConfig(link_bandwidth_bps=SCALED_LINK_BPS),
        seed=77,
    )
    net = deployment.network
    sim = deployment.sim

    monitoring = MonitoringWorkload(
        net, sinks=[SINK], method=DisseminationMethod.k_paths(2)
    )
    monitoring.start()

    recovery = deployment.add_defense(adaptive=False, period=120.0, downtime=2.0)

    control = ReliableBacklogTraffic(net, 4, 9, count=2000, size_bytes=600)
    control.start()
    received = []
    chained = net.node(9).on_deliver
    def on_deliver(m):
        if chained:
            chained(m)
        if m.semantics.value == "reliable":
            received.append(m.seq)
    net.node(9).on_deliver = on_deliver

    # Mid-run events.
    sim.schedule_at(120.0, net.compromise, 10, DroppingBehavior())
    sim.schedule_at(180.0, net.fail_link, 1, 2)
    sim.schedule_at(240.0, net.restore_link, 1, 2)
    sim.schedule_at(300.0, monitoring.set_method, DisseminationMethod.flooding())

    freshness_violations = []

    def check_freshness():
        # Skip windows where a recovery just took a reporter down.
        staleness = monitoring.view_staleness(SINK, at_time=sim.now)
        fresh = sum(1 for s in staleness if s < 10.0)
        if fresh < 9:  # 11 reporters; allow recovery + compromised node
            freshness_violations.append((sim.now, fresh))
        if sim.now < MINUTES * 60.0 - 1:
            sim.schedule(15.0, check_freshness)

    sim.schedule(30.0, check_freshness)
    deployment.run(MINUTES * 60.0)

    # --- Liveness: the view stayed fresh throughout.
    assert not freshness_violations, freshness_violations[:5]

    # --- Reliability: the control flow is exactly-once in order.
    assert control.done
    assert received == list(range(1, 2001))

    # --- Every node cycled through proactive recovery at least twice.
    assert recovery.recoveries_completed >= 2 * len(net.nodes)
    assert recovery.actuator.compromises_cleaned >= 1

    # --- Soft state stayed bounded (metadata expires; buffers bounded).
    for node in net.nodes.values():
        assert len(node.metadata) < 50_000
        for state in node.reliable.flows.values():
            assert state.buffer_used() <= net.config.reliable_buffer

    # --- Monitoring really ran the whole time.
    assert monitoring.messages_sent > MINUTES * 60 / 3 * 10 * 0.5
