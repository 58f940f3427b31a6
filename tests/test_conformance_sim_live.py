"""Differential sim-vs-live conformance test.

Runs the *same* seeded 4-node scenario — ``live_topology(4)``, the
deployment's :func:`~repro.runtime.live.flow_plan` traffic matrix,
exact-count CBR injection — through both substrates of the runtime seam:

* the discrete-event :class:`~repro.sim.engine.Simulator` via
  :meth:`OverlayNetwork.build`, and
* the real asyncio/UDP :class:`~repro.runtime.live.LiveDeployment`,

then asserts the protocol stack behaved identically where it must
(delivered-message sets, per-flow delivery order, injected counts) and
comparably where wall clock makes exact equality impossible (per-flow
mean latency within a tolerance).  This is the test that would catch a
"fast path" that only exists in one substrate — e.g. a cache keyed off
simulated time, or a pump shortcut that relies on the simulator's
run-to-quiescence behavior.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.clients.session import BREAKER_THRESHOLD
from repro.messaging.message import Message
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.runtime.live import LiveConfig, LiveDeployment, flow_plan, live_topology
from repro.workloads.traffic import CbrTraffic

NODES = 4
MESSAGES_PER_FLOW = 10
RATE_MSGS_PER_SEC = 20.0
SIZE_BYTES = 256
SEED = 0
#: Loopback UDP and a sim with 1 ms edge weights should both deliver in
#: well under this; the bound only needs to absorb CI-runner jitter.
LATENCY_TOLERANCE_SECONDS = 0.5

FlowKey = Tuple[object, object]


class DeliveryLog:
    """Per-flow delivery order and latency, recorded via observers."""

    def __init__(self) -> None:
        self.order: Dict[FlowKey, List[int]] = defaultdict(list)
        self.latencies: Dict[FlowKey, List[float]] = defaultdict(list)

    def record(self, message: Message, node) -> None:
        key = (message.source, message.dest)
        self.order[key].append(message.seq)
        self.latencies[key].append(node.sim.now - message.sent_at)


def _start_flows(net, flows) -> List[CbrTraffic]:
    """Exactly ``MESSAGES_PER_FLOW`` CBR messages per flow, the same
    generators on either substrate."""
    generators = []
    for source, dest, semantics in flows:
        generator = CbrTraffic(
            net,
            source,
            dest,
            rate_bps=RATE_MSGS_PER_SEC * SIZE_BYTES * 8.0,
            size_bytes=SIZE_BYTES,
            semantics=semantics,
            method=DisseminationMethod.flooding(),
            max_messages=MESSAGES_PER_FLOW,
        )
        generators.append(generator)
        generator.start()
    return generators


def _run_sim(flows) -> Tuple[DeliveryLog, List[CbrTraffic]]:
    """The scenario on the discrete-event simulator."""
    log = DeliveryLog()
    net = OverlayNetwork.build(live_topology(NODES), OverlayConfig(), seed=SEED)
    for node in net.nodes.values():
        node.delivery_observers.append(log.record)
    generators = _start_flows(net, flows)
    net.sim.run(until=10.0)
    return log, generators


def _run_live(flows) -> Tuple[DeliveryLog, LiveDeployment, List[CbrTraffic]]:
    """The identical scenario on real asyncio/UDP sockets."""

    async def drive():
        config = LiveConfig(
            nodes=NODES, duration=3.0, seed=SEED, flow_traffic=False
        )
        deployment = LiveDeployment(config)
        log = DeliveryLog()
        await deployment.start()
        # Attaching and starting synchronously after start() is
        # race-free: a delivery needs at least one event-loop turn (a UDP
        # datagram round trip), and we have not yielded to the loop yet.
        for process in deployment.processes.values():
            process.overlay.delivery_observers.append(log.record)
        generators = _start_flows(deployment, flows)
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        return log, deployment, generators

    return asyncio.run(drive())


def test_sim_and_live_agree_on_deliveries():
    flows = flow_plan(sorted(live_topology(NODES).nodes))
    assert len(flows) == NODES  # 4-node clique: every node sources a flow

    sim_log, sim_generators = _run_sim(flows)
    live_log, deployment, live_generators = _run_live(flows)

    # Both substrates injected exactly the configured message count.
    assert [g.messages_sent for g in sim_generators] == [MESSAGES_PER_FLOW] * len(flows)
    assert [g.messages_sent for g in live_generators] == [MESSAGES_PER_FLOW] * len(flows)
    assert not deployment._runtime_errors

    flow_keys = {(source, dest) for source, dest, _ in flows}
    assert set(sim_log.order) == flow_keys
    assert set(live_log.order) == flow_keys

    for key in sorted(flow_keys, key=str):
        sim_seqs = sim_log.order[key]
        live_seqs = live_log.order[key]
        # Identical delivered-message sets (no losses, no duplicates)...
        assert sorted(sim_seqs) == sorted(live_seqs)
        assert len(set(sim_seqs)) == len(sim_seqs)
        # ...delivered in the same per-flow order on both substrates.
        assert sim_seqs == sorted(sim_seqs)
        assert live_seqs == sim_seqs

    for key in sorted(flow_keys, key=str):
        sim_latencies = sim_log.latencies[key]
        live_latencies = live_log.latencies[key]
        sim_mean = sum(sim_latencies) / len(sim_latencies)
        live_mean = sum(live_latencies) / len(live_latencies)
        assert 0.0 <= sim_mean < LATENCY_TOLERANCE_SECONDS
        assert 0.0 <= live_mean
        assert abs(live_mean - sim_mean) < LATENCY_TOLERANCE_SECONDS


def test_time_until_idle_parity_between_substrates():
    """The live UDP send channel has no serialization model: it answers
    ``time_until_idle`` like the sim channel's "infinite bandwidth"
    setting, 0.0 whatever was sent — the overlay pump's skip-on-backlog
    fast path keys off this value on both substrates."""
    from repro.link.por import _HelloWrapper
    from repro.messaging.message import Hello
    from repro.runtime.transport import AsyncioUdpTransport, UdpSendChannel
    from repro.sim.channel import Channel, ChannelConfig
    from repro.sim.engine import Simulator

    sim = Simulator(seed=SEED)
    sim_channel = Channel(
        sim, ChannelConfig(latency=0.0, bandwidth_bps=None), name="parity"
    )
    sim_channel.on_receive = lambda packet: None
    transport = AsyncioUdpTransport("n")
    transport.register_peer("peer", ("127.0.0.1", 9))  # never actually sent to
    live_channel = UdpSendChannel(transport, "peer")
    packet = _HelloWrapper(Hello("n", 1))
    for size in (256, 10**6):
        sim_channel.send(packet, size)
        live_channel.send(packet, size)
        assert sim_channel.time_until_idle() == live_channel.time_until_idle() == 0.0


# ----------------------------------------------------------------------
# Client-tier admission conformance
# ----------------------------------------------------------------------
#: A pure count-based admission config: ``park_capacity=0`` removes the
#: park buffer (no tick-timing-dependent releases), ``floor_min ==
#: floor_max`` pins the allowance at exactly 4 msgs/s regardless of
#: surge or active-source churn, and the plan's per-client gaps stay far
#: below ``SOURCE_IDLE_TIMEOUT`` (10 s), so no meter is re-minted with a
#: fresh bucket mid-plan.  Under this config
#: every admission decision is a deterministic function of the offer
#: counts and inter-burst gaps alone — the wall clock only trickles in
#: sub-token refill amounts — so sim and live must agree exactly.
def _admission_config():
    from repro.messaging.admission import AdmissionConfig

    return AdmissionConfig(
        burst_tokens=4.0,
        floor_min=4.0,
        floor_max=4.0,
        surge_max=1.0,
        park_capacity=0,
    )


def _overload_plan():
    """Three clients, two bursts each; gaps of >= 1.5 s per client fully
    refill the 4-token bucket (4 msgs/s * 1.5 s > 4) on any substrate."""
    from repro.clients.generators import ScriptedBurst

    return [
        ScriptedBurst(at=0.2, source=1, client="1/a", dest=3, count=6, priority=5),
        ScriptedBurst(at=0.3, source=2, client="2/a", dest=4, count=3, priority=7),
        ScriptedBurst(at=0.4, source=4, client="4/a", dest=2, count=8, priority=4),
        ScriptedBurst(at=1.8, source=1, client="1/a", dest=3, count=5, priority=5),
        ScriptedBurst(at=1.9, source=2, client="2/a", dest=4, count=7, priority=7),
        ScriptedBurst(at=2.0, source=4, client="4/a", dest=2, count=2, priority=4),
    ]


class ScriptedDeliveryLog:
    """Per-flow delivery order of scripted offers, by payload tag."""

    def __init__(self) -> None:
        self.order: Dict[FlowKey, List[Tuple[int, int]]] = defaultdict(list)

    def record(self, message: Message, node) -> None:
        payload = message.payload
        if isinstance(payload, str) and payload.startswith("scripted:"):
            _, burst, offer = payload.split(":")
            self.order[(message.source, message.dest)].append(
                (int(burst), int(offer))
            )


def _run_scripted_sim():
    from repro.clients.generators import ScriptedOverload

    log = ScriptedDeliveryLog()
    net = OverlayNetwork.build(
        live_topology(NODES),
        OverlayConfig(admission=_admission_config()),
        seed=SEED,
    )
    for node in net.nodes.values():
        node.delivery_observers.append(log.record)
    driver = ScriptedOverload(net, _overload_plan())
    driver.arm(epoch=0.0)
    net.sim.run(until=10.0)
    return log, driver


def _run_scripted_live():
    from repro.clients.generators import ScriptedOverload

    async def drive():
        config = LiveConfig(
            nodes=NODES,
            duration=4.5,
            seed=SEED,
            flow_traffic=False,
            overlay=OverlayConfig(admission=_admission_config()),
        )
        deployment = LiveDeployment(config)
        log = ScriptedDeliveryLog()
        await deployment.start()
        for process in deployment.processes.values():
            process.overlay.delivery_observers.append(log.record)
        driver = ScriptedOverload(deployment, _overload_plan())
        driver.arm()
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        return log, driver

    return asyncio.run(drive())


def test_sim_and_live_agree_on_admission_decisions():
    """The identical scripted overload plan must produce the identical
    per-offer admission outcome log and the identical per-flow delivery
    order on both substrates — the client tier's conformance contract."""
    sim_log, sim_driver = _run_scripted_sim()
    live_log, live_driver = _run_scripted_live()

    # Every offer got a decision, and the decisions agree offer-by-offer.
    planned = sum(burst.count for burst in _overload_plan())
    assert len(sim_driver.outcomes) == planned
    assert sim_driver.outcomes == live_driver.outcomes
    assert sim_driver.admitted_ids() == live_driver.admitted_ids()

    # The expected decisions are computable by hand: the first 4 offers
    # of every burst fit the refilled bucket, the rest are rejected.
    for burst_index, burst in enumerate(_overload_plan()):
        for offer_index in range(burst.count):
            expected = "admitted" if offer_index < 4 else "rejected"
            assert (burst_index, offer_index, expected) in sim_driver.outcomes

    # Admitted offers were all delivered, per flow, in the same order.
    assert set(sim_log.order) == set(live_log.order)
    for key in sorted(sim_log.order, key=str):
        assert sim_log.order[key] == live_log.order[key]
    delivered = sum(len(v) for v in sim_log.order.values())
    assert delivered == len(sim_driver.admitted_ids())


# ----------------------------------------------------------------------
# Client session-layer conformance (incl. typed NACKs)
# ----------------------------------------------------------------------
#: Deterministic admission for the session plan: one burst token per
#: client bucket, a pinned floor, and a park timeout *shorter than the
#: tick interval* so every parked offer expires into a typed NACK at
#: the next tick (the expiry sweep runs before the release drain) —
#: never tick-timing-dependently released.  With ``retry_budget=0`` the
#: session cannot retry, so every offer resolves deterministically:
#: first-in-bucket -> admitted -> ok, second -> parked -> NACK ->
#: failed_budget.  Exact outcome-log equality across substrates follows.
def _session_admission_config():
    from repro.messaging.admission import AdmissionConfig

    return AdmissionConfig(
        burst_tokens=1.0,
        floor_min=0.5,
        floor_max=0.5,
        surge_max=1.0,
        park_capacity=4,
        park_timeout=0.01,
    )


def _session_conformance_config():
    from repro.clients.session import SessionConfig

    return SessionConfig(retry_budget=0.0)


def _session_plan():
    from repro.clients.session import ScriptedSessionRequest

    return [
        # Per home: the first request drains the single-token bucket
        # (admitted -> ok), the immediate second parks and dies into a
        # NACK (-> failed_budget: no retry budget).  The 2.6 s gap
        # refills home 1's bucket (0.5 tok/s), so its third request is
        # admitted again.
        ScriptedSessionRequest(at=0.20, home=1, dest=3),
        ScriptedSessionRequest(at=0.25, home=1, dest=4),
        ScriptedSessionRequest(at=0.30, home=2, dest=4),
        ScriptedSessionRequest(at=0.35, home=2, dest=1),
        ScriptedSessionRequest(at=2.60, home=1, dest=2),
        ScriptedSessionRequest(at=2.65, home=4, dest=2),
    ]


def _session_tier(net):
    from repro.clients.session import SessionTier, SessionWorkloadConfig

    nodes = sorted(net.nodes)
    return SessionTier(
        net,
        nodes,
        list(nodes),
        workload=SessionWorkloadConfig(
            arrival_rate=1.0, session=_session_conformance_config()
        ),
    )


def _run_session_sim():
    net = OverlayNetwork.build(
        live_topology(NODES),
        OverlayConfig(admission=_session_admission_config()),
        seed=SEED,
    )
    tier = _session_tier(net)
    tier.arm(_session_plan(), epoch=0.0)
    net.sim.run(until=10.0)
    tier.finalize()
    return tier


def _run_session_live():
    async def drive():
        config = LiveConfig(
            nodes=NODES,
            duration=4.5,
            seed=SEED,
            flow_traffic=False,
            overlay=OverlayConfig(admission=_session_admission_config()),
        )
        deployment = LiveDeployment(config)
        await deployment.start()
        tier = _session_tier(deployment)
        tier.arm(_session_plan())
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        tier.finalize()
        return tier

    return asyncio.run(drive())


def test_sim_and_live_agree_on_session_outcomes():
    """The identical scripted session plan must produce the identical
    per-request outcome log — key, outcome, attempt count — on both
    substrates, including the requests that resolve via a typed
    admission NACK.  This is the session-layer conformance contract:
    no retry/NACK/dedup behavior may exist on only one substrate."""
    sim_tier = _run_session_sim()
    live_tier = _run_session_live()

    expected_ok = 4
    expected_nacked = 2
    assert sim_tier.outcome_log() == live_tier.outcome_log()
    assert len(sim_tier.outcome_log()) == len(_session_plan())
    outcomes = [outcome for _, outcome, _ in sim_tier.outcome_log()]
    assert outcomes.count("ok") == expected_ok
    assert outcomes.count("failed_budget") == expected_nacked
    # Every resolution took exactly one attempt (budget 0: no retries).
    assert all(attempts == 1 for _, _, attempts in sim_tier.outcome_log())
    for tier in (sim_tier, live_tier):
        assert tier.nacks_consumed == expected_nacked
        assert tier.retry_offers == 0
        assert tier.double_processed == 0
        assert tier.invariant_violations() == 0


def test_typed_nack_crosses_the_real_udp_wire():
    """A NACK whose ``home`` differs from the emitting ingress must be
    carried by the live wire path (payload tag 8) across real UDP
    sockets back to the home node's observers.  Force the home's
    circuit breaker open so attempts fail over to a backup ingress;
    the backup's parked-then-expired offer NACKs back to ``home``."""

    async def drive():
        config = LiveConfig(
            nodes=NODES,
            duration=3.0,
            seed=SEED,
            flow_traffic=False,
            overlay=OverlayConfig(admission=_session_admission_config()),
        )
        deployment = LiveDeployment(config)
        await deployment.start()
        tier = _session_tier(deployment)
        tier._install_observers()
        session = tier.sessions[0]
        breaker = tier.breaker(session.home)
        for _ in range(BREAKER_THRESHOLD):
            breaker.record_failure(deployment.sim.now)
        dest = sorted(deployment.nodes)[2]
        session.submit(dest)  # drains the backup ingress's bucket
        session.submit(dest)  # parks at the backup -> expires -> NACK
        try:
            await deployment.serve()
        finally:
            await deployment.stop()
        tier.finalize()
        return tier

    tier = asyncio.run(drive())
    assert tier.failovers >= 2  # both attempts bypassed the open home
    assert tier.nacks_consumed >= 1  # the NACK crossed the wire home
    outcomes = [outcome for _, outcome, _ in tier.outcome_log()]
    assert outcomes.count("ok") == 1
    assert outcomes.count("failed_budget") == 1
