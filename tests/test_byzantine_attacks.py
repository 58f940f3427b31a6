"""Tests for the canned attack drivers (Section VI-B style)."""

import pytest

from repro.byzantine.attacks import (
    CrashEvent,
    CrashSchedule,
    E2eAckSpamAttack,
    PrioritySpamAttack,
    ReplayAttack,
    RoutingWeightAttack,
    SaturationFlow,
)
from repro.errors import ConfigurationError
from repro.messaging.message import Semantics
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.routing.validation import UpdateResult
from repro.topology.generators import clique, ring
from tests.fixtures import ReliableBacklogTraffic

PACED = OverlayConfig(link_bandwidth_bps=1e6)


class TestSaturationFlow:
    def test_reaches_offered_rate_when_uncontended(self):
        net = OverlayNetwork.build(ring(4), PACED)
        flow = SaturationFlow(net, 1, 3, rate_bps=2e5, size_bytes=882)
        flow.start()
        net.run(10.0)
        goodput = net.flow_goodput(1, 3).average_mbps(2.0, 10.0)
        assert goodput == pytest.approx(0.2 * 882 / 882, rel=0.2)

    def test_stop_halts_sending(self):
        net = OverlayNetwork.build(ring(4), PACED)
        flow = SaturationFlow(net, 1, 3, rate_bps=2e5)
        flow.schedule(0.0, stop_at=1.0)
        net.run(5.0)
        sent_at_stop = flow.messages_sent
        net.run(5.0)
        assert flow.messages_sent == sent_at_stop

    def test_reliable_saturation_respects_backpressure(self):
        net = OverlayNetwork.build(ring(4), PACED)
        flow = SaturationFlow(net, 1, 3, rate_bps=5e6, semantics=Semantics.RELIABLE)
        flow.start()
        net.run(5.0)
        assert net.delivered_count(1, 3) > 0
        # Every accepted message is eventually delivered (none lost).
        net.run(20.0)
        assert flow.messages_sent >= net.delivered_count(1, 3) > 100

    def test_invalid_rate_rejected(self):
        net = OverlayNetwork.build(ring(4), PACED)
        with pytest.raises(ConfigurationError):
            SaturationFlow(net, 1, 3, rate_bps=0.0)


class TestPrioritySpam:
    def test_spam_cannot_starve_honest_source(self):
        """Figure 7's core claim at unit scale."""
        net = OverlayNetwork.build(ring(4), PACED, seed=3)
        spam = PrioritySpamAttack(net, 2, 4, rate_bps=2e6)
        spam.start()
        honest = SaturationFlow(net, 1, 3, rate_bps=1.5e5, priority=1)
        honest.start()
        net.run(10.0)
        honest_goodput = net.flow_goodput(1, 3).average_mbps(3.0, 10.0)
        # Honest demand (0.15 Mbps) is below fair share (0.5 Mbps): kept.
        assert honest_goodput > 0.12


class TestRoutingWeightAttack:
    def test_attack_detected_and_ignored(self):
        net = OverlayNetwork.build(ring(4), PACED)
        attack = RoutingWeightAttack(net, attacker=2)
        updates = attack.launch()
        net.run(2.0)
        assert attack.updates_issued == len(updates) == 3
        # The attacker's MTMW neighbors detect provable misbehaviour and
        # do not forward the invalid updates any further.
        for honest in (1, 3):
            routing = net.node(honest).routing
            assert 2 in routing.detected_compromised
            # Weights unchanged: still at the MTMW minimum.
            assert routing.effective_weight(1, 2) == net.mtmw.min_weight(1, 2)
        assert 2 not in net.node(4).routing.detected_compromised

    def test_below_min_and_not_endpoint_both_counted(self):
        net = OverlayNetwork.build(ring(4), PACED)
        RoutingWeightAttack(net, attacker=2).launch()
        net.run(2.0)
        results = net.node(1).routing.results
        assert results[UpdateResult.BELOW_MIN_WEIGHT] >= 1
        assert results[UpdateResult.NOT_ENDPOINT] >= 1

    def test_invalid_updates_not_propagated(self):
        """Correct nodes ignore (and never flood) provably bad updates."""
        net = OverlayNetwork.build(ring(4), PACED)
        RoutingWeightAttack(net, attacker=2).launch()
        net.run(2.0)
        results_far = net.node(4).routing.results
        assert all(count == 0 for count in results_far.values())


class TestAckSpam:
    def test_forged_acks_rejected_and_flow_unharmed(self):
        net = OverlayNetwork.build(ring(4), PACED)
        victim = ReliableBacklogTraffic(net, 1, 3, count=60)
        victim.start()
        spam = E2eAckSpamAttack(net, attacker=2, victim_dest=3, interval=0.05)
        spam.start()
        net.run(20.0)
        spam.stop()
        net.run(10.0)
        assert net.delivered_count(1, 3) == 60
        # Forged acks were rejected at signature verification.
        assert net.node(1).invalid_messages_rejected > 0

    def test_own_identity_acks_rate_limited(self):
        net = OverlayNetwork.build(ring(4), PACED)
        spam = E2eAckSpamAttack(net, attacker=2, victim_dest=3, interval=0.01)
        spam.start()
        net.run(3.0)
        spam.stop()
        # Correct nodes saw many, forwarded few: the attacker's identical
        # no-progress acks die one hop out.
        rejected = net.node(1).reliable.acks_rejected
        assert rejected > 10


class TestReplayAttack:
    def test_replays_do_not_duplicate_deliveries(self):
        net = OverlayNetwork.build(ring(4), PACED)
        attack = ReplayAttack(net, attacker=2, copies=2)
        net.compromise(2, attack.capture_behavior())
        for _ in range(10):
            net.client(1).send_priority(3)
        net.run(3.0)
        replayed = attack.replay_all()
        net.run(3.0)
        assert replayed > 0
        assert net.delivered_count(1, 3) == 10


class TestCrashSchedule:
    def test_scripted_crash_and_recovery(self):
        net = OverlayNetwork.build(clique(4), PACED)
        schedule = CrashSchedule(
            net, [CrashEvent(at=1.0, node=2, recover_at=3.0)]
        )
        schedule.arm()
        net.run(2.0)
        assert net.node(2).crashed
        net.run(2.0)
        assert not net.node(2).crashed


class TestPriorityTampering:
    """A Byzantine relay escalating the priority field of messages it
    forwards.  ``Message`` is frozen, so the attacker must rebuild the
    dataclass — but priority is a signed field, so every tampered copy
    fails verification at the next honest hop and is counted, not
    delivered."""

    class _EscalatingRelay:
        """Rewrites every forwarded data message to priority 10."""

        def __init__(self):
            self.tampered = 0

        def filter_incoming(self, payload, neighbor, node):
            return payload

        def filter_outgoing(self, payload, neighbor, node):
            import dataclasses

            from repro.messaging.message import Message

            if isinstance(payload, Message) and payload.source != node.node_id:
                self.tampered += 1
                # The old signature rides along — and no longer matches.
                return dataclasses.replace(payload, priority=10)
            return payload

    def test_tampered_priority_is_rejected_not_delivered(self):
        net = OverlayNetwork.build(ring(4), PACED, seed=2)
        # Compromise both relays on the 1 -> 3 ring so no honest copy
        # survives; every copy reaching 3 has a broken signature.
        relays = {}
        for attacker in (2, 4):
            behavior = self._EscalatingRelay()
            relays[attacker] = behavior
            net.compromise(attacker, behavior)
        for _ in range(5):
            net.client(1).send_priority(3, priority=2)
        net.run(5.0)
        assert sum(b.tampered for b in relays.values()) > 0
        assert net.delivered_count(1, 3) == 0
        assert net.node(3).invalid_messages_rejected > 0

    def test_honest_relay_preserves_delivery_under_partial_tampering(self):
        net = OverlayNetwork.build(ring(4), PACED, seed=2)
        # Only one of the two disjoint ring paths is compromised: the
        # honest copy still arrives, the tampered one is discarded.
        behavior = self._EscalatingRelay()
        net.compromise(2, behavior)
        for _ in range(5):
            net.client(1).send_priority(3, priority=2)
        net.run(5.0)
        assert behavior.tampered > 0
        assert net.delivered_count(1, 3) == 5
        # Delivered copies kept their original (signed) priority.
        recorder = net.stats.series("priority-count:1->3:2")
        assert len(recorder.samples) == 5


class TestPayloadTampering:
    """A Byzantine relay substituting the application payload.  The uid
    is unchanged, so before the payload was signed whichever copy reached
    the destination first won dedup and was delivered."""

    class _SwappingRelay:
        def __init__(self):
            self.tampered = 0

        def filter_incoming(self, payload, neighbor, node):
            return payload

        def filter_outgoing(self, payload, neighbor, node):
            import dataclasses

            from repro.messaging.message import Message

            if isinstance(payload, Message) and payload.source != node.node_id:
                self.tampered += 1
                return dataclasses.replace(payload, payload=b"EVIL")
            return payload

    def test_tampered_payload_is_rejected_at_the_next_honest_hop(self):
        net = OverlayNetwork.build(ring(4), PACED, seed=2)
        relays = {}
        for attacker in (2, 4):  # both relays of the 1 -> 3 ring
            relays[attacker] = self._SwappingRelay()
            net.compromise(attacker, relays[attacker])
        delivered = []
        net.node(3).on_deliver = delivered.append
        for _ in range(5):
            net.client(1).send_priority(3, payload=b"genuine")
        net.run(5.0)
        assert sum(b.tampered for b in relays.values()) > 0
        assert delivered == []
        assert net.node(3).invalid_messages_rejected > 0
        assert net.stats.counter("invalid_signatures").value > 0

    def test_the_honest_copy_is_the_one_delivered(self):
        net = OverlayNetwork.build(ring(4), PACED, seed=2)
        behavior = self._SwappingRelay()
        net.compromise(2, behavior)
        delivered = []
        net.node(3).on_deliver = delivered.append
        for _ in range(5):
            net.client(1).send_priority(3, payload=b"genuine")
        net.run(5.0)
        assert behavior.tampered > 0
        assert [m.payload for m in delivered] == [b"genuine"] * 5
        assert net.stats.counter("invalid_signatures").value > 0


class TestLiveFloodUnderReplay:
    """Constrained flooding on the live substrate decides a forward once
    per receive wakeup, skipping neighbours heard sending the message
    meanwhile.  The cheapest way to abuse that is to replay every flooded
    message to everybody at once; it must cost nothing but the
    replayer's own copy."""

    REPLAYER, DROPPER = 4, 9

    def test_replayer_and_dropper_cannot_stop_delivery_between_correct_nodes(self):
        import asyncio

        from repro.byzantine.behaviors import Behavior, DroppingBehavior
        from repro.messaging.message import Message
        from repro.runtime.live import LiveConfig, LiveDeployment

        class ReplayToAll(Behavior):
            """Hand every flooded message straight back out on every link
            (valid copies), then process it as usual."""

            def __init__(self):
                self.replayed = 0

            def filter_incoming(self, payload, neighbor, node):
                if isinstance(payload, Message) and payload.flooding:
                    size = payload.wire_size(node.signature_size)
                    for link in node.links.values():
                        link.enqueue_control(payload, size, raw=True)
                        link.pump()
                        self.replayed += 1
                return payload

        flows = [(1, 7), (7, 1), (2, 11), (12, 6)]
        per_flow = 25

        async def check():
            deployment = LiveDeployment(
                LiveConfig(nodes=12, duration=5.0, seed=11, flow_traffic=False)
            )
            await deployment.start()
            try:
                replay = ReplayToAll()
                deployment.node(self.REPLAYER).behavior = replay
                deployment.node(self.DROPPER).behavior = DroppingBehavior()
                # Watch an honest neighbour of the replayer: which verified
                # copies it heard from whom, and whom each forward skipped.
                honest = deployment.node(self.REPLAYER + 1)
                assert self.REPLAYER in honest.links
                heard, forwards = {}, []
                handle, forward = honest.priority.handle, honest.priority._forward

                def spy_handle(message, from_neighbor):
                    heard.setdefault(message.uid, set()).add(from_neighbor)
                    handle(message, from_neighbor)

                def spy_forward(message, from_neighbor, now=None, has_it=None):
                    forwards.append(
                        (message.uid, from_neighbor, set(has_it or ()),
                         set(heard[message.uid]))
                    )
                    forward(message, from_neighbor, now, has_it)

                honest.priority.handle = spy_handle
                honest.priority._forward = spy_forward
                for _ in range(per_flow):
                    for source, dest in flows:
                        deployment.node(source).send_priority(dest, size_bytes=200)
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.5)
            finally:
                await deployment.stop()
            return deployment, replay, forwards

        deployment, replay, forwards = asyncio.run(check())
        assert replay.replayed > 0
        for source, dest in flows:
            recorder = deployment.processes[dest].stats.latency(
                f"latency:{source}->{dest}"
            )
            assert recorder.count == per_flow, (source, dest, recorder.count)
        # Every message reached the honest neighbour and was forwarded
        # once; a neighbour was skipped only because it had itself sent a
        # verified copy -- so the replayer took nobody but itself off a
        # target list -- and the replayer's haste did show up.
        assert len(forwards) == len({uid for uid, *_ in forwards})
        assert len(forwards) == per_flow * len(flows)
        for uid, from_neighbor, skipped, senders in forwards:
            assert skipped <= senders - {from_neighbor}, (uid, skipped, senders)
        assert any(self.REPLAYER in skipped for _, _, skipped, _ in forwards)
        assert not deployment.report().runtime_errors
