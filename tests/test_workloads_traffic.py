"""Unit tests for the traffic generators (workloads/traffic.py).

The generators are the offered-load side of every figure benchmark and
of the live deployment (CbrTraffic is duck-typed over ``.sim`` /
``.node()``), so their rate accounting, back-pressure behavior, and the
exact-count injection used by the sim-vs-live conformance test all get
direct coverage here.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.messaging.message import Semantics
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators
from repro.workloads.traffic import CbrTraffic
from tests.fixtures import ReliableBacklogTraffic

SIZE = 500


def _net(seed=0):
    return OverlayNetwork.build(
        generators.clique(2), OverlayConfig(link_bandwidth_bps=None), seed=seed
    )


def _cbr(net, rate_msgs_per_sec=20.0, **kwargs):
    kwargs.setdefault("size_bytes", SIZE)
    return CbrTraffic(
        net, 1, 2, rate_bps=rate_msgs_per_sec * SIZE * 8.0, **kwargs
    )


# ----------------------------------------------------------------------
# CbrTraffic
# ----------------------------------------------------------------------
def test_cbr_rejects_bad_parameters():
    net = _net()
    with pytest.raises(ConfigurationError):
        CbrTraffic(net, 1, 2, rate_bps=0.0)
    with pytest.raises(ConfigurationError):
        CbrTraffic(net, 1, 2, rate_bps=1000.0, max_messages=0)


def test_cbr_offers_the_configured_rate():
    net = _net()
    traffic = _cbr(net, rate_msgs_per_sec=20.0)
    traffic.start()
    net.sim.run(until=2.0)
    # 20 msg/s for 2 s; the credit model may be one tick shy.
    assert 35 <= traffic.messages_sent <= 40


def test_cbr_priority_credit_does_not_accumulate_while_stopped():
    net = _net()
    traffic = _cbr(net, rate_msgs_per_sec=10.0)
    # Start late: a UDP-like sender gets no retroactive credit for the
    # idle interval (burst is capped at one message's worth).
    traffic.schedule(start_at=5.0, stop_at=6.0)
    net.sim.run(until=10.0)
    assert 1 <= traffic.messages_sent <= 12


def test_cbr_max_messages_stops_injection_exactly():
    net = _net()
    traffic = _cbr(net, rate_msgs_per_sec=50.0, max_messages=7)
    traffic.start()
    delivered = []
    net.node(2).delivery_observers.append(lambda m, n: delivered.append(m.seq))
    net.sim.run(until=5.0)
    assert traffic.messages_sent == 7
    assert traffic.running is False
    assert len(delivered) == 7


def test_cbr_reliable_semantics_deliver_in_order():
    net = _net()
    traffic = _cbr(
        net, rate_msgs_per_sec=50.0, semantics=Semantics.RELIABLE, max_messages=9
    )
    traffic.start()
    delivered = []
    net.node(2).delivery_observers.append(lambda m, n: delivered.append(m.seq))
    net.sim.run(until=5.0)
    assert traffic.messages_sent == 9
    assert delivered == sorted(delivered)
    assert len(delivered) == 9


def test_cbr_pauses_while_source_is_crashed():
    net = _net()
    traffic = _cbr(net, rate_msgs_per_sec=20.0)
    traffic.start()
    net.sim.run(until=1.0)
    sent_before = traffic.messages_sent
    net.crash(1)
    net.sim.run(until=3.0)
    assert traffic.messages_sent == sent_before


def test_cbr_priority_cycle_round_robins_levels():
    net = _net()
    traffic = _cbr(net, rate_msgs_per_sec=30.0, priority_cycle=[1, 5, 10])
    traffic.start()
    seen = []
    net.node(2).delivery_observers.append(lambda m, n: seen.append(m.priority))
    net.sim.run(until=1.0)
    assert len(seen) >= 6
    assert seen[:6] == [1, 5, 10, 1, 5, 10]


# ----------------------------------------------------------------------
# ReliableBacklogTraffic
# ----------------------------------------------------------------------
def test_reliable_backlog_sends_exactly_count():
    net = _net()
    traffic = ReliableBacklogTraffic(net, 1, 2, count=25, size_bytes=SIZE)
    delivered = []
    net.node(2).delivery_observers.append(lambda m, n: delivered.append(m.seq))
    traffic.start()
    assert not traffic.done or traffic.sent == 25
    net.sim.run(until=10.0)
    assert traffic.done
    assert traffic.sent == 25
    assert delivered == sorted(delivered)
    assert len(delivered) == 25
