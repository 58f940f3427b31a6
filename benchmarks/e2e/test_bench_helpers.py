"""Unit tests of the benchmark's pure helpers, plus one ``--quick`` smoke.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 ``testpaths`` does not
include this directory).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from array import array

import pytest

from benchmarks.e2e import helpers
from benchmarks.e2e.generators import ClosedLoop
from benchmarks.e2e.helpers import Slice, SlotTable
from benchmarks.e2e.trace import LAYERS, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Slice normalisation
# ----------------------------------------------------------------------
def test_calib_burst_reports_speed_and_duration():
    speed, seconds = helpers.calib_burst(2_000)
    assert speed > 0 and seconds > 0
    assert speed == pytest.approx(2_000 / seconds)


def test_slices_are_scaled_by_their_own_machine_speed():
    # The same work measured on a machine at 10 M and at 20 M ops/s: the fast
    # slice delivers twice as much in half the CPU per message.
    slow = Slice(wall_s=1.0, cpu_s=1.0, delivered=1000, calib_ops_per_s=1e7,
                 latencies_s=[0.004] * 10)
    fast = Slice(wall_s=1.0, cpu_s=1.0, delivered=2000, calib_ops_per_s=2e7,
                 latencies_s=[0.002] * 10)
    summary = helpers.summarise_slices([slow, fast])
    assert summary["goodput"] == pytest.approx(1000.0)
    assert summary["cpu_us_per_msg"] == pytest.approx(1000.0)
    assert summary["latency_p50_ms"] == pytest.approx(4.0)
    # Raw figures pool the slices as measured.
    assert summary["goodput_raw"] == pytest.approx(1500.0)
    assert summary["cpu_us_per_msg_raw"] == pytest.approx(2e6 / 3000)
    assert summary["cpu_utilisation"] == pytest.approx(1.0)
    assert summary["latency_samples"] == 20


def test_median_over_slices_ignores_one_disturbed_slice():
    good = [Slice(1.0, 1.0, 1000, 1e7) for _ in range(4)]
    disturbed = Slice(1.0, 1.0, 400, 1e7)
    summary = helpers.summarise_slices(good + [disturbed])
    assert summary["goodput"] == pytest.approx(1000.0)


def test_simulated_latencies_are_not_scaled():
    slices = [Slice(1.0, 1.0, 10, 2e7, latencies_s=[0.05] * 10)]
    assert helpers.summarise_slices(slices, scale_latency=False)["latency_p50_ms"] == (
        pytest.approx(50.0)
    )
    assert helpers.summarise_slices(slices)["latency_p50_ms"] == pytest.approx(100.0)


def test_value_at_interpolates_and_reports_whether_reached():
    points = [(0, 30.0), (1000, 40.0), (3000, 50.0)]
    assert helpers.value_at(points, 500) == (35.0, True)
    assert helpers.value_at(points, 2000) == (45.0, True)
    assert helpers.value_at(points, 0) == (30.0, True)
    assert helpers.value_at(points, 5000) == (50.0, False)  # not reached: last value


# ----------------------------------------------------------------------
# Percentiles and the "ten samples beyond" rule
# ----------------------------------------------------------------------
def test_percentile_interpolates_and_validates():
    ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert helpers.percentile(ordered, 0) == 1.0
    assert helpers.percentile(ordered, 50) == 3.0
    assert helpers.percentile(ordered, 100) == 5.0
    assert helpers.percentile(ordered, 62.5) == pytest.approx(3.5)
    with pytest.raises(ValueError):
        helpers.percentile([], 50)
    with pytest.raises(ValueError):
        helpers.percentile(ordered, 101)


def test_pooled_percentiles_use_every_slice():
    (p50, p100), count = helpers.pooled_percentiles([[1.0, 2.0], [], [3.0, 4.0, 5.0]], (50, 100))
    assert (p50, p100, count) == (3.0, 5.0, 5)
    assert helpers.pooled_percentiles([[], []], (50,)) == ([0.0], 0)


def test_ten_samples_beyond_rule():
    assert helpers.tail_supported(1000, 99.0)
    assert not helpers.tail_supported(999, 99.0)
    assert helpers.tail_supported(2400, 99.0)  # cloud_paced: 24 beyond p99
    assert helpers.tail_supported(100, 90.0) and not helpers.tail_supported(99, 90.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_span_self_time_is_duration_minus_direct_children():
    # root(0..100, layer 0) > child(10..40, layer 1) > grandchild(20..30, layer 2)
    #                       > child(50..70, layer 1);   second root(200..210, layer 2)
    starts = [0, 10, 20, 50, 200]
    ends = [100, 40, 30, 70, 210]
    parents = [-1, 0, 1, 0, -1]
    layers = [0, 1, 2, 1, 2]
    calls, self_time, root_time = helpers.span_self_times(
        starts, ends, parents, layers, count=5, layer_count=3
    )
    assert calls == [1, 2, 2]
    assert self_time == [100 - 30 - 20, (30 - 10) + 20, 10 + 10]
    assert root_time == 110
    assert sum(self_time) == root_time


def test_tracer_records_nested_spans_and_restores_on_uninstall():
    class Toy:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer(capacity=16)
    tracer.install_methods(Toy, ("outer",), layer="overlay.node")
    tracer.install_methods(Toy, ("inner",), layer="link.por")
    toy = Toy()
    assert toy.outer() == 2 and tracer.span_count == 0  # not recording yet
    tracer.resume()
    assert toy.outer() == 2
    tracer.pause()
    assert tracer.span_count == 2
    assert list(tracer.parents[:2]) == [-1, 0]
    assert [LAYERS[i] for i in tracer.layers[:2]] == ["overlay.node", "link.por"]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]
    budget = tracer.budget(traced_cpu_s=1e-3, delivered=1)
    assert budget["rows"]["overlay.node"]["calls_per_msg"] == 1.0
    assert not budget["overflowed"]
    tracer.uninstall()
    assert "shim" not in Toy.outer.__qualname__ and Toy().outer() == 2
    assert tracer.span_count == 2


def test_tracer_overflow_is_flagged_not_fatal():
    tracer = Tracer(capacity=1)
    fn = tracer.wrap(lambda: 7, "crypto")
    tracer.resume()
    assert fn() == 7 and fn() == 7
    tracer.pause()
    assert tracer.span_count == 1
    assert tracer.budget(1e-3, 1)["overflowed"]


def test_tracer_arrays_are_preallocated():
    tracer = Tracer(capacity=8)
    assert isinstance(tracer.starts, array) and len(tracer.starts) == 8


# ----------------------------------------------------------------------
# Closed-loop slots
# ----------------------------------------------------------------------
def test_slot_table_expires_oldest_first_and_remembers_late_keys():
    slots = SlotTable(timeout_s=2.0)
    slots.issue("a", now=0.0, value=1)
    slots.issue("b", now=1.0, value=2)
    slots.issue("c", now=2.5, value=3)
    with pytest.raises(KeyError):
        slots.issue("a", now=2.6)
    assert slots.expire(now=2.9) == [("a", 1)]
    assert slots.complete("a") is None and "a" in slots.expired_keys
    assert slots.complete("b") == (1.0, 2)
    assert slots.complete("b") is None and "b" not in slots.expired_keys
    assert len(slots) == 1
    assert slots.expire(now=10.0) == [("c", 3)]


class _FakeMessage:
    def __init__(self, source, dest, seq, payload=None):
        self.source, self.dest, self.seq, self.payload = source, dest, seq, payload


class _FakeNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.sent = []
        self.on_deliver = None

    def send_priority(self, dest, size_bytes, method, payload):
        message = _FakeMessage(self.node_id, dest, len(self.sent) + 1, payload)
        self.sent.append(message)
        return message


def test_closed_loop_refills_on_delivery_and_reissues_timed_out_slots():
    nodes = {1: _FakeNode(1), 2: _FakeNode(2)}
    now = [0.0]
    loop = ClosedLoop(nodes.__getitem__, [(1, 2)], None, 64, window=3, payloads=None)
    loop.clock = lambda: now[0]
    loop.start()
    assert len(nodes[1].sent) == 3 and nodes[2].on_deliver == loop.on_deliver
    loop.open_slice()
    now[0] = 0.5
    nodes[2].on_deliver(nodes[1].sent[0])
    assert (loop.delivered, len(nodes[1].sent), len(loop.slots)) == (1, 4, 3)
    nodes[2].on_deliver(nodes[1].sent[0])  # a second copy is an oracle violation
    assert loop.unexpected_deliveries == 1
    # The two messages sent at t=0 never arrive: at t=2.1 they count as
    # failed and are re-issued, so the window is back to three.
    now[0] = 2.1
    loop.sweep()
    assert (loop.timed_out, len(nodes[1].sent), len(loop.slots)) == (2, 6, 3)
    nodes[2].on_deliver(nodes[1].sent[1])  # late, already failed: not a duplicate
    assert loop.unexpected_deliveries == 1 and loop.delivered == 1
    delivered, latencies = loop.close_slice()
    assert delivered == 1 and latencies == [0.5]
    loop.stop()
    nodes[2].on_deliver(nodes[1].sent[3])
    assert len(nodes[1].sent) == 6  # stopped: no refill


# ----------------------------------------------------------------------
# Comparing runs
# ----------------------------------------------------------------------
def test_worse_by_respects_direction():
    assert helpers.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert helpers.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert helpers.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        helpers.worse_by(1.0, 1.0, "bigger")


# ----------------------------------------------------------------------
# BENCHMARK.json and the runner agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_workloads_and_metrics_the_runner_emits():
    from benchmarks.e2e.run import E2E_METRICS
    from benchmarks.e2e.workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in WORKLOADS]
    assert sorted(m["name"] for m in declared["end_to_end"]) == sorted(E2E_METRICS)
    assert declared["paths"] == ["benchmarks/e2e"]
    assert all(m["bound"] <= 0.25 for m in declared["end_to_end"])
    per_layer = {m["name"] for m in declared["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls_per_msg", f"{layer}.self_us_per_msg"} <= per_layer


def test_quick_smoke_runs_every_workload():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for name in ("link_small", "cloud_kpaths", "cloud_flood", "cloud_reliable",
                 "cloud_paced", "sim_cloud"):
        assert f"== {name} " in done.stdout
    assert "oracle: pass" in done.stdout.splitlines()[-1]
