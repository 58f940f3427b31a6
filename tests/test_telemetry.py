"""Unit and integration tests for the telemetry subsystem."""

import json
import time

import pytest

from repro.cli import main
from repro.sim.engine import Simulator
from repro.sim.stats import SAMPLE_CAP, LatencyRecorder, StatsRegistry, TimeSeries
from repro.telemetry.profiling import EventLoopProfiler, payload_kind
from repro.telemetry.report import build_report, flatten, to_csv
from repro.telemetry.tracing import TraceCollector


class TestMetricsRegistry:
    """The run's one metrics registry, :class:`StatsRegistry`."""

    def test_instruments_created_once(self):
        registry = StatsRegistry(Simulator())
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.latency("h") is registry.latency("h")
        assert registry.series("s") is registry.series("s")

    def test_counter_values_sorted(self):
        registry = StatsRegistry(Simulator())
        registry.counter("zebra").add(1)
        registry.counter("alpha").add(2)
        assert list(registry.counters()) == ["alpha", "zebra"]

    def test_gauge_set_and_add(self):
        registry = StatsRegistry(Simulator())
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert registry.snapshot()["gauges"]["depth"] == 3.0

    def test_snapshot_shape(self):
        registry = StatsRegistry(Simulator())
        registry.counter("c").add(3)
        registry.latency("h").record(0.0, 1.0)
        registry.series("s").record(0.0, 1.0)
        snap = registry.snapshot()
        assert set(snap) == {
            "counters", "gauges", "goodput", "latency", "sim_series", "message_types",
        }
        assert snap["counters"] == {"c": 3}
        assert snap["latency"]["h"]["count"] == 1
        assert snap["sim_series"]["s"]["samples"] == 1
        json.dumps(snap)  # must be JSON-serializable as-is


def _past_the_cap(values):
    """A recorder holding ``values`` repeated until it has evicted samples."""
    rec = LatencyRecorder()
    for i in range(SAMPLE_CAP + len(values)):
        rec.record(float(i), values[i % len(values)])
    assert rec.count > len(rec.samples) == SAMPLE_CAP
    return rec


class TestHistogram:
    """Past :data:`SAMPLE_CAP`, percentiles come from half-decade buckets."""

    def test_percentile_bounds(self):
        rec = _past_the_cap([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            rec.percentile(101.0)
        with pytest.raises(ValueError):
            rec.percentile(-1.0)
        assert rec.percentile(0.0) == 1.0
        assert rec.percentile(100.0) == 3.0

    def test_percentile_stays_within_observed_range(self):
        rec = _past_the_cap([0.2, 0.3, 0.4, 0.5])
        for p in (10.0, 50.0, 90.0, 99.0):
            assert 0.2 <= rec.percentile(p) <= 0.5

    def test_empty_snapshot(self):
        registry = StatsRegistry(Simulator())
        registry.latency("h")
        assert registry.snapshot()["latency"]["h"]["count"] == 0

    def test_streaming_summary(self):
        # 1.0 and 3.0 alternate, so an exact value exists for each statistic.
        rec = _past_the_cap([1.0, 3.0])
        assert rec.count == SAMPLE_CAP + 2
        assert rec.total == 2.0 * rec.count
        assert rec.maximum() == 3.0
        assert rec.percentile(0.0) == 1.0
        assert rec.mean() == 2.0


class TestBoundedTimeSeries:
    def test_eviction_is_bounded_and_counted(self):
        series = TimeSeries("s")
        for i in range(SAMPLE_CAP + 6):
            series.record(float(i), float(i))
        assert len(series.samples) == SAMPLE_CAP
        assert series.count - len(series.samples) == 6
        assert [t for t, _ in series.samples][:2] == [6.0, 7.0]
        assert series.samples[-1] == (SAMPLE_CAP + 5.0, SAMPLE_CAP + 5.0)

    def test_registry_series_maxlen(self):
        registry = StatsRegistry(Simulator())
        series = registry.series("s")
        for i in range(SAMPLE_CAP + 5):
            series.record(float(i), 1.0)
        assert len(series.samples) == SAMPLE_CAP
        assert series.samples.maxlen == SAMPLE_CAP


class TestTracing:
    def test_disabled_event_records_nothing(self):
        collector = TraceCollector()
        collector.event(1.0, "x")
        assert collector.events == []

    def test_enabled_events(self):
        collector = TraceCollector()
        collector.enable()
        collector.event(1.0, "fault", "detail")
        collector.event(2.0, "fault")
        assert collector.event_summary() == {"fault": 2}
        assert collector.events == [(1.0, "fault", "detail"), (2.0, "fault", "")]

    def test_bounded_records(self):
        collector = TraceCollector(max_records=2)
        collector.enable()
        for i in range(5):
            collector.event(float(i), "e")
        assert len(collector.events) == 2
        assert collector.dropped == 3

    def test_disabled_overhead_is_negligible(self):
        # The near-zero-overhead contract: a trace call on a disabled
        # collector must cost no more than a handful of attribute checks.
        # Generous bound (5x a bare loop) so CI scheduling noise can't
        # flake this, while still catching accidental allocation on the
        # disabled path.
        collector = TraceCollector()
        iterations = 50_000

        def baseline():
            start = time.perf_counter()
            for _ in range(iterations):
                pass
            return time.perf_counter() - start

        def traced():
            start = time.perf_counter()
            for _ in range(iterations):
                collector.event(0.0, "x")
            return time.perf_counter() - start

        base = min(baseline() for _ in range(3))
        cost = min(traced() for _ in range(3))
        assert cost < max(5 * base, 0.05)


class TestEventLoopProfiler:
    def test_simulator_profiling_records_callbacks(self):
        sim = Simulator()
        profiler = sim.enable_profiling()

        def tick():
            pass

        for i in range(5):
            sim.schedule(float(i), tick)
        sim.run()
        snap = profiler.snapshot()
        [(key, cell)] = snap.items()
        assert "tick" in key
        assert cell["count"] == 5
        assert sim.profiler is profiler

    def test_snapshot_ranked_by_total_time(self):
        profiler = EventLoopProfiler()
        profiler.record("cheap", 0.001)
        profiler.record("dear", 0.5)
        profiler.record("cheap", 0.001)
        assert list(profiler.snapshot()) == ["dear", "cheap"]

    def test_payload_kind_classification(self):
        from repro.messaging.message import (
            E2eAck,
            Hello,
            Message,
            NeighborAck,
            Semantics,
        )

        msg = Message(source=1, dest=2, seq=1, semantics=Semantics.PRIORITY)
        assert payload_kind(msg) == "priority"
        msg_r = Message(source=1, dest=2, seq=1, semantics=Semantics.RELIABLE)
        assert payload_kind(msg_r) == "reliable"
        assert payload_kind(Hello(1, 1)) == "hello"
        assert payload_kind(E2eAck(dest=2, stamp=1, cumulative=())) == "e2e_ack"
        assert payload_kind(NeighborAck(sender=1, entries=())) == "neighbor_ack"
        assert payload_kind(object()) == "object"


def _run_deployment(seconds=2.0, seed=3):
    from repro.topology import global_cloud
    from repro.workloads.experiment import Deployment

    deployment = Deployment(seed=seed)
    flows = global_cloud.EVALUATION_FLOWS[:2]
    for source, dest in flows:
        deployment.add_flow(source, dest, rate_fraction=0.3)
    deployment.run(seconds)
    return deployment, flows


class TestEndToEnd:
    def test_snapshot_is_deterministic_across_same_seed_runs(self):
        first, flows = _run_deployment()
        second, _ = _run_deployment()
        snap_a = first.network.stats.snapshot()
        snap_b = second.network.stats.snapshot()
        assert json.dumps(snap_a, sort_keys=True) == json.dumps(
            snap_b, sort_keys=True
        )
        # The snapshot carries the per-message-type and crypto accounting
        # the stats CLI promises.
        counters = snap_a["counters"]
        assert counters["crypto.sign"] > 0
        assert counters["crypto.verify"] > 0
        assert counters["crypto.mac_sign"] > 0
        assert snap_a["message_types"]["priority"]["messages"] > 0
        assert snap_a["message_types"]["hello"]["bytes"] > 0

    def test_report_builder(self):
        deployment, flows = _run_deployment()
        report = build_report(
            deployment, flows, params={"seed": 3}, include_profile=True
        )
        assert report["params"] == {"seed": 3}
        assert len(report["flows"]) == 2
        for entry in report["flows"]:
            assert entry["delivered"] > 0
            assert entry["latency"]["p50"] <= entry["latency"]["p99"]
        assert report["dissemination_cost"] > 0
        assert report["profile"]["event_loop"] == {}  # profiling never enabled
        json.dumps(report)

    def test_flatten_and_csv(self):
        payload = {"b": {"x": 1}, "a": [10, {"y": None}], "c": 'quote"me'}
        flat = flatten(payload)
        assert flat == [
            ("a.0", 10),
            ("a.1.y", None),
            ("b.x", 1),
            ("c", 'quote"me'),
        ]
        csv_text = to_csv(payload)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "key,value"
        assert lines[1] == "a.0,10"
        assert lines[2] == "a.1.y,"
        assert lines[4] == 'c,"quote""me"'

    def test_cli_round_trip_matches_in_process_registry(self, capsys):
        args = ["stats", "--seed", "3", "--seconds", "2", "--flows", "2",
                "--rate", "0.3"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        deployment, _ = _run_deployment(seconds=2.0, seed=3)
        in_process = deployment.network.stats.snapshot()
        assert report["stats"]["counters"] == in_process["counters"]
        assert report["stats"]["message_types"] == in_process["message_types"]
        assert report["params"]["semantics"] == "priority"
        assert "profile" not in report  # deterministic by default

    def test_cli_csv_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        args = ["stats", "--seed", "3", "--seconds", "1", "--flows", "1",
                "--format", "csv", "--output", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("stats.counters.crypto.sign,") for line in lines)

    def test_cli_trace_includes_event_summary(self, capsys):
        args = ["stats", "--seed", "3", "--seconds", "1", "--flows", "1",
                "--trace"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"]["enabled"] is True
