"""Unit tests for measurement primitives."""

from bisect import bisect_left

import pytest

from repro.messaging.message import Message, Semantics
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.stats import (
    BUCKET_BOUNDS,
    SAMPLE_CAP,
    GoodputMeter,
    LatencyRecorder,
    StatsRegistry,
    TimeSeries,
)
from repro.telemetry.report import _downtime_section
from repro.topology.generators import ring


class TestGoodputMeter:
    def test_series_buckets_bytes(self):
        sim = Simulator()
        meter = GoodputMeter(sim, interval=1.0)
        sim.schedule(0.5, meter.record, 125_000)   # 1 Mbit in bucket 0
        sim.schedule(1.5, meter.record, 250_000)   # 2 Mbit in bucket 1
        sim.run(until=3.0)
        series = meter.series(0.0, 3.0)
        assert series == [(0.0, pytest.approx(1.0)), (1.0, pytest.approx(2.0)), (2.0, 0.0)]

    def test_average_mbps(self):
        sim = Simulator()
        meter = GoodputMeter(sim, interval=1.0)
        sim.schedule(0.1, meter.record, 125_000)
        sim.schedule(1.1, meter.record, 125_000)
        sim.run(until=2.0)
        assert meter.average_mbps(0.0, 2.0) == pytest.approx(1.0)
        assert meter.average_mbps(5.0, 5.0) == 0.0

    def test_total_and_first_last(self):
        sim = Simulator()
        meter = GoodputMeter(sim)
        sim.schedule(2.0, meter.record, 10)
        sim.schedule(4.0, meter.record, 20)
        sim.run()
        assert meter.total_bytes == 30
        assert meter.first_time == 2.0
        assert meter.last_time == 4.0

    def test_average_prorates_partial_boundary_buckets(self):
        # Regression: a window starting mid-bucket used to inherit the
        # whole boundary bucket's bytes, overstating Mbps by up to
        # interval / (end - start).
        sim = Simulator()
        meter = GoodputMeter(sim, interval=1.0)
        sim.schedule(0.25, meter.record, 125_000)  # 1 Mbit, all in bucket 0
        sim.run(until=2.0)
        # [0.5, 1.5) overlaps half of bucket 0: half the bytes, 1 second.
        assert meter.average_mbps(0.5, 1.5) == pytest.approx(0.5)
        # The aligned window still sees everything.
        assert meter.average_mbps(0.0, 1.0) == pytest.approx(1.0)
        # A window wholly inside bucket 0 gets the bucket's average rate.
        assert meter.average_mbps(0.25, 0.75) == pytest.approx(1.0)

    def test_series_clamps_labels_to_window(self):
        sim = Simulator()
        meter = GoodputMeter(sim, interval=1.0)
        sim.schedule(0.25, meter.record, 125_000)
        sim.run(until=3.0)
        series = meter.series(0.5, 2.0)
        # The first point is labelled at the window start, not bucket 0's
        # start; boundary buckets report their average rate.
        assert series == [(0.5, pytest.approx(1.0)), (1.0, 0.0)]

    def test_empty_and_inverted_windows(self):
        sim = Simulator()
        meter = GoodputMeter(sim, interval=1.0)
        sim.schedule(0.5, meter.record, 1000)
        sim.run(until=1.0)
        assert meter.series(2.0, 2.0) == []
        assert meter.series(3.0, 1.0) == []
        assert meter.average_mbps(3.0, 1.0) == 0.0


class TestLatencyRecorder:
    def test_summary_statistics(self):
        rec = LatencyRecorder()
        for i, lat in enumerate([0.010, 0.020, 0.030, 0.040]):
            rec.record(float(i), lat)
        assert rec.count == 4
        assert rec.mean() == pytest.approx(0.025)
        assert rec.maximum() == pytest.approx(0.040)
        assert rec.percentile(0) == pytest.approx(0.010)
        assert rec.percentile(100) == pytest.approx(0.040)
        assert rec.percentile(50) == pytest.approx(0.025)

    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.mean() == 0.0
        assert rec.percentile(50) == 0.0
        assert rec.maximum() == 0.0

    def test_single_sample_percentile(self):
        rec = LatencyRecorder()
        rec.record(0.0, 0.5)
        assert rec.percentile(99) == 0.5

    def test_percentile_out_of_range_rejected(self):
        rec = LatencyRecorder()
        rec.record(0.0, 0.5)
        with pytest.raises(ValueError):
            rec.percentile(-0.1)
        with pytest.raises(ValueError):
            rec.percentile(100.1)

    def test_boundary_percentiles_are_exact(self):
        # p=0 / p=100 must return the observed extremes bit-exactly (no
        # interpolation arithmetic that could perturb the last ulp).
        rec = LatencyRecorder()
        values = [0.1 + i * 0.0305175781251 for i in range(7)]
        for i, v in enumerate(values):
            rec.record(float(i), v)
        assert rec.percentile(0.0) == min(values)
        assert rec.percentile(100.0) == max(values)

    def test_sorted_cache_invalidated_by_record(self):
        # Regression: percentile() used to re-sort on every call; the
        # cached sorted view must still see samples recorded after a query.
        rec = LatencyRecorder()
        rec.record(0.0, 0.030)
        rec.record(1.0, 0.010)
        assert rec.percentile(100.0) == pytest.approx(0.030)
        rec.record(2.0, 0.050)  # must invalidate the cached sort
        assert rec.percentile(100.0) == pytest.approx(0.050)
        assert rec.percentile(0.0) == pytest.approx(0.010)
        assert rec.maximum() == pytest.approx(0.050)

    def test_percentile_reuses_sorted_view(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(float(i), float(i % 10))
        rec.percentile(50.0)
        cached = rec._sorted
        assert cached is not None
        rec.percentile(90.0)
        assert rec._sorted is cached  # no re-sort between queries
        rec.record(100.0, 99.0)
        assert rec._sorted is None  # invalidated


class TestTimeSeriesAndRegistry:
    def test_time_series(self):
        ts = TimeSeries("x")
        ts.record(1.0, 10.0)
        ts.record(2.0, 20.0)
        assert [t for t, _ in ts.samples] == [1.0, 2.0]
        assert ts.values() == [10.0, 20.0]
        assert len(ts.samples) == 2

    def test_registry_reuses_instances(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        assert stats.counter("a") is stats.counter("a")
        assert stats.goodput("g") is stats.goodput("g")
        assert stats.latency("l") is stats.latency("l")
        assert stats.series("s") is stats.series("s")

    def test_counters_snapshot(self):
        sim = Simulator()
        stats = StatsRegistry(sim)
        stats.counter("sent").add(3)
        stats.counter("dropped").add()
        assert stats.counters() == {"sent": 3, "dropped": 1}


class TestExactPastTheCap:
    def test_series_count_and_total_stay_exact(self):
        stats = StatsRegistry(Simulator())
        n = SAMPLE_CAP + 5
        values = [0.25 * (i % 7) for i in range(n)]
        for name in ("recovery-downtime:3", "quarantine-dwell:4"):
            series = stats.series(name)
            for i, value in enumerate(values):
                series.record(float(i), value)
            assert len(series.samples) == SAMPLE_CAP
            assert stats.snapshot()["sim_series"][name]["samples"] == n
        downtime = _downtime_section(stats)
        for section, node in (("recovery_downtime", "3"), ("quarantine_dwell", "4")):
            assert downtime[section][node] == {
                "events": n, "total_seconds": sum(values),
            }


class TestPerDeliveryInstrumentsAreBounded:
    def test_three_caps_of_deliveries_through_deliver_local(self):
        net = OverlayNetwork.build(ring(3), OverlayConfig(), seed=0)
        node = net.node(2)
        message = Message(source=1, dest=2, seq=1, semantics=Semantics.PRIORITY)
        n = 3 * SAMPLE_CAP
        # Uniform over 1 ms .. 1 s: both percentiles sit well inside the
        # (10^-0.5, 1] s bucket.
        latencies = [0.001 * (1 + (i * 7919) % 1000) for i in range(n)]
        for latency in latencies:
            net.sim.now = latency  # sent_at is 0: the latency is the clock
            node.deliver_local(message)

        recorder = net.flow_latency(1, 2)
        series = net.stats.series(f"priority-count:1->2:{message.priority}")
        assert len(recorder.samples) == len(series.samples) == SAMPLE_CAP
        assert recorder.count == series.count == n
        assert recorder.mean() == pytest.approx(sum(latencies) / n, rel=1e-12)
        assert recorder.maximum() == max(latencies) == recorder.percentile(100.0)
        assert recorder.percentile(0.0) == min(latencies)
        ordered = sorted(latencies)
        for p in (50.0, 99.0):
            rank = (p / 100.0) * (n - 1)
            low = int(rank)
            exact = ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)
            bucket = bisect_left(BUCKET_BOUNDS, exact)
            lower = BUCKET_BOUNDS[bucket - 1] if bucket else 0.0
            assert lower <= recorder.percentile(p) <= BUCKET_BOUNDS[bucket]
