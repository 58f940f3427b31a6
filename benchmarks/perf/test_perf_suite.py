"""Sanity and gate-logic tests for the hot-path microbenchmark suite.

These do not measure performance — CI timing is far too noisy for that;
the perf-regression gate (``repro perfbench --quick --baseline ...``)
owns the numbers.  What belongs here is everything about the harness
that can break silently:

* every registered benchmark sets up and runs at a tiny op count;
* the report payload has the shape BENCH_perf.json consumers expect;
* the regression gate's calibration scaling and pass/fail logic.

Nothing in this file writes to ``benchmarks/results/`` — the committed
baseline is an artifact of a deliberate full run, never of a test.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf.harness import (
    Benchmark,
    build_report,
    compare_to_baseline,
    run_benchmark,
)
from repro.perf.suites import BENCHMARKS, run_suite

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "results" / "BENCH_perf.json"
)

TINY_OPS = 48


class _CountingBench(Benchmark):
    name = "counting"

    def __init__(self):
        self.setup_total = None
        self.op_calls = 0
        self.tick_calls = 0

    def setup(self, seed, total_ops):
        self.setup_total = total_ops

    def op(self, i):
        self.op_calls += 1

    def tick(self, i):
        self.tick_calls += 1


def test_harness_times_every_op_and_reports_sane_percentiles():
    bench = _CountingBench()
    result = run_benchmark(bench, ops=100, seed=0)
    # Warmup ops run but are not timed; setup saw the full budget.
    assert bench.setup_total == bench.op_calls == bench.tick_calls
    assert result.ops == 100
    assert result.ops_per_sec > 0
    assert 0 <= result.p50_us <= result.p99_us
    assert result.wall_seconds > 0
    payload = result.to_dict()
    assert payload["name"] == "counting"
    assert set(payload) == {
        "name", "ops", "wall_seconds", "ops_per_sec", "p50_us", "p99_us",
    }


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_registered_benchmark_runs_at_tiny_op_count(name):
    result = run_benchmark(BENCHMARKS[name](), ops=TINY_OPS, seed=0)
    assert result.name == name
    assert result.ops == TINY_OPS
    assert result.ops_per_sec > 0


def test_report_shape_matches_committed_baseline():
    results = [run_benchmark(_CountingBench(), ops=16, seed=0)]
    report = build_report(results, mode="quick", seed=0, calibration=1e6)
    assert report["version"] == 1
    assert report["mode"] == "quick"
    assert report["calibration_ops_per_sec"] == 1e6
    assert report["benchmarks"]["counting"]["ops_per_sec"] > 0
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        # The committed artifact must stay consumable by the gate: same
        # top-level shape and exactly the registered benchmarks (a gate
        # entry without a benchmark fails every run).
        assert baseline["version"] == 1
        assert set(BENCHMARKS) == set(baseline["benchmarks"])
        assert baseline["calibration_ops_per_sec"] > 0


def _fake_report(ops_per_sec: float, calibration: float) -> dict:
    return {
        "version": 1,
        "mode": "quick",
        "seed": 0,
        "calibration_ops_per_sec": calibration,
        "benchmarks": {
            "counting": {"name": "counting", "ops": 1, "wall_seconds": 1.0,
                         "ops_per_sec": ops_per_sec, "p50_us": 1.0, "p99_us": 2.0},
        },
    }


def test_gate_passes_within_budget_and_fails_beyond_it():
    baseline = _fake_report(1000.0, calibration=1e6)
    ok_report = _fake_report(800.0, calibration=1e6)  # -20%: within 25%
    bad_report = _fake_report(700.0, calibration=1e6)  # -30%: regression
    [(name, ratio, ok)] = compare_to_baseline(ok_report, baseline)
    assert name == "counting"
    assert abs(ratio - 0.8) < 1e-9
    assert ok
    [(_, ratio, ok)] = compare_to_baseline(bad_report, baseline)
    assert abs(ratio - 0.7) < 1e-9
    assert not ok


def test_gate_scales_baseline_by_machine_calibration():
    # Same code on a machine measured 2x slower: raw ops/sec halved, but
    # the calibration ratio scales the expectation down to match.
    baseline = _fake_report(1000.0, calibration=2e6)
    report = _fake_report(500.0, calibration=1e6)
    [(_, ratio, ok)] = compare_to_baseline(report, baseline)
    assert abs(ratio - 1.0) < 1e-9 and ok


def test_gate_fails_when_a_benchmark_disappears():
    baseline = _fake_report(1000.0, calibration=1e6)
    report = _fake_report(1000.0, calibration=1e6)
    report["benchmarks"] = {}
    [(name, ratio, ok)] = compare_to_baseline(report, baseline)
    assert name == "counting" and ratio == 0.0 and not ok


def test_quick_suite_runs_end_to_end():
    # One real end-to-end pass at quick op counts: the same entry point
    # the CI gate calls, minus the baseline comparison.
    report = run_suite(mode="quick", seed=0)
    assert set(report["benchmarks"]) == set(BENCHMARKS)
    for payload in report["benchmarks"].values():
        assert payload["ops_per_sec"] > 0
