"""Runner of the end-to-end benchmark.

Two forms::

    python3 benchmarks/e2e/run.py --workload link_small --seed 3 --seconds 12 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 0 [--quick | --selfcheck]

The first measures one workload in this process and prints, as its last line,
the result object ``BENCHMARK.json``'s driver reads.  The second runs every
workload that way, each in a fresh subprocess, one at a time (untraced, then
traced), and prints the tables.  Exit code is non-zero when a check fails.

Everything runs on 127.0.0.1 (loopback): link rate and wire latency are not
measured.  The overlay, its event loop and the generator share one thread.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):  # run as a script: make ``benchmarks.e2e`` importable
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.e2e.helpers import calib_burst  # noqa: E402

#: A set-up probe reads the machine's speed before the imports it is timing
#: as well as after the first delivery; the mean of the two scales its time.
_SPEED_AT_START = (
    statistics.fmean(calib_burst()[0] for _ in range(10))
    if "--setup-probe" in sys.argv else 0.0
)

from benchmarks.e2e import oracle  # noqa: E402  (also puts src/ on the path)
from benchmarks.e2e.generators import SpeedProbe  # noqa: E402
from benchmarks.e2e.helpers import (  # noqa: E402
    Slice,
    percentile,
    summarise_slices,
    tail_supported,
    time_scale,
    value_at,
    worse_by,
)
from benchmarks.e2e.trace import (  # noqa: E402
    LAYERS,
    LIVE_TARGETS,
    SIM_TARGETS,
    Tracer,
    rebind_hooks,
)
from benchmarks.e2e.workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    Workload,
    layer_counter_metrics,
    make_live_generator,
    make_sim_generator,
    snapshot_counters,
)

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

SLICE_S = 1.0
WARMUP_S = 2.0
SWEEP_INTERVAL_S = 0.25
#: After offering stops, in-flight messages get this long to land.
DRAIN_S = {"closed": 3.0, "paced": 3.0, "reliable": 8.0}
#: Set-up is timed this many times per run (fresh subprocess each); the
#: median is reported.
SETUP_REPEATS = 7
#: Of a traced run's slices, the first third runs without shims: the
#: reference for ``trace.overhead_ratio``.
UNTRACED_SHARE = 1.0 / 3.0

# Simulated-time units of the sim workload.
SIM_WARMUP_S = 2.0
SIM_CHUNK_S = 0.25
SIM_DRAIN_S = 3.0
#: ``events_per_sim_s`` and the delivered count are taken over this fixed
#: simulated interval after warm-up, so they repeat exactly per seed.
SIM_EXACT_S = 4.0

E2E_METRICS = (
    "setup_s", "goodput_msgs_per_s", "cpu_us_per_msg", "latency_p50_ms",
    "latency_p99_ms", "delivery_ratio", "rss_mb",
)

def declared() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: units, bounds, default run length."""
    return json.loads(BENCHMARK_JSON.read_text())


def declared_units() -> Dict[str, str]:
    spec = declared()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


_PAGE_MB = resource.getpagesize() / 2**20


def rss_now_mb() -> float:
    """Resident set of this process right now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


# ----------------------------------------------------------------------
# Building the system under test
# ----------------------------------------------------------------------
def build_live(spec: Workload, seed: int):
    from repro.runtime.live import LiveConfig, LiveDeployment
    from repro.topology import global_cloud

    # The benchmark's oracle replaces the test-only invariant monitor;
    # everything else is the shipped default configuration.
    config = LiveConfig(
        nodes=spec.nodes, seed=seed, flow_traffic=False, monitor_invariants=False
    )
    deployment = LiveDeployment(config)
    if spec.nodes == 12:
        deployment.topology = global_cloud.topology()
    return deployment


def build_sim(seed: int):
    from repro.workloads.experiment import Deployment

    return Deployment(seed=seed)


def live_counters(deployment, gen) -> Dict[str, float]:
    processes = list(deployment.processes.values())
    counters = snapshot_counters(
        [p.overlay for p in processes],
        [p.stats for p in processes],
        deployment.pki,
        deployment.scheduler,
        [p.transport for p in processes],
    )
    counters["polls"] = float(getattr(gen, "polls", 0))
    counters["polls_refused"] = float(getattr(gen, "polls_refused", 0))
    return counters


def sim_counters(deployment) -> Dict[str, float]:
    network = deployment.network
    return snapshot_counters(
        list(network.nodes.values()), [network.stats], network.pki, network.sim
    )


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
class Window:
    """Slices of a run, and which of them were traced."""

    def __init__(self, seconds: float, trace: bool):
        self.count = max(2, round(seconds / SLICE_S))
        self.slice_s = seconds / self.count
        self.untraced = max(1, round(self.count * UNTRACED_SHARE)) if trace else self.count
        self.slices: List[Slice] = []
        #: Wall time of the slices, speed bursts included.
        self.elapsed_s = 0.0
        self.lags: List[float] = []
        self.lateness: List[float] = []
        #: (messages delivered since the generator started, resident MB).
        self.rss_points: List[Tuple[float, float]] = []
        # Evidence of the traced slices: counter totals at their start and
        # end, and the deepest priority queue seen.
        self.counters_before: Dict[str, float] = {}
        self.counters_after: Dict[str, float] = {}
        self.queue_depth_max = 0

    def plain(self) -> List[Slice]:
        return self.slices[: self.untraced]

    def traced(self) -> List[Slice]:
        return self.slices[self.untraced:]


async def measure_live(spec: Workload, seed: int, seconds: float, trace: bool,
                       warmup_s: float, trace_out: Optional[str]) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    deployment = build_live(spec, seed)
    await deployment.start()
    tracer = Tracer() if trace else None
    window = Window(seconds, trace)

    def sample_queues() -> None:
        for process in deployment.processes.values():
            for link in process.overlay.links.values():
                depth = len(link.priority_queue)
                if depth > window.queue_depth_max:
                    window.queue_depth_max = depth

    probe = SpeedProbe(loop, tracer, sample_queues if trace else None)
    try:
        problems = oracle.check_defended(deployment.config.overlay, deployment.pki)
        gen = make_live_generator(spec, deployment, seed, loop)
        gen.start()
        sweeping = True

        def sweep() -> None:
            if sweeping:
                gen.sweep()
                loop.call_later(SWEEP_INTERVAL_S, sweep)

        loop.call_later(SWEEP_INTERVAL_S, sweep)
        probe.start()
        await asyncio.sleep(warmup_s)

        window.rss_points.append((gen.delivered, rss_now_mb()))
        for index in range(window.count):
            if tracer is not None and index == window.untraced:
                tracer.install(LIVE_TARGETS)
                tracer.install_methods(type(gen), gen.TRACED)
                rebind_hooks([p.overlay for p in deployment.processes.values()], False)
                gen.hook()
                window.counters_before = live_counters(deployment, gen)
                window.queue_depth_max = 0
            tracing = tracer is not None and index >= window.untraced
            probe.take()
            gen.open_slice()
            if tracing:
                tracer.resume()
            wall, cpu = time.perf_counter(), time.process_time()
            await asyncio.sleep(window.slice_s)
            if tracing:
                tracer.pause()
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            window.elapsed_s += wall
            window.lateness.extend(gen.lateness)
            delivered, latencies = gen.close_slice()
            speeds, lags, burst_s = probe.take()
            window.rss_points.append((gen.delivered, rss_now_mb()))
            window.lags.extend(lags)
            window.slices.append(
                Slice(wall - burst_s, cpu - burst_s, delivered,
                      statistics.fmean(speeds), latencies)
            )
        if trace:
            window.counters_after = live_counters(deployment, gen)

        gen.stop()
        deadline = time.perf_counter() + DRAIN_S[spec.kind]
        while len(gen.slots) and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        sweeping = False
        undelivered = len(gen.slots)
        final = live_counters(deployment, gen)
    finally:
        probe.stop()
        await deployment.stop()
        if tracer is not None:
            tracer.uninstall()
    report = deployment.report()
    problems += oracle.check_generator(gen, undelivered)
    problems += oracle.check_counters(final, report.runtime_errors)
    if report.failed:
        problems.append("the deployment marked the run failed")
    return assemble(spec, window, gen, undelivered, problems, tracer, trace_out,
                    scale_latency=True)


def measure_sim(spec: Workload, seed: int, seconds: float, trace: bool,
                trace_out: Optional[str]) -> Dict[str, Any]:
    deployment = build_sim(seed)
    sim = deployment.sim
    problems = oracle.check_defended(deployment.config, deployment.network.pki)
    gen = make_sim_generator(spec, deployment, seed)
    gen.start()
    tracer = Tracer() if trace else None
    window = Window(seconds, trace)
    exact: Dict[str, float] = {}
    try:
        deployment.run(SIM_WARMUP_S)
        exact_from = (sim.now, sim.events_run, gen.delivered)
        window.rss_points.append((gen.delivered, rss_now_mb()))
        sim_advanced = 0.0
        for index in range(window.count):
            if tracer is not None and index == window.untraced:
                from repro.sim.engine import EventHandle

                tracer.install(SIM_TARGETS)
                tracer.install_methods(type(gen), gen.TRACED)
                tracer.count_calls(EventHandle, "cancel")
                rebind_hooks(deployment.network.nodes.values(), True)
                gen.hook()
                window.counters_before = sim_counters(deployment)
            tracing = tracer is not None and index >= window.untraced
            gen.open_slice()
            speeds, wall, cpu = [], 0.0, 0.0
            while wall < window.slice_s:
                speeds.append(calib_burst()[0])
                if tracing:
                    tracer.resume()
                w0, c0 = time.perf_counter(), time.process_time()
                deployment.run(SIM_CHUNK_S)
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                if tracing:
                    tracer.pause()
                sim_advanced += SIM_CHUNK_S
                if not exact and sim.now >= exact_from[0] + SIM_EXACT_S - 1e-9:
                    exact = {
                        "sim_s": sim.now - exact_from[0],
                        "events": sim.events_run - exact_from[1],
                        "delivered": gen.delivered - exact_from[2],
                    }
            delivered, latencies = gen.close_slice()
            window.rss_points.append((gen.delivered, rss_now_mb()))
            window.slices.append(
                Slice(wall, cpu, delivered, statistics.fmean(speeds), latencies)
            )
        if trace:
            window.counters_after = sim_counters(deployment)
        gen.stop()
        deployment.run(SIM_DRAIN_S)
        undelivered = len(gen.slots)
        final = sim_counters(deployment)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems += oracle.check_generator(gen, undelivered)
    problems += oracle.check_counters(final, [])
    if not exact:
        problems.append(f"the run never reached {SIM_EXACT_S} simulated seconds")
    result = assemble(spec, window, gen, undelivered, problems, tracer, trace_out,
                      scale_latency=False)
    wall = sum(s.wall_s for s in window.slices)
    result["detail"]["sim_s_per_wall_s"] = sim_advanced / wall
    result["detail"]["exact"] = exact
    if trace:
        traced_events = (
            window.counters_after["events_run"] - window.counters_before["events_run"]
        )
        cancels = tracer.call_counts.get("cancel", 0)
        result["metrics"].update({
            "sim.engine.events_per_sim_s": exact.get("events", 0) / SIM_EXACT_S,
            "sim.engine.cancelled_share": cancels / max(traced_events + cancels, 1),
        })
    return result


def assemble(spec, window, gen, undelivered, problems, tracer, trace_out,
             scale_latency) -> Dict[str, Any]:
    """Turn a run's slices and evidence into metrics + detail."""
    attempted = gen.issued + gen.refused
    failed = gen.timed_out + gen.refused + undelivered
    plain = summarise_slices(window.plain(), scale_latency)
    rss_mb, rss_reached = value_at(window.rss_points, spec.rss_at)
    detail: Dict[str, Any] = {
        "rss_at_msgs": spec.rss_at if rss_reached else window.rss_points[-1][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workload": spec.name,
        "loopback": spec.live,
        "slices": [
            {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "delivered": s.delivered,
             "calib_ops_per_s": s.calib_ops_per_s}
            for s in window.slices
        ],
        "raw": plain,
        "p99_supported": tail_supported(plain["latency_samples"], 99.0),
        "problems": problems,
        "timed_out": gen.timed_out,
        "refused": gen.refused,
        "undelivered": undelivered,
    }
    if spec.saturating and plain["cpu_utilisation"] < 0.9:
        detail["warning"] = (
            f"CPU utilisation {plain['cpu_utilisation']:.2f} < 0.9: the throughput "
            "figure is not a cost measure on this run"
        )
    if tracer is None:
        metrics = {
            # An open loop's delivered rate is set by its schedule, not by
            # the machine's speed: reported as measured.
            "goodput_msgs_per_s": (
                plain["delivered"] / window.elapsed_s if spec.kind == "paced"
                else plain["goodput"]
            ),
            "cpu_us_per_msg": plain["cpu_us_per_msg"],
            "latency_p50_ms": plain["latency_p50_ms"],
            "latency_p99_ms": plain["latency_p99_ms"],
            "delivery_ratio": 1.0 - failed / max(attempted, 1),
            "rss_mb": rss_mb,
        }
    else:
        traced = summarise_slices(window.traced(), scale_latency)
        budget = tracer.budget(traced["cpu_s"], traced["delivered"])
        if trace_out:
            tracer.write(trace_out)
        detail["budget"] = budget
        detail["traced_raw"] = traced
        if not budget["valid"]:
            detail["warning"] = (
                f"traced run invalid: rows + unattributed = {budget['sum_ratio']:.2f} "
                "of traced CPU (must be within 15%)"
            )
        metrics = {}
        for layer in LAYERS:
            row = budget["rows"][layer]
            metrics[f"{layer}.calls_per_msg"] = row["calls_per_msg"]
            metrics[f"{layer}.self_us_per_msg"] = row["self_us_per_msg"]
        before, after = window.counters_before, window.counters_after
        metrics.update(layer_counter_metrics(before, after, traced["delivered"], spec.live))
        lags = sorted(window.lags)
        lateness = sorted(window.lateness)
        polls = after.get("polls", 0.0) - before.get("polls", 0.0)
        refused = after.get("polls_refused", 0.0) - before.get("polls_refused", 0.0)
        metrics.update({
            "runtime.scheduler.loop_lag_p99_ms": 1e3 * percentile(lags, 99.0) if lags else 0.0,
            "messaging.priority.queue_depth_max": float(window.queue_depth_max),
            "messaging.reliable.backpressure_refusal_ratio": refused / polls if polls else 0.0,
            "sim.engine.events_per_sim_s": 0.0,
            "sim.engine.cancelled_share": 0.0,
            "bench.generator.generator_share": budget["rows"]["bench.generator"]["share"],
            "bench.generator.generator_lag_p99_ms": (
                1e3 * percentile(lateness, 99.0) if lateness else 0.0
            ),
            "bench.cpu_utilisation": traced["cpu_utilisation"],
            "trace.overhead_ratio": traced["cpu_us_per_msg"] / plain["cpu_us_per_msg"],
            "trace.unattributed_share": budget["unattributed_share"],
            "trace.sum_ratio": budget["sum_ratio"],
            "trace.valid": 1.0 if budget["valid"] else 0.0,
        })
    return {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
async def _first_delivery_live(spec: Workload, seed: int) -> float:
    """Wall-clock time at which the first message was delivered."""
    deployment = build_live(spec, seed)
    await deployment.start()
    try:
        gen = make_live_generator(spec, deployment, seed, asyncio.get_running_loop())
        gen.start()
        while gen.delivered == 0:
            await asyncio.sleep(0)
        delivered_at = time.time()
        gen.stop()
    finally:
        await deployment.stop()
    return delivered_at


def setup_probe(spec: Workload, seed: int, started_at: float) -> int:
    """Child mode: time from ``started_at`` (taken by the parent just before
    it spawned this process) to the first delivered message."""
    if spec.live:
        delivered_at = asyncio.run(_first_delivery_live(spec, seed))
    else:
        deployment = build_sim(seed)
        gen = make_sim_generator(spec, deployment, seed)
        gen.start()
        while gen.delivered == 0:
            deployment.run(SIM_CHUNK_S)
        delivered_at = time.time()
    speed_at_end = statistics.fmean(calib_burst()[0] for _ in range(10))
    print(json.dumps({
        "setup_s": delivered_at - started_at,
        "calib_ops_per_s": (_SPEED_AT_START + speed_at_end) / 2.0,
    }))
    return 0


def measure_setup(spec: Workload, seed: int, repeats: int) -> Dict[str, Any]:
    """Median over ``repeats`` fresh subprocesses of: process start ->
    first delivered message (imports, PKI/MTMW build, bind, PoR establish,
    first route), each scaled to 10 M calib-ops/s by the child's own speed
    bursts (one before its imports, one after the first delivery)."""
    samples = []
    for _ in range(repeats):
        command = [
            sys.executable, str(HERE / "run.py"), "--setup-probe", str(time.time()),
            "--workload", spec.name, "--seed", str(seed),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(
            s["setup_s"] * time_scale(s["calib_ops_per_s"]) for s in samples
        ),
        "setup_s_raw": statistics.median(s["setup_s"] for s in samples),
        "samples": samples,
    }


# ----------------------------------------------------------------------
# Single-workload (driver) form
# ----------------------------------------------------------------------
def run_workload(spec: Workload, seed: int, seconds: float, trace: bool,
                 quick: bool, trace_out: Optional[str]) -> Dict[str, Any]:
    warmup_s = 1.0 if quick else WARMUP_S
    if spec.live:
        result = asyncio.run(measure_live(spec, seed, seconds, trace, warmup_s, trace_out))
    else:
        result = measure_sim(spec, seed, seconds, trace, trace_out)
    if not trace:
        setup = measure_setup(spec, seed, 1 if quick else SETUP_REPEATS)
        result["metrics"]["setup_s"] = setup["setup_s"]
        result["detail"]["setup"] = setup
    return result


def driver_line(result: Dict[str, Any], units: Dict[str, str]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    })


def print_run(spec: Workload, result: Dict[str, Any], trace: bool,
              units: Dict[str, str]) -> None:
    detail = result["detail"]
    raw = detail["raw"]
    where = "127.0.0.1 loopback, one thread" if spec.live else "simulator, no sockets"
    print(f"== {spec.name} ({where}) ==")
    print(f"   {spec.why}")
    calib = " ".join(f"{s['calib_ops_per_s'] / 1e6:.1f}" for s in detail["slices"])
    print(f"   per-slice M calib-ops/s: {calib}")
    print(f"   delivered {raw['delivered']} in {raw['wall_s']:.2f} s, "
          f"CPU utilisation {raw['cpu_utilisation']:.2f}, "
          f"latency samples {raw['latency_samples']}"
          f"{'' if detail['p99_supported'] else ' (< 10 beyond p99)'}")
    if not trace:
        rows = [
            ("goodput_msgs_per_s", raw["goodput_raw"]),
            ("cpu_us_per_msg", raw["cpu_us_per_msg_raw"]),
            ("latency_p50_ms", raw["latency_p50_ms_raw"]),
            ("latency_p99_ms", raw["latency_p99_ms_raw"]),
            ("setup_s", detail["setup"]["setup_s_raw"]),
            ("delivery_ratio", None),
            ("rss_mb", None),
        ]
        print(f"   {'metric':<22}{'unit':<7}{'at 10M ops/s':>14}{'raw':>14}")
        for name, raw_value in rows:
            shown = "" if raw_value is None else f"{raw_value:14.4f}"
            print(f"   {name:<22}{units[name]:<7}{result['metrics'][name]:14.4f}{shown}")
        print(f"   pooled raw latency p50 {raw['latency_p50_ms_pooled']:.3f} ms, p99 "
              f"{raw['latency_p99_ms_pooled']:.3f} ms; rss_mb read at "
              f"{detail['rss_at_msgs']:.0f} messages (peak {detail['peak_rss_mb']:.1f} MB)")
        if "sim_s_per_wall_s" in detail:
            print(f"   sim_s_per_wall_s {detail['sim_s_per_wall_s']:.3f} (raw); exact-repeat "
                  f"counts over {SIM_EXACT_S:g} sim-s: delivered "
                  f"{detail['exact'].get('delivered')}, events {detail['exact'].get('events')}")
    else:
        budget = detail["budget"]
        print(f"   {'layer':<24}{'calls/msg':>11}{'self us/msg':>13}{'share':>8}")
        for layer in LAYERS:
            row = budget["rows"][layer]
            print(f"   {layer:<24}{row['calls_per_msg']:11.2f}"
                  f"{row['self_us_per_msg']:13.2f}{row['share']:8.1%}")
        print(f"   {'(unattributed)':<24}{'':>11}{budget['unattributed_us_per_msg']:13.2f}"
              f"{budget['unattributed_share']:8.1%}")
        print(f"   rows + unattributed = {budget['sum_ratio']:.3f} of traced "
              f"{budget['cpu_us_per_msg']:.1f} us/msg "
              f"({'valid' if budget['valid'] else 'INVALID'}); "
              f"trace.overhead_ratio {result['metrics']['trace.overhead_ratio']:.2f}; "
              f"{budget['spans']} spans")
        for name, value in sorted(result["metrics"].items()):
            if not name.endswith((".calls_per_msg", ".self_us_per_msg")):
                print(f"   {name:<52}{value:14.4f} {units[name]}")
    if "warning" in detail:
        print(f"   WARNING: {detail['warning']}")
    for problem in detail["problems"]:
        print(f"   ORACLE: {problem}")
    print(f"   oracle: {'pass' if result['correct'] else 'FAIL'}; attempted "
          f"{result['attempted']}, failed {result['failed']}")


# ----------------------------------------------------------------------
# Suite form: every workload in its own subprocess
# ----------------------------------------------------------------------
def run_child(spec: Workload, seed: int, seconds: float, trace: bool, quick: bool,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", spec.name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--json-detail",
    ]
    if quick:
        command.append("--quick")
    if trace_out:
        command += ["--trace-out", f"{trace_out}.{spec.name}.json"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{spec.name} crashed:\n{done.stdout}\n{done.stderr}")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["detail"] = json.loads(lines[-2])
    return result


def run_suite(seed: int, seconds: float, quick: bool, traced: bool,
              trace_out: Optional[str]) -> Dict[str, Dict[str, Any]]:
    results: Dict[str, Dict[str, Any]] = {}
    for spec in WORKLOADS:
        results[spec.name] = {"e2e": run_child(spec, seed, seconds, False, quick)}
        if traced:
            results[spec.name]["traced"] = run_child(
                spec, seed, seconds, True, quick, trace_out)
    return results


def print_summary(results: Dict[str, Dict[str, Any]]) -> None:
    units = declared_units()
    print("\n== end-to-end metrics (time-based ones at 10 M calib-ops/s) ==")
    print(f"{'workload':<16}" + "".join(f"{name:>20}" for name in E2E_METRICS))
    print(f"{'':<16}" + "".join(f"{units[name]:>20}" for name in E2E_METRICS))
    for name, result in results.items():
        metrics = result["e2e"]["metrics"]
        print(f"{name:<16}" + "".join(f"{metrics[m]:20.4f}" for m in E2E_METRICS))


def selfcheck(seconds: float, quick: bool) -> bool:
    """Run the set twice (seeds 0 and 1 each): every end-to-end metric of run
    B must be within its bound of run A on every workload, and the
    simulator's counts identical.  About one run in twenty on this box is
    hit by a disturbance the speed probe does not see, so a pair that fails
    is measured once more, and only a second failure counts."""
    bounds = declared()["end_to_end"]

    def compare(spec: Workload, seed: int, a: Dict[str, Any], b: Dict[str, Any]) -> bool:
        ok = a["correct"] and b["correct"]
        if not ok:
            print(f"{spec.name:<16}{seed:>5} oracle FAIL")
        for metric in bounds:
            name = metric["name"]
            change = worse_by(a["metrics"][name], b["metrics"][name], metric["better"])
            within = change <= metric["bound"]
            ok &= within
            print(f"{spec.name:<16}{seed:>5} {name:<22}{a['metrics'][name]:14.4f}"
                  f"{b['metrics'][name]:14.4f}{change:10.1%}{metric['bound']:8.1%}"
                  f"{'' if within else '  FAIL'}")
        if "exact" in a["detail"]:
            same = a["detail"]["exact"] == b["detail"]["exact"]
            ok &= same
            print(f"{spec.name:<16}{seed:>5} exact-repeat counts {a['detail']['exact']} "
                  f"{'==' if same else '!= ' + str(b['detail']['exact']) + '  FAIL'}")
        return ok

    sets = [
        {seed: run_suite(seed, seconds, quick, False, None) for seed in (0, 1)}
        for _ in range(2)
    ]
    header = (f"{'workload':<16}{'seed':>5} {'metric':<22}{'A':>14}{'B':>14}"
              f"{'worse by':>10}{'bound':>8}")
    print("\n== selfcheck: run B against run A ==\n" + header)
    ok = True
    for seed in (0, 1):
        for spec in WORKLOADS:
            a, b = (s[seed][spec.name]["e2e"] for s in sets)
            if not compare(spec, seed, a, b):
                print(f"-- {spec.name} seed {seed}: measuring the pair once more")
                a, b = (run_child(spec, seed, seconds, False, quick) for _ in range(2))
                print(header)
                ok &= compare(spec, seed, a, b)
    print(f"selfcheck: {'pass' if ok else 'FAIL'}")
    return ok


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 slices, short warm-up, one set-up sample, no traced run")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--output", help="write the suite's full results as JSON here")
    parser.add_argument("--trace-out", help="write the recorded spans (JSON) to this path")
    parser.add_argument("--json-detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        return setup_probe(BY_NAME[args.workload], args.seed, args.setup_probe)
    seconds = args.seconds
    if seconds is None:
        seconds = 2 * SLICE_S if args.quick else declared()["run_seconds"]

    if args.workload:
        spec = BY_NAME[args.workload]
        result = run_workload(spec, args.seed, seconds, bool(args.trace), args.quick,
                              args.trace_out)
        units = declared_units()
        print_run(spec, result, bool(args.trace), units)
        if args.json_detail:
            print(json.dumps(result["detail"]))
        print(driver_line(result, units))
        return 0 if result["correct"] else 1

    if args.selfcheck:
        return 0 if selfcheck(seconds, args.quick) else 1
    results = run_suite(args.seed, seconds, args.quick, not args.quick, args.trace_out)
    print_summary(results)
    if args.output:
        pathlib.Path(args.output).write_text(json.dumps(results, indent=1, sort_keys=True))
    ok = all(run["correct"] for result in results.values() for run in result.values())
    print(f"oracle: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
