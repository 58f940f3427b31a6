"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the global-cloud deployment topology and its analytical
    dissemination costs (Table III).
``demo``
    Run a short end-to-end scenario (both semantics, one compromised
    node) and print the outcome.
``experiment``
    Run N saturating flows on the scaled deployment and print per-flow
    goodput, latency, and dissemination cost.
``turret``
    Run a Turret-style randomized attack campaign and print the report.
``chaos``
    Run a seeded chaos soak: a fault schedule (flaps, gray failures,
    bursts, crashes, churn, partitions) against the deployment with the
    invariant monitor armed; exit 1 on any violation.
``stats``
    Run a seeded workload and dump the full telemetry report (registry
    counters, per-message-type bytes, crypto ops, per-flow goodput and
    latency percentiles) as JSON or CSV.  Deterministic by default;
    ``--profile`` adds wall-clock event-loop timing.
``live``
    Boot the same overlay stack over real asyncio/UDP sockets on
    localhost (:mod:`repro.runtime`), inject priority + reliable client
    traffic for a wall-clock duration, and print per-flow delivery.
    Ctrl-C shuts down gracefully and still prints the report.
``perfbench``
    Run the hot-path microbenchmark suite (:mod:`repro.perf`): K-paths
    computation, priority-queue eviction and REAL-mode batch MAC
    verification at fixed seeds.  Emits the
    ``BENCH_perf.json`` payload and, with ``--baseline``, acts as the
    perf-regression gate (exit 1 on >25 % ops/sec regression, after
    machine-speed calibration).
``overload``
    Sweep the client-tier population workload (:mod:`repro.clients`)
    over offered-load multipliers with the DoS-resistant admission
    stage on and off, and print goodput + tail latency per stage.
    With ``--min-goodput`` the command exits 1 unless the admission-on
    arm sustains that fraction of its 1x goodput at the highest
    multiplier (the CI overload gate).
``slo``
    Run the "SLO under fire" sweep (:mod:`repro.clients.slo`): the
    client session tier (budgeted retries, failover, dedup) with
    sessions on and off, under soak chaos, across offered-load
    multipliers.  With ``--min-success`` the command exits 1 unless
    the sessions-on arm meets that client-visible success ratio at
    base load, keeps retry amplification within the budget at every
    sweep point, and reports zero invariant violations (the CI
    client-slo gate).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.topology import global_cloud
from repro.topology.analysis import minimum_pair_connectivity, table3


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: topology summary and Table III."""
    topo = global_cloud.topology()
    print(f"global cloud: {len(topo.nodes)} nodes, {topo.edge_count} links, "
          f"min pair connectivity {minimum_pair_connectivity(topo)}")
    for node in sorted(topo.nodes):
        name, _, _, region = global_cloud.CITIES[node]
        neighbors = ", ".join(str(n) for n in sorted(topo.neighbors(node)))
        print(f"  {node:>2}  {name:<14} {region:<14} -> {neighbors}")
    print("\nanalytical dissemination cost (Table III):")
    for method, row in table3(topo).items():
        latency = (
            f"{row.avg_path_latency_ms:6.1f} ms"
            if row.avg_path_latency_ms is not None
            else "      — "
        )
        print(f"  {method:<20} {row.avg_hops:6.2f} hops  "
              f"{row.scaled_cost:6.2f}x  {latency}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: short end-to-end scenario with a compromised node."""
    from repro.byzantine.behaviors import DroppingBehavior
    from repro.overlay.network import OverlayNetwork

    net = OverlayNetwork.build(
        global_cloud.topology(),
        OverlayConfig(link_bandwidth_bps=1e6),
        seed=args.seed,
    )
    net.compromise(10, DroppingBehavior())
    print("node 10 compromised (black-hole forwarder)")
    net.client(7).send_priority(9, method=DisseminationMethod.flooding())
    sent = 0
    while sent < 10 and net.client(2).send_reliable(5, size_bytes=600):
        sent += 1
    net.run(5.0)
    print(f"priority 7->9 delivered: {net.delivered_count(7, 9)}/1")
    print(f"reliable 2->5 delivered: {net.delivered_count(2, 5)}/{sent} in order")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: saturating flows on the scaled deployment."""
    from repro.messaging.message import Semantics
    from repro.workloads.experiment import Deployment

    semantics = Semantics(args.semantics)
    deployment = Deployment(seed=args.seed)
    flows = global_cloud.EVALUATION_FLOWS[: args.flows]
    for source, dest in flows:
        deployment.add_flow(source, dest, rate_fraction=args.rate,
                            semantics=semantics)
    print(f"running {len(flows)} {semantics.value} flow(s) at "
          f"{args.rate:.0%} of capacity for {args.seconds:.0f} s ...")
    deployment.run(args.seconds)
    window = (args.seconds * 0.25, args.seconds)
    for source, dest in flows:
        result = deployment.flow_result(source, dest, window)
        print(f"  {source:>2} -> {dest:<2}  {result.goodput_mbps:6.3f} Mbps "
              f"({result.goodput_fraction_of_capacity:5.1%} of a link)  "
              f"latency {result.mean_latency * 1000:7.1f} ms  "
              f"{result.delivered} delivered")
    print(f"dissemination cost: {deployment.dissemination_cost():.1f} "
          f"hops per delivered message")
    return 0


def cmd_turret(args: argparse.Namespace) -> int:
    """``repro turret``: randomized attack campaign; exit 1 on any finding."""
    from repro.byzantine.turret import TurretCampaign

    campaign = TurretCampaign(
        global_cloud.topology,
        n_compromised=args.compromised,
        run_seconds=args.seconds,
        master_seed=args.seed,
        config=OverlayConfig(link_bandwidth_bps=1e6),
    )
    report = campaign.run(args.iterations)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: seeded chaos soak; exit 1 on invariant violations."""
    from repro.faults.schedule import ChaosSpec
    from repro.workloads.experiment import Deployment

    deployment = Deployment(seed=args.seed)
    preset = args.preset
    spec_factory = {
        "link": ChaosSpec.link_level,
        "full": ChaosSpec.full,
        "soak": ChaosSpec.live_soak,
    }[preset]
    spec = spec_factory(duration=args.seconds, intensity=args.intensity)
    schedule = deployment.add_chaos(spec)
    if args.adaptive or args.fixed_recovery:
        period = max(2.0, args.seconds / 2)
        if not args.adaptive:
            # The fixed rotation refuses a period whose per-node slots
            # cannot fit the reinstalls; stretch it for short runs.
            period = max(period, 0.5 * len(deployment.network.nodes))
        deployment.add_defense(
            adaptive=args.adaptive, period=period, downtime=0.5
        )
    if args.print_schedule:
        print(schedule.describe())
    flows = global_cloud.EVALUATION_FLOWS[: args.flows]
    for source, dest in flows:
        deployment.add_flow(source, dest, rate_fraction=0.2)
    counts = ", ".join(f"{k}={v}" for k, v in schedule.counts().items() if v)
    recovery_note = (
        " + adaptive defense" if args.adaptive
        else " + fixed recovery" if args.fixed_recovery else ""
    )
    print(f"chaos soak: seed={args.seed} {args.seconds:.0f} s preset={preset}, "
          f"{len(schedule)} faults ({counts or 'none'}){recovery_note}")
    deployment.run(args.seconds + 10.0)  # settle time after the last fault
    window = (0.0, args.seconds)
    for source, dest in flows:
        result = deployment.flow_result(source, dest, window)
        print(f"  {source:>2} -> {dest:<2}  {result.goodput_mbps:6.3f} Mbps  "
              f"{result.delivered} delivered")
    engine = deployment.chaos
    monitor = deployment.monitor
    print(f"applied: {engine.summary()}")
    quarantines = deployment.network.stats.counter("link_quarantines").value
    reinstatements = deployment.network.stats.counter("link_reinstatements").value
    print(f"self-healing: {quarantines} quarantine(s), "
          f"{reinstatements} reinstatement(s)")
    if deployment.defense is not None:
        deployment.defense.stop()
        summary = deployment.defense.summary()
        mode = "adaptive" if summary["adaptive"] else "fixed"
        print(f"defense ({mode}): {summary['recoveries_completed']} "
              f"recoveries, {summary['total_downtime_seconds']:.1f} s downtime, "
              f"{summary['deferrals']} deferred, {summary['advances']} advanced, "
              f"{summary['escalations']} escalated, "
              f"{summary['tightenings']} tightened; "
              f"peak concurrent down {summary['budget']['peak_down']}"
              f"/{summary['budget']['max_down']}")
        suspects = ", ".join(summary["suspects"]) or "none"
        print(f"defense suspects at end: {suspects}")
    print(monitor.report())
    return 0 if monitor.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: run a seeded workload, dump the telemetry report."""
    import json

    from repro.messaging.message import Semantics
    from repro.telemetry.report import build_report, to_csv
    from repro.workloads.experiment import Deployment

    if args.live:
        # Live mode: the report is the LiveReport dict (per-flow results,
        # transport totals incl. per-reason drop counters, chaos /
        # supervision / invariant summaries) rather than the sim report.
        # With --shards the run is the sharded multi-process cluster and
        # the dump is the ClusterReport: every flow carries its source
        # shard id, ``shards_detail`` holds each worker's full metrics,
        # and the top level is the cluster rollup.
        if args.format != "json":
            print("repro stats --live supports --format json only")
            return 2
        if args.shards:
            from repro.cluster.deployment import run_cluster
            from repro.cluster.spec import ClusterConfig

            live_report = run_cluster(
                ClusterConfig(
                    nodes=max(6 * args.shards, 8),
                    shards=args.shards,
                    duration=args.seconds,
                    seed=args.seed,
                )
            )
        else:
            from repro.runtime.live import LiveConfig, run_live

            live_report = run_live(
                LiveConfig(duration=args.seconds, seed=args.seed)
            )
        rendered = json.dumps(
            live_report.to_dict(), sort_keys=True, indent=2
        ) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"wrote json report to {args.output}")
        else:
            print(rendered, end="")
        return 0 if live_report.ok else 1

    semantics = Semantics(args.semantics)
    deployment = Deployment(seed=args.seed)
    if args.profile:
        deployment.sim.enable_profiling()
    if args.trace:
        deployment.network.stats.trace.enable()
    flows = global_cloud.EVALUATION_FLOWS[: args.flows]
    for source, dest in flows:
        deployment.add_flow(source, dest, rate_fraction=args.rate,
                            semantics=semantics)
    deployment.run(args.seconds)
    report = build_report(
        deployment,
        flows,
        window=(0.0, args.seconds),
        params={
            "seed": args.seed,
            "seconds": args.seconds,
            "flows": args.flows,
            "rate": args.rate,
            "semantics": semantics.value,
        },
        include_profile=args.profile,
        include_trace=args.trace,
    )
    if args.format == "json":
        rendered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rendered = to_csv(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(rendered, end="")
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    """``repro live``: run the overlay over real UDP sockets on localhost."""
    import json

    from repro.runtime.live import LiveConfig, run_live

    if args.method == "flooding":
        method = DisseminationMethod.flooding()
    else:
        method = DisseminationMethod.k_paths(args.k)
    recovery = ("adaptive" if args.adaptive
                else "fixed" if args.fixed_recovery else None)
    overlay = OverlayConfig()
    if recovery is not None:
        import dataclasses

        # Wall-clock runs last seconds, not the sim's minutes: compress
        # the rotation cadence and control loop to fit the duration
        # (the fixed rotation still needs a reinstall slot per node).
        period = max(2.0, args.duration / 2)
        if recovery == "fixed":
            period = max(period, 0.25 * args.nodes)
        overlay = dataclasses.replace(
            overlay,
            defense=dataclasses.replace(
                overlay.defense,
                recovery_period=period,
                recovery_downtime=0.25,
                belief_half_life=max(2.0, args.duration / 4),
                action_cooldown=1.0,
                control_interval=0.25,
            ),
        )
    config = LiveConfig(
        nodes=args.nodes,
        duration=args.duration,
        seed=args.seed,
        method=method,
        rate_msgs_per_sec=args.rate,
        size_bytes=args.size,
        overlay=overlay,
        chaos_preset=args.chaos,
        chaos_intensity=args.chaos_intensity,
        recovery=recovery,
    )
    chaos_note = f", chaos={args.chaos}" if args.chaos else ""
    if recovery is not None:
        chaos_note += f", recovery={recovery}"
    print(f"live overlay: {args.nodes} nodes on 127.0.0.1 (UDP), "
          f"{args.duration:.0f} s wall clock, method={args.method}, "
          f"seed={args.seed}{chaos_note}")
    report = run_live(config)
    if report.interrupted:
        print("interrupted; draining stopped early")
    for flow in report.flows:
        latency = (f"{flow.mean_latency * 1000:7.2f} ms"
                   if flow.mean_latency is not None else "      — ")
        print(f"  {flow.source!s:>2} -> {flow.dest!s:<2} {flow.semantics:<9}"
              f" {flow.delivered:>5}/{flow.sent:<5} ({flow.ratio:6.1%})  "
              f"latency {latency}")
    print(f"delivery: overall {report.delivery_ratio:.1%}  "
          f"priority {report.priority_ratio:.1%}  "
          f"reliable {report.reliable_ratio:.1%}")
    transport = report.transport
    print(f"transport: {transport['datagrams_received']} datagrams received, "
          f"{transport['decode_errors']} decode errors, "
          f"{transport['encode_errors']} encode drops")
    print(f"rx drops: {transport['misdirected']} misdirected, "
          f"{transport['unknown_sender']} unknown sender, "
          f"{transport['dispatch_errors']} dispatch error(s); "
          f"tx: {transport['send_errors']} send error(s), "
          f"{transport['send_retries']} retried")
    if report.chaos is not None:
        injector = report.chaos["injector"]
        print(f"chaos: {injector['losses']} lost, "
              f"{injector['duplicates']} duplicated, "
              f"{injector['reorders']} reordered, "
              f"{injector['corruptions']} corrupted, "
              f"{injector['partition_drops']} partition-dropped")
        supervision = report.supervision
        broken = ", ".join(supervision["broken"]) or "none"
        print(f"supervision: {supervision['kills']} kill(s), "
              f"{supervision['restarts']} restart(s), broken: {broken}")
        faulted = ", ".join(sorted(report.faulted_node_ids)) or "none"
        print(f"correct-flow delivery {report.correct_flow_ratio:.1%} "
              f"(faulted nodes excluded: {faulted})")
    if report.invariants is not None:
        print(f"invariants: {report.invariants['violations']} violation(s) "
              f"over {report.invariants['deliveries_checked']} deliveries")
    if report.adaptive is not None:
        summary = report.adaptive
        mode = "adaptive" if summary["adaptive"] else "fixed"
        print(f"defense ({mode}): {summary['recoveries_completed']} "
              f"recoveries, {summary['total_downtime_seconds']:.2f} s downtime, "
              f"{summary['deferrals']} deferred, {summary['advances']} advanced, "
              f"{summary['escalations']} escalated; peak concurrent down "
              f"{summary['budget']['peak_down']}/{summary['budget']['max_down']}")
    if report.runtime_errors:
        for message in report.runtime_errors:
            print(f"runtime error: {message}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote live report to {args.output}")
    # Under chaos the delivery gate applies to flows between non-faulted
    # nodes (a message into a partitioned or crashed endpoint is *meant*
    # to be lost); report.ok additionally fails the run on any runtime
    # error or invariant violation.
    gate_ratio = (report.correct_flow_ratio if report.chaos is not None
                  else report.delivery_ratio)
    ok = report.ok and gate_ratio >= args.min_delivery
    return 0 if ok else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: sharded multi-process overlay with signed
    dynamic membership, aggregated by the coordinator control plane."""
    import json

    from repro.cluster.deployment import run_cluster
    from repro.cluster.spec import ClusterConfig

    config = ClusterConfig(
        nodes=args.nodes,
        shards=args.shards,
        duration=args.duration,
        seed=args.seed,
        rate_msgs_per_sec=args.rate,
        size_bytes=args.size,
        drain=args.drain,
        kpaths=args.k,
        flow_stride=args.flow_stride,
        chaos_preset=args.chaos,
        chaos_intensity=args.chaos_intensity,
        joins=args.joins,
        leaves=args.leaves,
    )
    chaos_note = f", chaos={args.chaos}" if args.chaos else ""
    print(f"cluster: {args.nodes} nodes over {args.shards} worker "
          f"processes (UDP on 127.0.0.1), {args.duration:.0f} s wall "
          f"clock, k={args.k}, seed={args.seed}{chaos_note}, "
          f"{args.joins} join(s) + {args.leaves} leave(s)")
    report = run_cluster(config)
    for flow in report.flows:
        latency = (f"{flow['mean_latency'] * 1000:7.2f} ms"
                   if flow["mean_latency"] is not None else "      — ")
        tag = " [post-join]" if flow["post_join"] else ""
        print(f"  s{flow['shard']} {flow['source']!s:>3} -> "
              f"{flow['dest']!s:<3} {flow['semantics']:<9}"
              f" {flow['delivered']:>5}/{flow['sent']:<5} "
              f"({flow['ratio']:6.1%})  latency {latency}{tag}")
    excluded = ", ".join(sorted(report.excluded)) or "none"
    print(f"delivery: overall {report.delivery_ratio:.1%}  "
          f"correct-flow {report.correct_flow_ratio:.1%} "
          f"(excluded: {excluded})")
    if report.membership_events:
        for event in report.membership_events:
            host = (f" (hosted by shard {event['host_shard']})"
                    if "host_shard" in event else "")
            print(f"membership: {event['action']} node {event['node']} "
                  f"seqno {event['seqno']}{host}")
        if report.post_join_flows:
            print(f"post-join delivery: {report.post_join_ratio:.1%} "
                  f"over {len(report.post_join_flows)} joiner flow(s)")
    print(f"invariants: {report.violations} violation(s) across "
          f"{report.shards} shard(s); wall {report.wall_seconds:.1f} s")
    for failure in report.failures:
        print(f"failure: {failure}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote cluster report to {args.output}")
    # Same gate semantics as ``repro live``: under chaos, only flows
    # between non-excluded endpoints are held to the delivery floor.
    gate_ratio = (report.correct_flow_ratio if args.chaos is not None
                  else report.delivery_ratio)
    ok = report.ok and gate_ratio >= args.min_delivery
    return 0 if ok else 1


def cmd_perfbench(args: argparse.Namespace) -> int:
    """``repro perfbench``: hot-path microbenchmarks + regression gate."""
    import json

    from repro.perf import compare_to_baseline, run_suite

    mode = "quick" if args.quick else "full"
    print(f"perfbench: mode={mode} seed={args.seed}")
    report = run_suite(mode=mode, seed=args.seed)
    for name, result in report["benchmarks"].items():
        print(f"  {name:<20} {result['ops_per_sec']:>12,.0f} ops/s  "
              f"p50 {result['p50_us']:7.2f} us  p99 {result['p99_us']:8.2f} us")
    print(f"  calibration: {report['calibration_ops_per_sec']:,.0f} loop iters/s")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote perf report to {args.output}")
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows = compare_to_baseline(report, baseline,
                                   max_regression=args.max_regression)
        failed = [name for name, _, ok in rows if not ok]
        for name, ratio, ok in rows:
            verdict = "ok" if ok else "REGRESSION"
            print(f"  gate {name:<20} {ratio:6.2f}x of baseline  {verdict}")
        if failed:
            print(f"perf regression on: {', '.join(failed)} "
                  f"(>{args.max_regression:.0%} below calibrated baseline)")
            return 1
        print("perf gate: all hot paths within budget")
    return 0


def cmd_overload(args: argparse.Namespace) -> int:
    """``repro overload``: offered-load sweep + admission goodput gate."""
    import json

    from repro.clients import run_overload

    multipliers = tuple(float(m) for m in args.multipliers.split(","))
    print(
        f"overload: nodes={args.nodes} duration={args.duration:g}s "
        f"base-rate={args.base_rate:g}/s multipliers={args.multipliers} "
        f"seed={args.seed}"
    )
    report = run_overload(
        seed=args.seed,
        nodes=args.nodes,
        duration=args.duration,
        drain=args.drain,
        base_rate=args.base_rate,
        multipliers=multipliers,
        include_off=not args.skip_off,
        progress=lambda label: print(f"  running {label} ..."),
    )
    print(f"  {'arm':<4} {'mult':>5} {'offered':>9} {'delivered':>9} "
          f"{'goodput/s':>10} {'p50 ms':>8} {'p99 ms':>9} {'rejected':>9}")
    for stage in report["stages"]:
        arm = "on" if stage["admission"] else "off"
        rejected = stage["outcomes"].get("rejected", 0)
        print(f"  {arm:<4} {stage['multiplier']:>5g} {stage['offered']:>9,} "
              f"{stage['delivered']:>9,} {stage['goodput_msgs_per_s']:>10,.1f} "
              f"{stage['p50_ms']:>8.1f} {stage['p99_ms']:>9.1f} "
              f"{rejected:>9,}")
    summary = report["summary"]
    print(f"  offered total: {summary['offered_total']:,} messages")
    print(f"  admission-on goodput at max load: "
          f"{summary['goodput_ratio_on']:.1%} of 1x "
          f"(p99 {summary['p99_ms_on_at_max']:.1f} ms)")
    if "goodput_ratio_off" in summary:
        print(f"  admission-off goodput at max load: "
              f"{summary['goodput_ratio_off']:.1%} of 1x "
              f"(p99 {summary['p99_ms_off_at_max']:.1f} ms)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote overload report to {args.output}")
    if args.min_goodput is not None:
        if summary["goodput_ratio_on"] < args.min_goodput:
            print(f"overload gate: FAILED — admission-on sustained only "
                  f"{summary['goodput_ratio_on']:.1%} of 1x goodput "
                  f"(need {args.min_goodput:.1%})")
            return 1
        print(f"overload gate: ok ({summary['goodput_ratio_on']:.1%} "
              f">= {args.min_goodput:.1%})")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: session-tier SLO sweep + client-success gate."""
    import json

    from repro.clients import run_slo

    multipliers = tuple(float(m) for m in args.multipliers.split(","))
    print(
        f"slo: nodes={args.nodes} duration={args.duration:g}s "
        f"base-rate={args.base_rate:g}/s multipliers={args.multipliers} "
        f"chaos-intensity={args.intensity:g} seed={args.seed}"
    )
    report = run_slo(
        seed=args.seed,
        nodes=args.nodes,
        duration=args.duration,
        drain=args.drain,
        base_rate=args.base_rate,
        multipliers=multipliers,
        intensity=args.intensity,
        include_off=not args.skip_off,
        progress=lambda label: print(f"  running {label} ..."),
    )
    print(f"  {'arm':<4} {'mult':>5} {'requests':>9} {'acked':>8} "
          f"{'success':>8} {'amp':>7} {'failover':>9} {'shed':>6} "
          f"{'viol':>5}")
    for stage in report["stages"]:
        arm = "on" if stage["sessions"] else "off"
        print(f"  {arm:<4} {stage['multiplier']:>5g} "
              f"{stage['requests']:>9,} {stage['succeeded']:>8,} "
              f"{stage['success_ratio']:>8.2%} {stage['amplification']:>7.3f} "
              f"{stage['failovers']:>9,} {stage['shed']:>6,} "
              f"{stage['violations']:>5}")
    summary = report["summary"]
    print(f"  requests total: {summary['requests_total']:,}")
    print(f"  success at 1x under chaos: "
          f"on={summary['success_on_at_1x']:.2%}"
          + (f" off={summary['success_off_at_1x']:.2%}"
             if "success_off_at_1x" in summary else ""))
    print(f"  max amplification (on): {summary['max_amplification_on']:.4f} "
          f"(bound {summary['amplification_bound']:.2f}); "
          f"violations: {summary['violations']}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote slo report to {args.output}")
    if args.min_success is not None:
        failures = []
        if summary["success_on_at_1x"] < args.min_success:
            failures.append(
                f"sessions-on success at 1x is "
                f"{summary['success_on_at_1x']:.2%} "
                f"(need {args.min_success:.2%})"
            )
        if summary["max_amplification_on"] > summary["amplification_bound"]:
            failures.append(
                f"retry amplification {summary['max_amplification_on']:.4f} "
                f"exceeds budget bound {summary['amplification_bound']:.2f}"
            )
        if summary["violations"]:
            failures.append(f"{summary['violations']} invariant violations")
        if failures:
            for failure in failures:
                print(f"slo gate: FAILED — {failure}")
            return 1
        print(f"slo gate: ok ({summary['success_on_at_1x']:.2%} "
              f">= {args.min_success:.2%}, amplification bounded, "
              f"0 violations)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Practical Intrusion-Tolerant Networks (ICDCS 2016) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="topology and Table III").set_defaults(func=cmd_info)

    demo = sub.add_parser("demo", help="short end-to-end scenario")
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=cmd_demo)

    experiment = sub.add_parser("experiment", help="saturating flows on the deployment")
    experiment.add_argument("--flows", type=int, default=5, choices=range(1, 6))
    experiment.add_argument("--rate", type=float, default=1.0)
    experiment.add_argument("--seconds", type=float, default=20.0)
    experiment.add_argument("--semantics", choices=["priority", "reliable"],
                            default="priority")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.set_defaults(func=cmd_experiment)

    turret = sub.add_parser("turret", help="randomized attack campaign")
    turret.add_argument("--iterations", type=int, default=5)
    turret.add_argument("--compromised", type=int, default=3)
    turret.add_argument("--seconds", type=float, default=5.0)
    turret.add_argument("--seed", type=int, default=0)
    turret.set_defaults(func=cmd_turret)

    chaos = sub.add_parser("chaos", help="seeded chaos soak with invariant monitor")
    chaos.add_argument("--seconds", type=float, default=60.0)
    chaos.add_argument("--intensity", type=float, default=1.0)
    chaos.add_argument("--flows", type=int, default=3, choices=range(1, 6))
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--preset", choices=["link", "full", "soak"],
                       default="full",
                       help="ChaosSpec preset (link: link faults only)")
    chaos.add_argument("--adaptive", action="store_true",
                       help="arm the feedback-controlled defense "
                            "(belief-driven recovery + quarantine)")
    chaos.add_argument("--fixed-recovery", action="store_true",
                       help="arm the fixed-rotation recovery baseline "
                            "(same actuation, open loop)")
    chaos.add_argument("--print-schedule", action="store_true",
                       help="print the generated fault schedule")
    chaos.set_defaults(func=cmd_chaos)

    stats = sub.add_parser("stats", help="run a workload, dump the telemetry report")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--seconds", type=float, default=10.0)
    stats.add_argument("--flows", type=int, default=3, choices=range(1, 6))
    stats.add_argument("--rate", type=float, default=0.5)
    stats.add_argument("--semantics", choices=["priority", "reliable"],
                       default="priority")
    stats.add_argument("--format", choices=["json", "csv"], default="json")
    stats.add_argument("--output", default=None,
                       help="write the report to a file instead of stdout")
    stats.add_argument("--profile", action="store_true",
                       help="include wall-clock event-loop profile "
                            "(non-deterministic)")
    stats.add_argument("--trace", action="store_true",
                       help="enable sim-time event tracing and include "
                            "the event summary")
    stats.add_argument("--live", action="store_true",
                       help="run the live (asyncio/UDP) overlay instead of "
                            "the simulator and dump its JSON report, "
                            "including transport drop counters "
                            "(--flows/--rate/--semantics are sim-only)")
    stats.add_argument("--shards", type=int, default=0,
                       help="with --live: run the sharded multi-process "
                            "cluster with this many worker processes and "
                            "dump the ClusterReport (per-flow shard id "
                            "tags + cluster rollup + per-shard metrics)")
    stats.set_defaults(func=cmd_stats)

    live = sub.add_parser(
        "live", help="run the overlay over real asyncio/UDP sockets"
    )
    live.add_argument("--nodes", type=int, default=4)
    live.add_argument("--duration", type=float, default=5.0,
                      help="wall-clock seconds, including the drain window")
    live.add_argument("--method", choices=["flooding", "kpaths"],
                      default="flooding")
    live.add_argument("--k", type=int, default=2,
                      help="number of disjoint paths when --method kpaths")
    live.add_argument("--rate", type=float, default=20.0,
                      help="offered load per flow, messages/second")
    live.add_argument("--size", type=int, default=256,
                      help="message payload size in bytes")
    live.add_argument("--seed", type=int, default=0)
    live.add_argument("--chaos", choices=["link", "full", "soak"],
                      default=None,
                      help="arm seeded fault injection against the real "
                           "sockets with this ChaosSpec preset")
    live.add_argument("--chaos-intensity", type=float, default=1.0,
                      help="scale factor on the chaos preset's fault rates")
    live.add_argument("--adaptive", action="store_true",
                      help="arm the feedback-controlled defense (adaptive "
                           "proactive recovery + quarantine, cadence "
                           "compressed to the run duration)")
    live.add_argument("--fixed-recovery", action="store_true",
                      help="arm the fixed-rotation recovery baseline")
    live.add_argument("--output", default=None,
                      help="also write the JSON report to a file")
    live.add_argument("--min-delivery", type=float, default=0.0,
                      help="exit 1 if delivery falls below this fraction "
                           "(correct-flow delivery when chaos is armed; "
                           "CI gate)")
    live.set_defaults(func=cmd_live)

    cluster = sub.add_parser(
        "cluster",
        help="shard the overlay across worker processes with signed "
             "dynamic membership",
    )
    cluster.add_argument("--nodes", type=int, default=24,
                         help="total overlay size (generated topology)")
    cluster.add_argument("--shards", type=int, default=4,
                         help="number of worker OS processes")
    cluster.add_argument("--duration", type=float, default=8.0,
                         help="wall-clock seconds, including the drain window")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--rate", type=float, default=10.0,
                         help="offered load per flow, messages/second")
    cluster.add_argument("--size", type=int, default=200,
                         help="message payload size in bytes")
    cluster.add_argument("--drain", type=float, default=2.0,
                         help="quiet tail after injection stops")
    cluster.add_argument("--k", type=int, default=2,
                         help="disjoint paths per message (0 = flooding)")
    cluster.add_argument("--flow-stride", type=int, default=1,
                         help="source every Nth flow of the global plan "
                              "(thin the offered load on small hosts)")
    cluster.add_argument("--chaos", choices=["link", "full", "soak"],
                         default=None,
                         help="arm seeded fault injection with this "
                              "ChaosSpec preset (sliced per shard)")
    cluster.add_argument("--chaos-intensity", type=float, default=1.0)
    cluster.add_argument("--joins", type=int, default=1,
                         help="mid-run signed JOINs to drive")
    cluster.add_argument("--leaves", type=int, default=1,
                         help="mid-run signed LEAVEs to drive")
    cluster.add_argument("--output", default=None,
                         help="also write the JSON ClusterReport to a file")
    cluster.add_argument("--min-delivery", type=float, default=0.0,
                         help="exit 1 if delivery falls below this fraction "
                              "(correct-flow delivery when chaos is armed; "
                              "CI gate)")
    cluster.set_defaults(func=cmd_cluster)

    perfbench = sub.add_parser(
        "perfbench", help="hot-path microbenchmarks + perf-regression gate"
    )
    perfbench.add_argument("--quick", action="store_true",
                           help="reduced op counts (CI gate mode)")
    perfbench.add_argument("--seed", type=int, default=0)
    perfbench.add_argument("--output", default=None,
                           help="write the BENCH_perf.json payload to a file")
    perfbench.add_argument("--baseline", default=None,
                           help="compare against a committed BENCH_perf.json; "
                                "exit 1 on regression")
    perfbench.add_argument("--max-regression", type=float, default=0.25,
                           help="tolerated ops/sec drop vs the calibrated "
                                "baseline (default 0.25)")
    perfbench.set_defaults(func=cmd_perfbench)

    overload = sub.add_parser(
        "overload",
        help="client-tier offered-load sweep with admission on/off + gate",
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--nodes", type=int, default=8)
    overload.add_argument("--duration", type=float, default=20.0,
                          help="offered-load window per stage, simulated "
                               "seconds (default 20)")
    overload.add_argument("--drain", type=float, default=5.0,
                          help="extra drain time after the tier stops "
                               "(default 5)")
    overload.add_argument("--base-rate", type=float, default=15.0,
                          help="1x burst-arrival rate for the whole tier, "
                               "bursts/second (default 15)")
    overload.add_argument("--multipliers", default="1,2,4,7,10",
                          help="comma-separated offered-load multipliers "
                               "(default 1,2,4,7,10)")
    overload.add_argument("--skip-off", action="store_true",
                          help="run only the admission-on arm")
    overload.add_argument("--output", default=None,
                          help="write the BENCH_overload.json payload here")
    overload.add_argument("--min-goodput", type=float, default=None,
                          help="gate: require admission-on goodput at the "
                               "highest multiplier to be at least this "
                               "fraction of its 1x goodput; exit 1 otherwise")
    overload.set_defaults(func=cmd_overload)

    slo = sub.add_parser(
        "slo",
        help="client session-tier SLO sweep under soak chaos + gate",
    )
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--nodes", type=int, default=16)
    slo.add_argument("--duration", type=float, default=15.0,
                     help="offered-load window per stage, simulated "
                          "seconds (default 15)")
    slo.add_argument("--drain", type=float, default=6.0,
                     help="extra drain time after the tier stops "
                          "(default 6)")
    slo.add_argument("--base-rate", type=float, default=60.0,
                     help="1x tier-wide request arrival rate, "
                          "requests/second (default 60)")
    slo.add_argument("--multipliers", default="1,10",
                     help="comma-separated offered-load multipliers "
                          "(default 1,10)")
    slo.add_argument("--intensity", type=float, default=2.0,
                     help="live-soak chaos intensity; 0 disables chaos "
                          "(default 2.0)")
    slo.add_argument("--skip-off", action="store_true",
                     help="run only the sessions-on arm")
    slo.add_argument("--output", default=None,
                     help="write the BENCH_client_slo.json payload here")
    slo.add_argument("--min-success", type=float, default=None,
                     help="gate: require sessions-on client-visible "
                          "success at 1x to reach this ratio, retry "
                          "amplification within budget at every sweep "
                          "point, and zero invariant violations; exit 1 "
                          "otherwise")
    slo.set_defaults(func=cmd_slo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
