"""The hot-path microbenchmarks behind ``python -m repro perfbench``.

Each benchmark exercises one path at a fixed seed, with all per-operation
resources (messages, routing state, keys) prepared before timing starts.
The end-to-end benchmark (``benchmarks/e2e``) budgets everything a
delivered message costs, layer by layer; a microbenchmark stays here only
when it times work that benchmark cannot see:

``kpaths_computation``
    K node-disjoint path computation on the 12-node global-cloud routing
    view, cycling the five evaluation flows, with a link-state update
    accepted every 256 operations (steady-state routing: queries vastly
    outnumber invalidations).  End to end, the route cache hides route
    computation on every workload.
``pq_eviction``
    Priority-queue offers at capacity across 8 competing sources, forcing
    the heaviest-source eviction scan on every operation.  The end-to-end
    generators are closed-loop or paced below capacity, so no workload
    evicts (``messaging.priority.evictions`` reads 0 on ``cloud_flood``).
``mac_batch_verify``
    HMAC-SHA256 verification of an 8-packet batch through the amortized
    :class:`~repro.crypto.mac.BatchMacContext` (one key schedule per
    link, one context copy per packet).  This is REAL-mode crypto; the
    end-to-end workloads run SIMULATED crypto.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from repro.perf.harness import Benchmark, BenchResult, build_report, calibrate, run_benchmark


class KPathsBench(Benchmark):
    """K-disjoint path queries on the global-cloud routing view."""

    name = "kpaths_computation"
    quick_ops = 1_000
    full_ops = 8_000

    #: One accepted link-state update (cache invalidation) per this many
    #: path queries — routing updates are rare next to data messages.
    INVALIDATE_EVERY = 256

    def setup(self, seed: int, total_ops: int) -> None:
        from repro.crypto.pki import Pki, PkiMode
        from repro.routing.link_state import LinkStateUpdate
        from repro.routing.state import RoutingState
        from repro.topology import global_cloud
        from repro.topology.mtmw import Mtmw

        topo = global_cloud.topology()
        pki = Pki(mode=PkiMode.SIMULATED, seed=seed)
        for node_id in topo.nodes:
            pki.register(node_id)
        mtmw = Mtmw.create(topo, pki)
        self._routing = RoutingState(mtmw, pki)
        self._pairs = list(global_cloud.EVALUATION_FLOWS)
        edges = sorted(topo.edges())
        self._updates: List[Any] = []
        seqno = 0
        for n in range(total_ops // self.INVALIDATE_EVERY + 2):
            a, b = edges[n % len(edges)]
            seqno += 1
            floor = mtmw.min_weight(a, b)
            weight = floor * (3.0 if n % 2 == 0 else 1.0)
            self._updates.append(LinkStateUpdate.create(pki, a, a, b, weight, seqno))
        self._applied = 0

    def op(self, i: int) -> None:
        source, dest = self._pairs[i % len(self._pairs)]
        self._routing.k_paths_best_effort(source, dest, 2)

    def tick(self, i: int) -> None:
        if (i + 1) % self.INVALIDATE_EVERY == 0:
            update = self._updates[self._applied]
            self._applied += 1
            # Each update arrives well-spaced so the per-issuer rate
            # limiter never interferes with the cache-invalidation path.
            self._routing.apply_update(update, now=float(self._applied))


class PqEvictionBench(Benchmark):
    """Priority-queue offers at capacity, forcing eviction every time."""

    name = "pq_eviction"
    quick_ops = 3_000
    full_ops = 25_000

    CAPACITY = 256
    SOURCES = 8

    def setup(self, seed: int, total_ops: int) -> None:
        from repro.messaging.message import Message, Semantics
        from repro.messaging.priority import PriorityLinkQueue

        self._queue = PriorityLinkQueue(self.CAPACITY)
        self._messages = [
            Message(
                source=f"s{i % self.SOURCES}",
                dest="sink",
                seq=i,
                semantics=Semantics.PRIORITY,
                priority=1 + i % 10,
            )
            for i in range(total_ops + self.CAPACITY)
        ]
        for i in range(self.CAPACITY):
            self._queue.offer(self._messages[total_ops + i], now=0.0)

    def op(self, i: int) -> None:
        self._queue.offer(self._messages[i], now=0.0)
        if i % 4 == 0:
            self._queue.next_message(0.0)


class MacBatchVerifyBench(Benchmark):
    """Amortized HMAC-SHA256 verification of an 8-packet batch."""

    name = "mac_batch_verify"
    quick_ops = 2_000
    full_ops = 20_000

    BATCH = 8

    def setup(self, seed: int, total_ops: int) -> None:
        import random

        from repro.crypto.mac import BatchMacContext

        rng = random.Random(seed)
        ctx = BatchMacContext(rng.randbytes(32))
        self._ctx = ctx
        messages = [rng.randbytes(256) for _ in range(self.BATCH * 64)]
        self._pairs = [
            [(m, ctx.tag(m)) for m in messages[b * self.BATCH : (b + 1) * self.BATCH]]
            for b in range(64)
        ]

    def op(self, i: int) -> None:
        verdicts = self._ctx.verify_batch(self._pairs[i % 64])
        if not all(verdicts):
            raise RuntimeError("batch MAC verification failed")


#: Registry: stable name -> benchmark class, in report order.
BENCHMARKS: Dict[str, Type[Benchmark]] = {
    bench.name: bench
    for bench in (
        KPathsBench,
        PqEvictionBench,
        MacBatchVerifyBench,
    )
}


#: Measurement repetitions per benchmark; the best run is reported.
#: Like the calibration loop, taking the best of several runs filters
#: transient interference (noisy neighbors, frequency ramps, preemption)
#: and converges on what the code can actually do on this machine.
FULL_REPEATS = 3
QUICK_REPEATS = 2


def run_suite(mode: str = "full", seed: int = 0) -> Dict[str, Any]:
    """Run every registered benchmark; returns the BENCH_perf payload."""
    if mode not in ("quick", "full"):
        raise ValueError(f"unknown perfbench mode {mode!r}")
    repeats = QUICK_REPEATS if mode == "quick" else FULL_REPEATS
    results: List[BenchResult] = []
    for bench_cls in BENCHMARKS.values():
        best: Optional[BenchResult] = None
        for _ in range(repeats):
            bench = bench_cls()
            ops = bench.quick_ops if mode == "quick" else bench.full_ops
            result = run_benchmark(bench, ops, seed=seed)
            if best is None or result.ops_per_sec > best.ops_per_sec:
                best = result
        results.append(best)
    return build_report(results, mode=mode, seed=seed, calibration=calibrate())
