"""Compare two checkouts on the end-to-end benchmark, pair by pair.

The "Comparing two commits" procedure of ``benchmarks/e2e/README.md`` as
one command: each side's *own* ``benchmarks/e2e/run.py`` is run on the
same workload in alternating order (``A B``, ``B A``, ...), a fresh seed
per pair, same ``--seconds``; then, per end-to-end metric, each side's
median and quartiles, the pairs the change won, and the change of the
median against the metric's ``BENCHMARK.json`` bound.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload cloud_flood \\
        [--pairs 10] [--seconds 12] [--first-seed 100] [--output runs.json] \\
        [--counts overlay.node.link_tx_per_msg link.por.acks_per_data ...]

``PARENT`` and ``CHANGE`` are checkout directories (two clones; see the
README).  ``--workload`` may repeat; without it every workload declared
in ``BENCHMARK.json`` runs.  Metrics, bounds and the default run length
are read from the ``BENCHMARK.json`` next to this tool; nothing under
``benchmarks/e2e/`` is edited and nothing is written unless ``--output``
is given.  A run whose oracle fails is reported and counts as a loss for
its side.  ``--counts`` adds, after the pairs, one ``--trace 1`` run per
side (the seed after the last pair's) and prints the named per-layer
metrics parent -> change, plus CPU per link transmission (the pairs' median
``cpu_us_per_msg`` over the traced ``overlay.node.link_tx_per_msg``), so
where a saving sits is shown by the same command as the medians.  Every
run imports from source (bytecode caches are neither read
nor written), so a checkout that happens to hold ``__pycache__`` gets no
head start on ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(ROOT))
from benchmarks.e2e.helpers import worse_by  # noqa: E402  (pure; the self-check's measure)


LINK_TX = "overlay.node.link_tx_per_msg"


def run_once(checkout: pathlib.Path, command: Sequence[str], workload: str,
             seed: int, seconds: float, trace: bool = False) -> Dict[str, Any]:
    """One run of ``checkout``'s benchmark (untraced unless ``trace``);
    its driver line."""
    with tempfile.TemporaryDirectory() as no_bytecode:
        done = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=checkout, capture_output=True, text=True, timeout=1800,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                 "PYTHONPYCACHEPREFIX": no_bytecode},
        )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} crashed:\n{done.stdout}\n{done.stderr}"
        )
    line = json.loads(lines[-1])
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] (inclusive method: defined from two values up)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def beats(value: float, other: float, better: str) -> bool:
    """Whether ``value`` is strictly better than ``other``."""
    return value < other if better == "lower" else value > other


def summarise(metric: Dict[str, Any], parent: List[Dict[str, Any]],
              change: List[Dict[str, Any]]) -> Dict[str, Any]:
    name, better = metric["name"], metric["better"]
    a = [run["metrics"][name] for run in parent]
    b = [run["metrics"][name] for run in change]
    won = lost = 0
    for run_a, run_b in zip(parent, change):
        va, vb = run_a["metrics"][name], run_b["metrics"][name]
        if not run_b["correct"] or (run_a["correct"] and beats(va, vb, better)):
            lost += 1
        elif not run_a["correct"] or beats(vb, va, better):
            won += 1
    qa, qb = quartiles(a), quartiles(b)
    worse = worse_by(qa[1], qb[1], better)
    iqr = qa[2] - qa[0]
    every_better = all(beats(vb, va, better) for va in a for vb in b)
    if worse > metric["bound"]:
        verdict = "REGRESSION"
    elif qa[1] and iqr / abs(qa[1]) > metric["bound"] and not every_better:
        verdict = "unresolved (parent spread > bound)"
    elif won * 10 >= 9 * len(a) and abs(qb[1] - qa[1]) > iqr and worse < 0:
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "metric": name, "unit": metric["unit"], "parent": qa, "change": qb,
        "won": won, "lost": lost, "pairs": len(a), "worse_by": worse,
        "bound": metric["bound"], "verdict": verdict,
    }


def print_table(workload: str, rows: List[Dict[str, Any]],
                parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> None:
    print(f"\n== {workload}: {len(parent)} pairs (q1 / median / q3) ==")
    print(f"{'metric':<20}{'unit':<7}{'parent':>34}{'change':>34}"
          f"{'won':>7}{'median':>9}{'bound':>7}  verdict")
    for row in rows:
        qa = " / ".join(f"{v:.4g}" for v in row["parent"])
        qb = " / ".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['metric']:<20}{row['unit']:<7}{qa:>34}{qb:>34}"
              f"{row['won']:>4}/{row['pairs']:<2}{-row['worse_by']:>+9.1%}"
              f"{row['bound']:>7.1%}  {row['verdict']}")
    for side, runs in (("parent", parent), ("change", change)):
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        wrong = sum(1 for run in runs if not run["correct"])
        print(f"   {side}: {failed}/{attempted} operations failed, "
              f"{wrong} of {len(runs)} runs failed the oracle")
    print("   ('median' is the change's median against the parent's, + = better)")


def traced_counts(sides: Sequence[Any], spec: Dict[str, Any], workload: str,
                  seed: int, seconds: float, names: Sequence[str],
                  summary: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """One traced run per side; print ``names`` (per-layer metrics) parent
    -> change and, from ``summary`` (the pairs), CPU per link transmission."""
    wanted = list(dict.fromkeys([*names, LINK_TX, "trace.valid"]))
    counts = {}
    for side, checkout in sides:
        run = run_once(checkout, spec["command"], workload, seed, seconds, trace=True)
        counts[side] = {name: run["metrics"][name] for name in wanted}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {workload}: one traced run per side, seed {seed} (counts, not timings) ==")
    for name in names:
        print(f"   {name:<46}{counts['parent'][name]:>12.4g} -> "
              f"{counts['change'][name]:<12.4g}{units[name]}")
    cpu = next(row for row in summary if row["metric"] == "cpu_us_per_msg")
    per_tx = {side: cpu[side][1] / counts[side][LINK_TX]
              for side in counts if counts[side][LINK_TX]}
    if len(per_tx) == 2:
        print(f"   {'cpu_us_per_msg / link_tx_per_msg':<46}{per_tx['parent']:>12.4g} -> "
              f"{per_tx['change']:<12.4g}us  (pairs' median CPU over the traced count)")
    for side in counts:
        if counts[side]["trace.valid"] != 1:
            print(f"   WARNING: {side}'s traced run reads trace.valid "
                  f"{counts[side]['trace.valid']:g}")
    return counts


def compare(parent: pathlib.Path, change: pathlib.Path, spec: Dict[str, Any],
            workload: str, pairs: int, seconds: float, first_seed: int,
            counts: Sequence[str] = ()) -> Dict[str, Any]:
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    sides = (("parent", parent), ("change", change))
    for pair in range(pairs):
        seed = first_seed + pair
        for side, checkout in (sides if pair % 2 == 0 else sides[::-1]):
            run = run_once(checkout, spec["command"], workload, seed, seconds)
            run["seed"] = seed
            runs[side].append(run)
            print(f"   {workload} pair {pair + 1}/{pairs} seed {seed} {side:<7}"
                  + " ".join(f"{m['name']}={run['metrics'][m['name']]:.4g}"
                             for m in spec["end_to_end"])
                  + ("" if run["correct"] else "  ORACLE FAIL"),
                  flush=True)
    rows = [summarise(m, runs["parent"], runs["change"]) for m in spec["end_to_end"]]
    print_table(workload, rows, runs["parent"], runs["change"])
    result = {"runs": runs, "summary": rows}
    if counts:
        result["counts"] = traced_counts(
            sides, spec, workload, first_seed + pairs, seconds, counts, rows
        )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every declared workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100,
                        help="pair i runs both sides with seed first-seed + i")
    parser.add_argument("--output", type=pathlib.Path,
                        help="write every run and the summaries here as JSON")
    parser.add_argument("--counts", nargs="+", default=[], metavar="NAME",
                        choices=[m["name"] for m in spec["per_layer"]],
                        help="per-layer metrics to print from one traced run per side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    results = {
        workload: compare(args.parent.resolve(), args.change.resolve(), spec,
                          workload, args.pairs, args.seconds, args.first_seed,
                          args.counts)
        for workload in (args.workload or names)
    }
    if args.output:
        args.output.write_text(json.dumps(results, indent=1, sort_keys=True))
    regressed = any(
        row["verdict"] == "REGRESSION"
        for result in results.values() for row in result["summary"]
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
