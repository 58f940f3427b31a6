"""Determinism guarantees of the simulated substrate.

Two layers of defense:

* **Source audit** — wall-clock reads (``time.time`` /
  ``time.perf_counter`` / ``datetime.now``) are allowed only in the
  opt-in profiling paths (the event-loop profiler in ``sim/engine.py``
  and the tracing spans in ``telemetry``) and in the live runtime, which
  is wall-clock by definition.  A stray ``time.time()`` anywhere else
  silently breaks reproducibility, so the audit fails the build instead.
* **End-to-end regression** — the seeded ``repro stats`` report must be
  byte-identical across separate interpreter invocations, including
  under different ``PYTHONHASHSEED`` values (which perturb set/dict
  iteration of str keys — exactly the kind of hidden nondeterminism the
  registry design is supposed to exclude).
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to read the wall clock, and why.
WALL_CLOCK_ALLOWED = {
    "sim/engine.py",            # opt-in event-loop profiler only
    "telemetry/profiling.py",   # wall-clock profile report
    "telemetry/tracing.py",     # span timing (opt-in)
    "runtime/scheduler.py",     # the live runtime IS wall-clock
    "runtime/live.py",
    "runtime/transport.py",
    "cluster/deployment.py",    # multi-process coordinator: the shared
                                # CLOCK_MONOTONIC epoch it distributes
}

WALL_CLOCK_PATTERN = re.compile(
    r"time\.(?:time|perf_counter|monotonic|process_time)\s*\("
    r"|datetime\.(?:datetime\.)?(?:now|utcnow|today)\s*\("
)


def test_wall_clock_reads_are_confined_to_profiling_and_live_runtime():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in WALL_CLOCK_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if WALL_CLOCK_PATTERN.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "wall-clock read outside the allowed profiling/live modules "
        "(breaks simulation determinism):\n" + "\n".join(offenders)
    )


def test_sim_engine_wall_clock_is_profiler_gated():
    # The only wall-clock use in the engine must sit behind the
    # ``profiler is None`` fast path; the audit above keeps it from
    # spreading, this pins the specific discipline inside engine.py.
    text = (SRC / "sim" / "engine.py").read_text()
    uses = text.count("time.perf_counter()")
    assert uses == 2, "engine.py should time events only around the profiler"
    assert "if profiler is None:" in text
    assert "time.time()" not in text


def _stats_json(tmp_path: pathlib.Path, tag: str, hashseed: str) -> bytes:
    out = tmp_path / f"stats_{tag}.json"
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "stats",
            "--seconds", "2", "--flows", "1", "--seed", "11",
            "--output", str(out),
        ],
        env={
            "PYTHONPATH": str(SRC.parent),
            "PYTHONHASHSEED": hashseed,
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return out.read_bytes()


@pytest.mark.slow
def test_seeded_stats_report_is_byte_identical_across_invocations(tmp_path):
    first = _stats_json(tmp_path, "a", hashseed="0")
    second = _stats_json(tmp_path, "b", hashseed="1")
    assert first == second, (
        "seeded `repro stats` output differs between interpreter "
        "invocations — a wall-clock read or hash-order dependency has "
        "crept into the simulated substrate"
    )
