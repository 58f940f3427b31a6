"""Dependency-free coverage measurements for environments without coverage.py.

Two modes.

Line coverage (the default) runs the test suite in-process under a
``sys.settrace`` tracer restricted to ``src/repro`` and prints per-file and
total line coverage.  This is a measurement aid for choosing the CI coverage
floor (CI itself uses pytest-cov, whose C tracer is fast enough to gate on);
the pure-Python tracer here costs roughly an order of magnitude in wall
clock, so it is not wired into any test tier::

    PYTHONPATH=src python tools/linecov.py [pytest args...]

Statement universes are derived from compiled code objects (``co_lines``),
which is the same notion of "executable line" the stdlib ``trace`` module
uses and close to coverage.py's statement set — close enough to pick a
conservative ``--cov-fail-under`` value.

Reachability (``reach``) answers "which source does only ``tests/`` reach?".
It records ``call`` events with ``sys.setprofile`` (no line events: a plain
``pytest benchmarks`` run already takes about 14 minutes, and line tracing
would make it hours) while driving the program from its real entry points
only, never from ``tests/``::

    python tools/linecov.py reach [cli] [examples] [benchmarks] [e2e]

* ``cli`` — every ``repro`` subcommand the way CI invokes it, plus
  ``stats --live``, a 12-node/2-shard ``cluster`` and each chaos preset;
* ``examples`` — every ``examples/*.py``;
* ``benchmarks`` — ``pytest benchmarks --ignore=benchmarks/e2e`` (with
  ``--benchmark-disable``: each benchmarked function runs once, untimed);
* ``e2e`` — ``benchmarks/e2e/run.py --seconds 4 --trace 0`` on each of the
  six workloads, plus one ``--trace 1`` run.

With no group named, all four run.  Every Python process the entry points start
(the cluster's spawned workers, the benchmark's subprocesses) is followed:
a generated ``sitecustomize`` module put first on their ``PYTHONPATH``
installs the same hook and writes what it saw when the process exits (or
is sent SIGTERM).  A process killed outright reports nothing.

It prints, per file, the outermost functions no process entered (a nested
function of an unentered one is not listed again) with their line counts,
then the functions entered only in child processes — code that runs only
in spawned cluster workers, which an in-process profiler would have called
dead — then the totals.  Declaration-only bodies (a docstring, ``...``,
``pass`` or ``raise NotImplementedError``: protocol stubs and default
hooks) are not units and are skipped.

Run ``reach`` on a scratch copy of the repository: ``pytest benchmarks``
rewrites ``benchmarks/results/``.
"""

from __future__ import annotations

import ast
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

_executed: set = set()
_interesting_cache: dict = {}


def _is_interesting(code) -> bool:
    flag = _interesting_cache.get(code)
    if flag is None:
        flag = code.co_filename.startswith(str(SRC_ROOT))
        _interesting_cache[code] = flag
    return flag


def _local_trace(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call" and _is_interesting(frame.f_code):
        return _local_trace
    return None


def _executable_lines(path: pathlib.Path) -> set:
    """Every line holding executable code, from the compiled code objects."""
    lines = set()
    code = compile(path.read_text(), str(path), "exec")
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def line_coverage(argv) -> int:
    import pytest

    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        exit_code = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    per_file = []
    total_exec = 0
    total_hit = 0
    for path in sorted(SRC_ROOT.rglob("*.py")):
        executable = _executable_lines(path)
        if not executable:
            continue
        hit = {line for file, line in _executed if file == str(path)}
        hit &= executable
        total_exec += len(executable)
        total_hit += len(hit)
        per_file.append(
            (100.0 * len(hit) / len(executable), len(hit), len(executable), path)
        )

    print()
    print(f"{'cover':>7}  {'hit':>5}/{'stmts':<5}  file")
    for pct, hit, executable, path in sorted(per_file):
        rel = path.relative_to(SRC_ROOT.parent)
        print(f"{pct:6.1f}%  {hit:5d}/{executable:<5d}  {rel}")
    total_pct = 100.0 * total_hit / max(total_exec, 1)
    print(f"TOTAL {total_pct:.2f}% ({total_hit}/{total_exec} lines)")
    return exit_code


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
#: ``repro`` invocations: first as CI runs them, then the subcommands and
#: variants CI does not run.  ``{out}`` is a scratch output directory.
CLI_RUNS = (
    ["perfbench", "--quick", "--seed", "0",
     "--baseline", "benchmarks/results/BENCH_perf.json",
     "--output", "{out}/bench-quick.json"],
    ["stats", "--seed", "0", "--seconds", "5", "--flows", "2",
     "--output", "{out}/metrics.json"],
    ["live", "--nodes", "4", "--duration", "5", "--min-delivery", "0.99",
     "--output", "{out}/live-report.json"],
    ["live", "--nodes", "5", "--duration", "6", "--chaos", "soak", "--seed", "3",
     "--min-delivery", "0.99", "--output", "{out}/live-chaos-report.json"],
    ["overload", "--nodes", "16", "--duration", "10", "--drain", "4",
     "--base-rate", "150", "--multipliers", "1,4,10", "--seed", "2016",
     "--min-goodput", "0.9", "--output", "{out}/BENCH_overload.json"],
    ["slo", "--nodes", "16", "--duration", "15", "--drain", "6",
     "--base-rate", "60", "--multipliers", "1,10", "--intensity", "2",
     "--seed", "2016", "--min-success", "0.99",
     "--output", "{out}/BENCH_client_slo.json"],
    ["info"],
    ["demo", "--seed", "7"],
    ["experiment", "--seconds", "10", "--flows", "2"],
    ["turret", "--iterations", "2", "--seconds", "3"],
    ["chaos", "--seconds", "30", "--seed", "3", "--preset", "link",
     "--print-schedule"],
    ["chaos", "--seconds", "30", "--seed", "3", "--preset", "full", "--adaptive"],
    ["chaos", "--seconds", "30", "--seed", "3", "--preset", "soak",
     "--fixed-recovery"],
    ["stats", "--seconds", "5", "--flows", "2", "--semantics", "reliable",
     "--profile", "--trace", "--format", "csv"],
    ["stats", "--live", "--seconds", "2", "--seed", "5"],
    ["live", "--nodes", "4", "--duration", "3", "--method", "kpaths",
     "--chaos", "full", "--adaptive"],
    ["cluster", "--nodes", "12", "--shards", "2", "--duration", "6",
     "--rate", "5", "--seed", "4", "--chaos", "soak"],
)

#: Runs whose gate cannot pass under the profile hook, so exit 1 is their
#: expected status: the hook slows perfbench's timed loops about twofold
#: (a quick run read 0.46x and 0.56x of the baseline), and the gate code
#: that reports the regression is still entered.
GATE_FAILS_UNDER_HOOK = ("repro perfbench",)

E2E_WORKLOADS = (
    "link_small", "cloud_kpaths", "cloud_flood", "cloud_reliable",
    "cloud_paced", "sim_cloud",
)

#: The ``sitecustomize`` every child process imports at start-up
#: (``@SRC@`` and ``@DUMP_DIR@`` are filled in per run).
_CHILD_HOOK = """\
import atexit, os, signal, sys, threading

_seen = {}
_src = @SRC@


def _profile(frame, event, arg):
    if event == "call":
        _seen[id(frame.f_code)] = frame.f_code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = [
        f"{code.co_filename}\\t{code.co_qualname}\\t{code.co_firstlineno}\\n"
        for code in list(_seen.values())
        if code.co_filename.startswith(_src)
    ]
    if not lines:
        return
    try:
        with open(os.path.join(@DUMP_DIR@, str(os.getpid())), "w") as out:
            out.writelines(lines)
    except OSError:
        pass  # outlived the run (e.g. multiprocessing's resource tracker)


def _on_sigterm(signum, frame):
    _dump()
    os._exit(128 + signum)


atexit.register(_dump)
signal.signal(signal.SIGTERM, _on_sigterm)
threading.setprofile(_profile)
sys.setprofile(_profile)
"""

_entered: dict = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        # Keyed by id, holding the code object so the id is never reused.
        _entered[id(code)] = code


def _run_cli(out: str):
    from repro import cli

    for argv in CLI_RUNS:
        argv = [arg.format(out=out) for arg in argv]
        yield "repro " + " ".join(argv), lambda argv=argv: cli.main(argv)


def _run_examples(out: str):
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        yield (f"examples/{path.name}",
               lambda path=path: runpy.run_path(str(path), run_name="__main__"))


def _run_benchmarks(out: str):
    import pytest

    # pytest-benchmark switches the profile hook off while it times a
    # function; disabled, it runs the function once, untimed, hook on.
    argv = ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
            "benchmarks", "--ignore=benchmarks/e2e"]
    yield "pytest " + " ".join(argv), lambda: pytest.main(argv)


def _run_e2e(out: str):
    from benchmarks.e2e import run

    for workload in E2E_WORKLOADS:
        argv = ["--workload", workload, "--seconds", "4", "--trace", "0"]
        yield "e2e " + " ".join(argv), lambda argv=argv: run.main(argv)
    argv = ["--workload", "cloud_flood", "--seconds", "4", "--trace", "1"]
    yield "e2e " + " ".join(argv), lambda: run.main(argv)


ENTRY_POINTS = {
    "cli": _run_cli,
    "examples": _run_examples,
    "benchmarks": _run_benchmarks,
    "e2e": _run_e2e,
}


def _is_stub(node) -> bool:
    """A body with no behaviour: docstring, ``...``, ``pass`` or ``raise
    NotImplementedError``."""
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def _unentered(path: pathlib.Path, entered: set):
    """``(qualname, first line, line count)`` of each outermost function of
    ``path`` that was never entered, plus the file's function count and
    line total.  ``entered`` holds ``(file, qualname, first line)``."""
    tree = ast.parse(path.read_text(), str(path))
    filename = str(path)
    found = []
    totals = [0, 0]

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stub(node):
                    continue
                qualname = prefix + node.name
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                lines = node.end_lineno - first + 1
                totals[0] += 1
                totals[1] += lines
                if (filename, qualname, first) in entered:
                    visit(node.body, f"{qualname}.<locals>.")
                else:
                    found.append((qualname, first, lines))
            else:
                # Definitions under if/try/with blocks at any level.
                for field in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field, None)
                    if isinstance(inner, list):
                        visit(inner, prefix)

    visit(tree.body, "")
    return found, totals[0], totals[1]


def _run_entry_points(groups, out: str):
    """Run the entry-point groups under the profile hook; the labels of the
    runs that did not exit 0 (or, for ``GATE_FAILS_UNDER_HOOK``, 1)."""
    failures = []
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        for group in groups or ENTRY_POINTS:
            for label, run in ENTRY_POINTS[group](out):
                print(f"[reach] {label}", flush=True)
                try:
                    result = run()
                except SystemExit as exc:
                    result = exc.code
                except Exception:
                    traceback.print_exc()
                    result = "exception"
                expected = (None, 0, 1) if label.startswith(
                    GATE_FAILS_UNDER_HOOK) else (None, 0)
                if result not in expected and not isinstance(result, dict):
                    failures.append(f"{label}: exit {result}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return failures


def reachability(groups) -> int:
    unknown = [group for group in groups if group not in ENTRY_POINTS]
    if unknown:
        print(f"unknown group(s): {', '.join(unknown)}; "
              f"choose from {', '.join(ENTRY_POINTS)}", file=sys.stderr)
        return 2
    os.chdir(REPO_ROOT)
    for path in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    with tempfile.TemporaryDirectory() as out:
        hook_dir = os.path.join(out, "hook")
        dump_dir = os.path.join(out, "children")
        os.mkdir(hook_dir)
        os.mkdir(dump_dir)
        hook = _CHILD_HOOK.replace("@SRC@", repr(str(SRC_ROOT)))
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(
            hook.replace("@DUMP_DIR@", repr(dump_dir))
        )
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        )
        failures = _run_entry_points(groups, out)
        children = set()
        reports = sorted(pathlib.Path(dump_dir).iterdir())
        for report in reports:
            for line in report.read_text(encoding="utf-8").splitlines():
                filename, qualname, first = line.split("\t")
                children.add((filename, qualname, int(first)))

    in_main = {
        (code.co_filename, code.co_qualname, code.co_firstlineno)
        for code in _entered.values()
        if code.co_filename.startswith(str(SRC_ROOT))
    }
    entered = in_main | children
    dead = [0, 0]
    child_only = []
    units = [0, 0]
    print()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = f"src/repro/{path.relative_to(SRC_ROOT).as_posix()}"
        found, count, lines = _unentered(path, entered)
        units[0] += count
        units[1] += lines
        unseen_here, _, _ = _unentered(path, in_main)
        child_only += [(rel, unit) for unit in unseen_here if unit not in found]
        if not found:
            continue
        dead[0] += len(found)
        dead[1] += sum(n for _, _, n in found)
        print(rel)
        for qualname, first, n in found:
            print(f"  {n:5d}  {first:5d}  {qualname}")
    print()
    print("entered only in child processes (spawned cluster workers, "
          "benchmark subprocesses):")
    for rel, (qualname, first, n) in child_only:
        print(f"  {n:5d}  {first:5d}  {rel}  {qualname}")
    print()
    print(f"functions: {units[0]} ({units[1]} lines); child processes reported: "
          f"{len(reports)}")
    print(f"UNENTERED: {dead[0]} outermost functions, {dead[1]} lines")
    print(f"entered only in child processes: {len(child_only)} functions, "
          f"{sum(n for _, (_, _, n) in child_only)} lines")
    for failure in failures:
        print(f"did not exit 0: {failure}")
    return 0


def main(argv) -> int:
    if argv[:1] == ["reach"]:
        return reachability(argv[1:])
    return line_coverage(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
