"""Every function has a driver.

The function-level sibling of ``test_config_census.py``.  A function,
method or class defined under ``src/repro`` earns its place only when a
*driver* names it: library code under ``src/``, a benchmark
(``benchmarks/``, ``e2e`` included), an example or a tool.  The census
parses those files with ``ast`` and collects every identifier they use:
``Name`` nodes, attribute names, imported names, and identifier-shaped
words inside string constants (``benchmarks/e2e/trace.py`` names its
patch targets as strings).  Imports and strings inside a package's
``__init__.py`` do not count: a re-export is not a use.

The check is static and errs toward passing: a name that collides with
any other identifier passes.  ``tools/linecov.py reach``, which records
what the entry points actually enter, stays the measurement; the census
only stops driverless code from growing back.  The keep-list names the
few driverless units that stay, each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DRIVER_DIRS = ("src", "benchmarks", "examples", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Driverless units that stay, and why.
KEEP = {
    "E2eAckSpamAttack":
        "an adversary: the attack catalogue's E2E-ACK spam, run by the "
        "byzantine tests",
    "ReplayAttack":
        "an adversary: the attack catalogue's replay, run by the byzantine "
        "tests",
    "capture_behavior":
        "an adversary: the replay attack's capture half",
    "replay_all":
        "an adversary: the replay attack's replay half",
    "CrashSchedule":
        "an adversary: the attack catalogue's timed crash/recovery script "
        "(Figure 9's partition events)",
    "admitted_ids":
        "a conformance driver: the offers ScriptedOverload saw admitted, "
        "compared across substrates",
    "arm_fairness":
        "an oracle: the fair-share floor that ROADMAP items 8(a) and 11 "
        "reuse",
    "balance":
        "an oracle: the admission ledger's conservation law",
    "brute_force_assignment":
        "the exhaustive reference the MTMW assignment search is checked "
        "against",
    "connection_made":
        "asyncio protocol parity: the event loop calls it, no driver names it",
    "error_received":
        "asyncio protocol parity: the event loop calls it, no driver names it",
}


def _driver_files() -> Iterator[Path]:
    for directory in DRIVER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _is_package_init(path: Path) -> bool:
    parts = path.parts
    return path.name == "__init__.py" and any(
        parts[i:i + 2] == ("src", "repro") for i in range(len(parts) - 1)
    )


def used_names(files: Iterable[Path]) -> Set[str]:
    """Every identifier the given files use."""
    names: Set[str] = set()
    for path in files:
        reexport_only = _is_package_init(path)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif reexport_only:
                continue
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(WORD.findall(node.value))
    return names


def definitions(root: Path = SRC) -> List[Tuple[str, str, int]]:
    """``(name, path, lines)`` for every non-dunder function, method and class."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            lines = node.end_lineno - node.lineno + 1
            found.append((node.name, str(path.relative_to(ROOT)), lines))
    return found


def driverless() -> Dict[str, Tuple[str, int]]:
    used = used_names(_driver_files())
    return {
        name: (path, lines)
        for name, path, lines in definitions()
        if name not in used
    }


def test_every_unit_has_a_driver_or_a_reason():
    missing = sorted(
        f"{path}: {name} ({lines} lines)"
        for name, (path, lines) in driverless().items()
        if name not in KEEP
    )
    assert not missing, (
        "functions, methods or classes no driver names (delete them, move "
        "a test fixture to tests/, or add them to KEEP with a reason):\n"
        + "\n".join(missing)
    )


def test_keep_list_names_real_driverless_units():
    defined = {name for name, _, _ in definitions()}
    unused = driverless()
    for name, reason in KEEP.items():
        assert reason
        assert name in defined, f"{name} is no longer defined under src/repro"
        assert name in unused, f"{name} has a driver now"


def test_census_counts_uses_not_definitions_or_reexports(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from .mod import exported\n__all__ = ["exported"]\n'
    )
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def exported():\n"
        "    return 2\n"
        "def patched():\n"
        "    return 3\n"
    )
    driver = tmp_path / "driver.py"
    driver.write_text(
        "from repro.pkg.mod import Thing\n"
        "Thing().method()\n"
        "TARGETS = ('repro.pkg.mod.patched',)\n"
    )
    files = [package / "__init__.py", package / "mod.py", driver]
    used = used_names(files)
    assert {"Thing", "method", "helper", "patched"} <= used
    assert "exported" not in used
