"""Every config field has a driver.

A field of a config dataclass earns its place only when a *driver* sets
it: library code under ``src/repro``, a benchmark (``benchmarks/``,
``e2e`` included) or an example.  A value only tests set, or nobody, is
a module constant in the code that reads it (tests reach it with
``monkeypatch.setattr``).  The census below finds the setters with
``ast``: keyword arguments in calls to the class, and in
``dataclasses.replace`` calls whose target resolves to the class.  A
``Cls(**payload)`` call sets no field.  The keep-list names the few
driverless fields that stay, each with its reason.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, Optional, Set

from repro.clients.generators import ClientWorkloadConfig
from repro.clients.session import SessionConfig, SessionWorkloadConfig
from repro.cluster.spec import ClusterConfig
from repro.link.por import PorConfig
from repro.messaging.admission import AdmissionConfig
from repro.overlay.config import DefenseConfig, OverlayConfig
from repro.runtime.live import LiveConfig
from repro.sim.channel import ChannelConfig
from repro.sim.cpu import CpuCosts

ROOT = Path(__file__).resolve().parents[1]
DRIVER_DIRS = ("src/repro", "benchmarks", "examples")

CONFIG_CLASSES = {
    cls.__name__: cls
    for cls in (
        OverlayConfig, DefenseConfig, PorConfig, LiveConfig, ClusterConfig,
        AdmissionConfig, ChannelConfig, ClientWorkloadConfig, SessionConfig,
        SessionWorkloadConfig, CpuCosts,
    )
}

#: Driverless fields that stay, and why.
KEEP = {
    ("OverlayConfig", "crypto"):
        "the frozen e2e oracle (check_defended) and its README read it; "
        "ROADMAP item 7 runs REAL mode",
    ("PorConfig", "check_macs"):
        "the frozen e2e oracle (check_defended) and its README read it; "
        "ROADMAP item 7 runs REAL mode",
    ("ClusterConfig", "host"): "a deployment address",
    ("ClusterConfig", "session_rate"):
        "gates the off-by-default cluster session tier, which "
        "test_cluster_live turns on",
    ("ChannelConfig", "jitter"):
        "PAPER.md's substitution record names channel jitter as modelled",
}

#: Field name -> config class, for fields that hold a nested config
#: (``overlay.defense`` resolves to DefenseConfig).
NESTED = {
    f.name: f.type.split("[")[-1].rstrip("]")
    for cls in CONFIG_CLASSES.values()
    for f in dataclasses.fields(cls)
    if f.type.split("[")[-1].rstrip("]") in CONFIG_CLASSES
}


def _called_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """The config class an annotation names (``Optional[X]`` included)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Subscript):
        return _annotation_class(node.slice)
    name = _called_name(node)
    return name if name in CONFIG_CLASSES else None


class _Resolver:
    """Resolves an expression to the config class its value has.

    Names are resolved file-wide (assignments, annotated assignments and
    annotated parameters), then through the module-level constants of
    every driver file, so ``replace(OVERLOAD_ADMISSION, ...)`` in one
    module resolves to the class another module built it with.
    """

    def __init__(self, constants: Dict[str, ast.expr]):
        self.constants = constants
        self.bindings: Dict[str, list] = {}

    def bind_file(self, tree: ast.Module) -> None:
        self.bindings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.bindings.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.bindings.setdefault(node.target.id, []).append(node.annotation)
                if node.value is not None:
                    self.bindings[node.target.id].append(node.value)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                self.bindings.setdefault(node.arg, []).append(node.annotation)

    def resolve(self, node: ast.expr, seen: Optional[Set[str]] = None) -> Optional[str]:
        seen = set() if seen is None else seen
        if isinstance(node, ast.Call):
            name = _called_name(node.func)
            if name in CONFIG_CLASSES:
                return name
            if name == "replace" and node.args:
                return self.resolve(node.args[0], seen)
            return None
        if isinstance(node, ast.Attribute):
            return NESTED.get(node.attr)
        if isinstance(node, ast.Subscript):
            return _annotation_class(node)
        if isinstance(node, ast.Name):
            if node.id in CONFIG_CLASSES or node.id in seen:
                return None
            seen.add(node.id)
            values = self.bindings.get(node.id) or (
                [self.constants[node.id]] if node.id in self.constants else []
            )
            for value in values:
                cls = _annotation_class(value) or self.resolve(value, seen)
                if cls is not None:
                    return cls
        return None


def _driver_files() -> Iterable[Path]:
    for directory in DRIVER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


def census(files: Iterable[Path]) -> Dict[str, Set[str]]:
    """Config class -> the fields some call in ``files`` sets by keyword."""
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    constants = {
        target.id: node.value
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    resolver = _Resolver(constants)
    setters: Dict[str, Set[str]] = {name: set() for name in CONFIG_CLASSES}
    for tree in trees:
        resolver.bind_file(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            if name in CONFIG_CLASSES:
                cls = name
            elif name == "replace" and node.args:
                cls = resolver.resolve(node.args[0])
            else:
                continue
            if cls is not None:
                setters[cls].update(kw.arg for kw in node.keywords if kw.arg)
    return setters


def _census_of(source: str, tmp_path: Path) -> Dict[str, Set[str]]:
    path = tmp_path / "driver.py"
    path.write_text(source)
    return census([path])


def test_every_config_field_has_a_driver_or_a_reason():
    setters = census(_driver_files())
    driverless = sorted(
        f"{name}.{f.name}"
        for name, cls in CONFIG_CLASSES.items()
        for f in dataclasses.fields(cls)
        if f.name not in setters[name] and (name, f.name) not in KEEP
    )
    assert not driverless, (
        "config fields no driver sets (make them module constants, or "
        f"add them to KEEP with a reason): {', '.join(driverless)}"
    )


def test_keep_list_names_real_driverless_fields():
    setters = census(_driver_files())
    for (name, field_name), reason in KEEP.items():
        assert reason
        assert field_name in {f.name for f in dataclasses.fields(CONFIG_CLASSES[name])}
        assert field_name not in setters[name], f"{name}.{field_name} has a driver now"


def test_census_resolves_replace_targets(tmp_path):
    setters = _census_of(
        "import dataclasses\n"
        "from dataclasses import replace\n"
        "BASE = AdmissionConfig(capacity_rate=1.0)\n"
        "def run(workload: Optional[ClientWorkloadConfig] = None):\n"
        "    overlay = OverlayConfig()\n"
        "    overlay = dataclasses.replace(\n"
        "        overlay, defense=dataclasses.replace(overlay.defense, recovery_period=2.0))\n"
        "    replace(workload, arrival_rate=3.0)\n"
        "    replace(BASE, per_destination=True)\n",
        tmp_path,
    )
    assert setters["OverlayConfig"] == {"defense"}
    assert setters["DefenseConfig"] == {"recovery_period"}
    assert setters["ClientWorkloadConfig"] == {"arrival_rate"}
    assert setters["AdmissionConfig"] == {"capacity_rate", "per_destination"}


def test_census_ignores_splats_and_other_dataclasses(tmp_path):
    # A ``replace`` on a Message (byzantine behaviors halve its
    # ``size_bytes``) is not a driver of the workload configs' field of
    # the same name, and ``Cls(**payload)`` names no field.
    setters = _census_of(
        "import dataclasses\n"
        "def tamper(payload: Message):\n"
        "    return dataclasses.replace(payload, size_bytes=payload.size_bytes // 2)\n"
        "def mutate(message):\n"
        "    return dataclasses.replace(message, size_bytes=1)\n"
        "def free():\n"
        "    return CpuCosts(**{name: 0.0 for name in FIELDS})\n",
        tmp_path,
    )
    assert all(not fields for fields in setters.values())
