"""Regression tests for the client sweeps (overload, SLO under fire).

The simulator is deterministic, so a sweep report is a pure function of
its arguments.  ``tests/data/sweeps_parent.json`` holds both reports at
a reduced fixed scale, captured from the commit *before* the two sweeps
were folded onto one driver (``repro.clients.overload.run_sweep``); the
refactored sweeps must reproduce them byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.clients.overload import run_overload, stage_for
from repro.clients.slo import run_slo

PARENT = json.loads((Path(__file__).parent / "data" / "sweeps_parent.json").read_text())

SCALE = dict(seed=0, nodes=8, drain=2.0, multipliers=(1.0, 4.0))


@pytest.mark.parametrize(
    "name, sweep, duration, labels",
    [
        ("overload", run_overload, 4.0,
         ["admission=on x1", "admission=on x4", "admission=off x1", "admission=off x4"]),
        ("slo", run_slo, 8.0,
         ["sessions=on x1", "sessions=on x4", "sessions=off x1", "sessions=off x4"]),
    ],
)
def test_sweep_report_is_byte_identical_to_parent(name, sweep, duration, labels):
    seen = []
    report = sweep(duration=duration, progress=seen.append, **SCALE)
    assert seen == labels  # arms outer, multipliers inner
    assert json.dumps(report, sort_keys=True) == json.dumps(
        PARENT[name], sort_keys=True
    )


def test_stage_for_selects_by_arm_and_multiplier():
    class Stage:
        def __init__(self, on, multiplier):
            self.admission, self.multiplier = on, multiplier

    stages = [Stage(True, 1.0), Stage(True, 4.0), Stage(False, 1.0)]
    assert stage_for(stages, "admission", True, 4.0) is stages[1]
    assert stage_for(stages, "admission", False, 1.0) is stages[2]
    assert stage_for(stages, "admission", False, 4.0) is None
