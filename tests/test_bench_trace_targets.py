"""Every layer boundary the end-to-end benchmark's tracer shims exists.

``benchmarks.e2e.trace.Tracer.install`` skips a ``(owner, name)`` target
the tree no longer has, so a rename would silently move that layer's time
to its caller in the per-layer budget.  This test turns the rename into a
failure: each name in ``LIVE_TARGETS`` and ``SIM_TARGETS`` must resolve the
way ``install`` looks it up (a class's own attribute, a module's global).
"""

from __future__ import annotations

import importlib

import pytest

from benchmarks.e2e.trace import LIVE_TARGETS, SIM_TARGETS

#: Names the shim list still carries for code that was deleted on purpose.
#: The next change to the benchmark drops them from ``trace.py`` (the
#: benchmark's directory is frozen between benchmark changes).
RETIRED = {
    # The kernel-batching send seam: CPython has no sendmmsg, nothing sent
    # through it.
    ("repro.runtime.transport:AsyncioUdpTransport", "sendto_batch"),
}


def _targets():
    seen = set()
    for _layer, owner_path, names in LIVE_TARGETS + SIM_TARGETS:
        for name in names:
            if (owner_path, name) not in seen:
                seen.add((owner_path, name))
                yield pytest.param(owner_path, name, id=f"{owner_path}.{name}")


@pytest.mark.parametrize("owner_path,name", _targets())
def test_shim_target_resolves(owner_path, name):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        present = name in owner.__dict__
    else:
        present = hasattr(owner, name)
    if (owner_path, name) in RETIRED:
        assert not present, f"{owner_path}.{name} is back: take it off RETIRED"
    else:
        assert present, f"the e2e tracer shims {owner_path}.{name}, which is gone"
