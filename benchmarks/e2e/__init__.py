"""End-to-end benchmark of the overlay stack (see README.md in this directory).

Six workloads drive the shipped code through its public entry points only
(`LiveDeployment`, `OverlayNode.send_*`/`on_deliver`, `workloads.experiment.
Deployment`) with load generators of the benchmark's own.  One command runs
them all::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0

and the root ``BENCHMARK.json`` names the single-workload form a driver calls.
"""

import pathlib
import sys

# The benchmark command may name no path outside this directory, so the
# program's sources are put on the import path here rather than through
# PYTHONPATH.  A checkout without ``src/`` fails at the first ``repro`` import.
_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
