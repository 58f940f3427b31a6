"""Workload generators and the experiment harness.

* :mod:`repro.workloads.traffic` — constant-bit-rate and saturating
  traffic generators over both messaging semantics;
* :mod:`repro.workloads.monitoring` — the cloud-monitoring workload of
  Section VI-C (periodic status updates every 1-3 seconds at several
  priority levels);
* :mod:`repro.workloads.experiment` — the scaled-deployment experiment
  harness the benchmarks use to regenerate the paper's tables/figures.
"""

from repro.workloads.experiment import Deployment, SCALE
from repro.workloads.monitoring import MonitoringWorkload
from repro.workloads.traffic import CbrTraffic

__all__ = [
    "CbrTraffic",
    "MonitoringWorkload",
    "Deployment",
    "SCALE",
]
