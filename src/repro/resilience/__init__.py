"""The resilient networking architecture (Section IV).

The overlay's channels ride on an *underlay* of multiple ISP networks:

* :mod:`repro.resilience.underlay` — ISP contracts and multihoming: an
  overlay link is usable while at least one (ISP-at-A, ISP-at-B)
  combination still passes traffic (Figure 1);
* :mod:`repro.resilience.bgp` — BGP hijacking: cross-ISP routes are
  diverted, same-ISP routes survive (Section IV-B);
* :mod:`repro.resilience.ddos` — Crossfire/Coremelt-style rotating
  link-flooding attacks that keep a path broken while evading per-link
  detection (Figure 2);
* :mod:`repro.resilience.variants` — diverse software-variant assignment
  (Newell et al., DSN'13) maximizing connectivity when one variant is
  compromised;
* :mod:`repro.resilience.adaptive` — proactive recovery (periodically
  restore each node from a clean state with a fresh variant) under a
  feedback-controlled defense: telemetry-driven compromise beliefs
  steering recovery timing and quarantine vigilance under a global
  downtime budget; ``adaptive=False`` is the paper's fixed rotation.
"""

from repro.resilience.adaptive import (
    AdaptiveDefense,
    BeliefEstimator,
    GlobalBudget,
    LiveRecoveryActuator,
    SimRecoveryActuator,
)
from repro.resilience.bgp import BgpHijack
from repro.resilience.ddos import RotatingLinkAttack
from repro.resilience.underlay import Underlay
from repro.resilience.variants import (
    assign_variants,
    connectivity_under_variant_failure,
)

__all__ = [
    "Underlay",
    "BgpHijack",
    "RotatingLinkAttack",
    "AdaptiveDefense",
    "BeliefEstimator",
    "GlobalBudget",
    "SimRecoveryActuator",
    "LiveRecoveryActuator",
    "assign_variants",
    "connectivity_under_variant_failure",
]
