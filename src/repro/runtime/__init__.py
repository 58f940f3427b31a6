"""Live-emulation runtime: the overlay stack over real asyncio/UDP sockets.

This package lets the *same* protocol code that runs inside the
discrete-event simulator run over real sockets on localhost:

* :mod:`repro.runtime.interfaces` — the ``Clock`` / ``Scheduler`` /
  ``Transport`` seam both substrates implement;
* :mod:`repro.runtime.wire` — the deterministic datagram codec;
* :mod:`repro.runtime.scheduler` — :class:`AsyncioScheduler`, the
  wall-clock implementation of the scheduler interface;
* :mod:`repro.runtime.transport` — UDP transports and per-link channels;
* :mod:`repro.runtime.live` — :class:`NodeProcess` and
  :class:`LiveDeployment`, the N-node boot/run/shutdown harness behind
  ``python -m repro live``.

Submodules are imported lazily (PEP 562) so that low-level modules such
as ``repro.sim.engine`` can reference :mod:`repro.runtime.interfaces`
without dragging the asyncio stack (and its protocol-layer imports) into
every simulation.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "AsyncioScheduler": "repro.runtime.scheduler",
    "AsyncioUdpTransport": "repro.runtime.transport",
    "ChaosUdpTransport": "repro.runtime.chaos",
    "Datagram": "repro.runtime.wire",
    "DatagramFaultInjector": "repro.runtime.chaos",
    "LiveChaosEngine": "repro.runtime.chaos",
    "LiveDeployment": "repro.runtime.live",
    "LiveConfig": "repro.runtime.live",
    "LiveReport": "repro.runtime.live",
    "NodeProcess": "repro.runtime.live",
    "NodeSupervisor": "repro.runtime.supervision",
    "decode_datagram": "repro.runtime.wire",
    "encode_datagram": "repro.runtime.wire",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
