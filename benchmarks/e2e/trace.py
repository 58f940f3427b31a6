"""Timing shims installed from outside on the stack's layer boundaries.

A shim replaces a class attribute (or a by-name import such as
``repro.runtime.transport.decode_datagram``) with a wrapper that records one
span — layer, start, end, parent — in preallocated arrays.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` restores every original.

Two kinds of target are shimmed.  *Boundaries* are the public functions a
layer is entered through (``OverlayNode.on_link_deliver``, ``PorEndpoint.
send``, ``encode_datagram`` ...).  *Entry points* are where the event loop or
the simulator enters the stack without passing a boundary — timer callbacks
such as ``PorEndpoint._ack_timer_fire`` and the coalesced-send flush
``UdpSendChannel._flush`` — and are private; without them timer-driven work
would be charged to whichever layer's timer fired it.  Hooks that were bound
before the patch (``por.on_ready``, a sim channel's ``on_receive``) are
re-assigned by :func:`rebind_hooks` so they reach the shim too.

Accounting.  Span times are wall-clock (``perf_counter_ns``: ~70 ns, against
~400 ns for the CPU clock).  A layer's self time is its spans' duration minus
their direct children.  CPU used outside every span — asyncio internals, the
selector, the first ``recvfrom`` of a wakeup, gc — is measured separately with
the process CPU clock at root-span edges, so "rows plus unattributed equals
traced CPU" is a real check: it fails when spans were stretched by preemption
or the shims missed an entry point.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

from benchmarks.e2e.helpers import span_self_times

#: Layer = module name under ``src/repro`` (``bench.generator`` is the
#: benchmark's own send/deliver/poll code).
LAYERS: Tuple[str, ...] = (
    "runtime.wire",
    "runtime.transport",
    "runtime.scheduler",
    "link.por",
    "crypto",
    "overlay.node",
    "messaging.metadata",
    "dissemination-routing",
    "messaging.priority",
    "messaging.reliable",
    "sim.stats",
    "sim.engine",
    "bench.generator",
)

#: (layer, "module:Class" or "module", attribute names) — both substrates.
COMMON_TARGETS = (
    ("link.por", "repro.link.por:PorEndpoint",
     ("send", "_on_timeout", "_ack_timer_fire", "_fire_ready")),
    ("crypto", "repro.crypto.pki:Pki", ("verify",)),
    ("crypto", "repro.crypto.pki:Identity", ("sign",)),
    ("crypto", "repro.crypto.mac:BatchMacContext", ("tag", "verify_batch")),
    ("overlay.node", "repro.overlay.node:OverlayNode",
     ("on_link_deliver", "send_priority", "send_reliable", "deliver_local")),
    ("overlay.node", "repro.overlay.node:LinkSender", ("pump",)),
    ("messaging.metadata", "repro.messaging.metadata:MetadataStore",
     ("seen", "check_and_record")),
    ("dissemination-routing", "repro.messaging.priority",
     ("flood_targets", "path_successors")),
    ("dissemination-routing", "repro.messaging.reliable", ("path_targets",)),
    ("dissemination-routing", "repro.routing.state:RoutingState",
     ("k_paths_tuple", "shortest_path")),
    ("messaging.priority", "repro.messaging.priority:PriorityEngine",
     ("handle", "note_duplicate")),
    ("messaging.priority", "repro.messaging.priority:PriorityLinkQueue",
     ("offer", "next_message", "cancel")),
    ("messaging.reliable", "repro.messaging.reliable:ReliableEngine",
     ("try_send", "can_send", "handle", "note_duplicate", "handle_e2e_ack",
      "handle_neighbor_ack", "next_for_link", "has_work_for_link",
      "generate_e2e_ack", "check_stalls", "_flush_neighbor_acks",
      "_flush_ack", "_repair_wake")),
    ("sim.stats", "repro.sim.stats:StatsRegistry",
     ("goodput", "latency", "series", "counter", "tx_counters")),
    ("sim.stats", "repro.sim.stats:GoodputMeter", ("record",)),
    ("sim.stats", "repro.sim.stats:LatencyRecorder", ("record",)),
    ("sim.stats", "repro.sim.stats:TimeSeries", ("record",)),
    ("sim.engine", "repro.sim.engine:PeriodicTimer", ("_fire",)),
)

LIVE_TARGETS = COMMON_TARGETS + (
    ("runtime.wire", "repro.runtime.transport",
     ("encode_datagram", "encode_batch_datagram", "decode_datagram")),
    ("runtime.transport", "repro.runtime.transport:AsyncioUdpTransport",
     ("sendto", "sendto_batch", "datagram_received")),
    ("runtime.transport", "repro.runtime.transport:UdpSendChannel",
     ("send", "_flush")),
    ("runtime.scheduler", "repro.runtime.scheduler:AsyncioScheduler",
     ("schedule", "_run")),
    # The receive half of a live link: its body is PorEndpoint._on_packet.
    ("link.por", "repro.runtime.transport:UdpReceiveChannel", ("deliver",)),
)

SIM_TARGETS = COMMON_TARGETS + (
    ("sim.engine", "repro.sim.engine:Simulator", ("run", "schedule_at")),
    ("sim.engine", "repro.sim.channel:Channel", ("send", "_deliver")),
    ("link.por", "repro.link.por:PorEndpoint", ("_on_packet",)),
)

_INHERITED = object()

# Indices into Tracer._st (a list: one subscript beats an attribute load).
_COUNT, _CURRENT, _ENABLED, _LAST_CPU, _GAP_CPU, _ROOT_CPU, _OVERFLOW = range(7)


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self, capacity: int = 6_000_000):
        self.capacity = capacity
        self.starts = array("q", [0]) * capacity
        self.ends = array("q", [0]) * capacity
        self.parents = array("i", [0]) * capacity
        self.layers = array("b", [0]) * capacity
        self._st: List[int] = [0, -1, 0, 0, 0, 0, 0]
        self._patched: List[Tuple[Any, str, Any]] = []
        self.call_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """A span-recording wrapper of ``fn`` charged to ``layer``."""
        st = self._st
        starts, ends, parents, layers = self.starts, self.ends, self.parents, self.layers
        capacity = self.capacity
        index = LAYERS.index(layer)
        clock = time.perf_counter_ns
        cpu_clock = time.process_time_ns

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not st[_ENABLED]:
                return fn(*args, **kwargs)
            i = st[_COUNT]
            if i >= capacity:
                st[_OVERFLOW] = 1
                return fn(*args, **kwargs)
            st[_COUNT] = i + 1
            parent = st[_CURRENT]
            parents[i] = parent
            layers[i] = index
            st[_CURRENT] = i
            if parent >= 0:
                starts[i] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    st[_CURRENT] = parent
            # Root span: CPU since the previous root ended was spent
            # outside every span.
            cpu = cpu_clock()
            st[_GAP_CPU] += cpu - st[_LAST_CPU]
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                st[_CURRENT] = -1
                done = cpu_clock()
                st[_ROOT_CPU] += done - cpu
                st[_LAST_CPU] = done

        return shim

    def install(self, targets) -> None:
        """Patch every ``(layer, owner, names)`` target; skips names the
        tree no longer has (the budget then shows the layer uncovered)."""
        for layer, owner_path, names in targets:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            for name in names:
                original = owner.__dict__.get(name) if class_name else getattr(owner, name, None)
                if original is None:
                    continue
                setattr(owner, name, self.wrap(original, layer))
                self._patched.append((owner, name, original))

    def install_methods(self, cls: type, names, layer: str = "bench.generator") -> None:
        """Shim methods (own or inherited) of one of the benchmark's classes."""
        for name in names:
            setattr(cls, name, self.wrap(getattr(cls, name), layer))
            self._patched.append((cls, name, cls.__dict__.get(name, _INHERITED)))

    def count_calls(self, owner: type, name: str) -> None:
        """Count calls of ``owner.name`` (in ``call_counts``) without a span:
        for functions too small to time, such as ``EventHandle.cancel``."""
        original = owner.__dict__[name]
        counts = self.call_counts
        counts[name] = 0

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, name, counted)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def resume(self) -> None:
        """Start (or continue) recording: the next root span's gap is
        counted from now."""
        self._st[_LAST_CPU] = time.process_time_ns()
        self._st[_ENABLED] = 1

    def pause(self) -> bool:
        """Stop recording and close the open gap; returns whether recording
        was on.  Called from loop level (no span open): around speed bursts
        and between slices."""
        st = self._st
        if not st[_ENABLED]:
            return False
        st[_GAP_CPU] += time.process_time_ns() - st[_LAST_CPU]
        st[_ENABLED] = 0
        return True

    @property
    def span_count(self) -> int:
        return self._st[_COUNT]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def budget(self, traced_cpu_s: float, delivered: int) -> Dict[str, Any]:
        """The layer / µs-per-message / share table of the traced slices."""
        count = self._st[_COUNT]
        calls, self_ns, root_ns = span_self_times(
            self.starts, self.ends, self.parents, self.layers, count, len(LAYERS)
        )
        per_msg = 1e-3 / max(delivered, 1)  # ns total -> µs per message
        cpu_us = 1e6 * traced_cpu_s / max(delivered, 1)
        rows = {
            layer: {
                "calls_per_msg": calls[i] / max(delivered, 1),
                "self_us_per_msg": self_ns[i] * per_msg,
                "share": self_ns[i] * per_msg / cpu_us if cpu_us else 0.0,
            }
            for i, layer in enumerate(LAYERS)
        }
        unattributed_us = self._st[_GAP_CPU] * per_msg
        total_us = sum(row["self_us_per_msg"] for row in rows.values()) + unattributed_us
        sum_ratio = total_us / cpu_us if cpu_us else 0.0
        return {
            "rows": rows,
            "spans": count,
            "cpu_us_per_msg": cpu_us,
            "unattributed_us_per_msg": unattributed_us,
            "unattributed_share": unattributed_us / cpu_us if cpu_us else 0.0,
            # Wall time inside root spans over the CPU the clock charged to
            # them: > 1 when spans were stretched by preemption.
            "span_wall_over_cpu": root_ns / max(self._st[_ROOT_CPU], 1),
            "sum_ratio": sum_ratio,
            "valid": (
                not self._st[_OVERFLOW] and delivered > 0 and abs(sum_ratio - 1.0) <= 0.15
            ),
            "overflowed": bool(self._st[_OVERFLOW]),
        }

    def write(self, path: str) -> None:
        """Dump the recorded spans (column arrays) as JSON."""
        count = self._st[_COUNT]
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "layers": list(LAYERS),
                    "layer": self.layers[:count].tolist(),
                    "start_ns": self.starts[:count].tolist(),
                    "end_ns": self.ends[:count].tolist(),
                    "parent": self.parents[:count].tolist(),
                },
                out,
            )


def rebind_hooks(nodes, sim_channels: bool) -> None:
    """Re-assign hooks that captured a bound method before the patch, so
    calls through them reach the shim: ``por.on_ready`` (``LinkSender.pump``)
    and, on the simulator, each channel's ``on_receive``."""
    for node in nodes:
        for link in node.links.values():
            link.por.on_ready = link.pump
            if sim_channels:
                link.por.in_channel.on_receive = link.por._on_packet
