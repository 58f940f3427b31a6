"""The benchmark's own load generators and in-band probes.

The stock ``CbrTraffic`` clamps priority credit to 8 messages per 20 ms tick
and never loads the stack, so each workload is offered by one of these:

* :class:`ClosedLoop` — one slot per in-flight message, refilled from the
  destination's ``on_deliver`` (no ``await`` per message);
* :class:`PacedOpenLoop` — a precomputed constant-spacing schedule, latency
  timed from each send's due time;
* :class:`ReliableOffer` — every flow keeps a few reliable messages in
  flight, topped up on a timer whenever ``reliable_can_send``;
* :class:`SimPoisson` — seeded Poisson flows scheduled in simulated time.

All of them share :class:`Generator`: the per-destination ``on_deliver`` hook,
the slot table the output oracle reads, and the open slice's sample lists.
Payloads and schedules are built before the window opens.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.helpers import SlotTable, calib_burst

#: A closed-loop slot unanswered this long counts as failed and is re-issued.
SLOT_TIMEOUT_S = 2.0

#: Reliable and simulated messages are only failed by the final drain: the
#: protocol (or simulated time) decides how long delivery takes.
NO_TIMEOUT_S = 1e9

PAYLOAD_POOL = 64


def make_payloads(seed: int, size_bytes: int, count: int = PAYLOAD_POOL) -> List[bytes]:
    """``count`` seeded random payloads of ``size_bytes`` bytes each."""
    rng = random.Random(f"e2e-payload:{seed}")
    return [rng.randbytes(size_bytes) for _ in range(count)]


class Generator:
    """Bookkeeping every generator shares (see module docstring)."""

    #: Methods the traced run charges to the ``bench.generator`` layer.
    TRACED: Tuple[str, ...] = ("on_deliver", "sweep")

    def __init__(
        self,
        node_of: Callable[[Any], Any],
        flows: Sequence[Tuple[Any, Any]],
        clock: Callable[[], float],
        slot_timeout_s: float,
        payloads: Optional[List[bytes]] = None,
    ):
        self.node_of = node_of
        self.flows = list(flows)
        self.clock = clock
        self.payloads = payloads
        self.slots = SlotTable(slot_timeout_s)
        self.running = False
        self.issued = 0
        self.delivered = 0
        self.timed_out = 0
        self.refused = 0
        # Oracle evidence, checked after the run.
        self.unexpected_deliveries = 0
        self.payload_mismatches = 0
        self.order_violations = 0
        #: Flows whose deliveries must arrive in sequence order.
        self.ordered_flows: frozenset = frozenset()
        self._next_seq: Dict[Tuple[Any, Any], int] = {flow: 1 for flow in self.flows}
        # The open slice (None outside a measured window).
        self._latencies: Optional[List[float]] = None
        self._slice_delivered = 0
        self.lateness: List[float] = []

    # ------------------------------------------------------------------
    def hook(self) -> None:
        """(Re-)register the delivery callback on every destination."""
        for dest in {dest for _, dest in self.flows}:
            self.node_of(dest).on_deliver = self.on_deliver

    def open_slice(self) -> None:
        self._latencies = []
        self._slice_delivered = 0
        self.lateness = []

    def close_slice(self) -> Tuple[int, List[float]]:
        latencies, self._latencies = self._latencies or [], None
        return self._slice_delivered, latencies

    def stop(self) -> None:
        """Stop offering; in-flight messages still complete."""
        self.running = False

    # ------------------------------------------------------------------
    def on_deliver(self, message: Any) -> None:
        key = (message.source, message.dest, message.seq)
        slot = self.slots.complete(key)
        if slot is None:
            # Never sent, or delivered twice — unless the slot timed out
            # and the message merely arrived late (already counted failed).
            if key not in self.slots.expired_keys:
                self.unexpected_deliveries += 1
            return
        issued_at, payload_index = slot
        if self.payloads is not None and message.payload != self.payloads[payload_index]:
            self.payload_mismatches += 1
        flow = (message.source, message.dest)
        if flow in self.ordered_flows:
            if message.seq != self._next_seq[flow]:
                self.order_violations += 1
            self._next_seq[flow] = message.seq + 1
        self.delivered += 1
        if self._latencies is not None:
            self._slice_delivered += 1
            self._latencies.append(self.clock() - issued_at)
        self.after_deliver(message)

    def after_deliver(self, message: Any) -> None:
        """Closed loops refill here."""

    def sweep(self) -> None:
        """Fail slots older than the timeout (called on a timer)."""
        self.timed_out += len(self.slots.expire(self.clock()))


# ----------------------------------------------------------------------
# Live generators
# ----------------------------------------------------------------------
class ClosedLoop(Generator):
    """``window`` priority messages in flight per flow."""

    TRACED = ("on_deliver", "send", "sweep")

    def __init__(self, node_of, flows, method, size_bytes, window, payloads):
        super().__init__(node_of, flows, time.perf_counter, SLOT_TIMEOUT_S, payloads)
        self.method = method
        self.size_bytes = size_bytes
        self.window = window

    def start(self) -> None:
        self.hook()
        self.running = True
        for flow in self.flows:
            for _ in range(self.window):
                self.send(flow)

    def send(self, flow: Tuple[Any, Any]) -> None:
        index = self.issued % PAYLOAD_POOL
        self.issued += 1
        message = self.node_of(flow[0]).send_priority(
            flow[1],
            size_bytes=self.size_bytes,
            method=self.method,
            payload=self.payloads[index] if self.payloads is not None else None,
        )
        self.slots.issue((flow[0], flow[1], message.seq), self.clock(), index)

    def after_deliver(self, message: Any) -> None:
        if self.running:
            self.send((message.source, message.dest))

    def sweep(self) -> None:
        """Re-issue timed-out slots so the window cannot silently shrink."""
        stale = self.slots.expire(self.clock())
        self.timed_out += len(stale)
        if self.running:
            for (source, dest, _), _ in stale:
                self.send((source, dest))


class PacedOpenLoop(Generator):
    """Constant spacing at ``rate`` messages/s, round-robin over the flows.

    ``clock`` is the event loop's, so due times and ``call_at`` agree.
    """

    TRACED = ("on_deliver", "fire", "sweep")

    def __init__(self, node_of, flows, method, size_bytes, rate, payloads, loop, total):
        super().__init__(node_of, flows, loop.time, SLOT_TIMEOUT_S, payloads)
        self.method = method
        self.size_bytes = size_bytes
        self.loop = loop
        self.rate = rate
        #: Offsets from the start, computed before the window opens.
        self.offsets = [i / rate for i in range(total)]
        self._base = 0.0

    def start(self) -> None:
        self.hook()
        self.running = True
        self._base = self.loop.time() + 0.01
        self.loop.call_at(self._base, self.fire)

    def fire(self) -> None:
        if not self.running:
            return
        now = self.loop.time()
        offsets, base = self.offsets, self._base
        while self.issued < len(offsets) and base + offsets[self.issued] <= now:
            i = self.issued
            self.issued += 1
            due = base + offsets[i]
            source, dest = self.flows[i % len(self.flows)]
            index = i % PAYLOAD_POOL
            message = self.node_of(source).send_priority(
                dest, size_bytes=self.size_bytes, method=self.method,
                payload=self.payloads[index],
            )
            # Latency is timed from the due time, so a generator stall is
            # charged to the messages it delayed.
            self.slots.issue((source, dest, message.seq), due, index)
            if self._latencies is not None:
                self.lateness.append(now - due)
        if self.issued < len(offsets):
            self.loop.call_at(base + offsets[self.issued], self.fire)


class ReliableOffer(Generator):
    """Every flow keeps ``window`` reliable messages in flight, topped up on
    a 5 ms poll whenever back-pressure allows.

    The window is small on purpose.  Filling the 64-message buffers (or any
    window from 8 up) tips the 12-node overlay into a metastable regime — 60 ms
    loop lag, 25% spurious PoR retransmissions, throughput swinging +-20% from
    second to second — on which no figure repeats; at 4 per flow the process
    is still 99% busy and slices agree within 3%.
    """

    TRACED = ("on_deliver", "poll", "sweep")
    POLL_INTERVAL_S = 0.005

    def __init__(self, node_of, flows, method, size_bytes, window, payloads, loop):
        super().__init__(node_of, flows, time.perf_counter, NO_TIMEOUT_S, payloads)
        self.method = method
        self.size_bytes = size_bytes
        self.window = window
        self.loop = loop
        self.polls = 0
        self.polls_refused = 0
        self.ordered_flows = frozenset(self.flows)
        self._sent_seq: Dict[Tuple[Any, Any], int] = {flow: 0 for flow in self.flows}
        self._in_flight: Dict[Tuple[Any, Any], int] = {flow: 0 for flow in self.flows}
        self._due = 0.0

    def start(self) -> None:
        self.hook()
        self.running = True
        self._due = self.loop.time()
        self.poll()

    def poll(self) -> None:
        if not self.running:
            return
        if self._latencies is not None:
            self.lateness.append(self.loop.time() - self._due)
        clock, payloads, in_flight = self.clock, self.payloads, self._in_flight
        for flow in self.flows:
            if in_flight[flow] >= self.window:
                continue
            source, dest = flow
            node = self.node_of(source)
            self.polls += 1
            if not node.reliable_can_send(dest):
                self.polls_refused += 1
                continue
            while in_flight[flow] < self.window and node.reliable_can_send(dest):
                index = self.issued % PAYLOAD_POOL
                if not node.send_reliable(
                    dest, size_bytes=self.size_bytes, method=self.method,
                    payload=payloads[index],
                ):
                    # can_send said yes: a refusal here is not back-pressure.
                    self.refused += 1
                    break
                self.issued += 1
                in_flight[flow] += 1
                seq = self._sent_seq[flow] = self._sent_seq[flow] + 1
                self.slots.issue((source, dest, seq), clock(), index)
        # A late poll is not made up for: the next is due one interval on.
        self._due = max(self._due + self.POLL_INTERVAL_S, self.loop.time())
        self.loop.call_at(self._due, self.poll)

    def after_deliver(self, message: Any) -> None:
        self._in_flight[(message.source, message.dest)] -= 1


# ----------------------------------------------------------------------
# Simulator generator
# ----------------------------------------------------------------------
class SimPoisson(Generator):
    """Poisson flows in simulated time; ``plan`` is a list of
    ``(source, dest, reliable, method, rate_per_s)``.

    Exponential gaps and payload sizes drawn uniformly from 0.5x to 1.5x
    ``size_bytes`` (both seeded): with constant spacing and one size, every
    message that meets empty queues has the same latency to the last digit,
    and the median is that one constant on every seed.
    """

    TRACED = ("on_deliver", "fire", "sweep")

    def __init__(self, sim, node_of, plan, size_bytes, seed):
        flows = [(source, dest) for source, dest, *_ in plan]
        super().__init__(node_of, flows, lambda: sim.now, NO_TIMEOUT_S)
        self.sim = sim
        self.plan = plan
        self.size_bytes = size_bytes
        self.ordered_flows = frozenset((s, d) for s, d, reliable, *_ in plan if reliable)
        self._rng = random.Random(f"e2e-sim-arrivals:{seed}")
        self._sent_seq: Dict[Tuple[Any, Any], int] = {flow: 0 for flow in flows}

    def start(self) -> None:
        self.hook()
        self.running = True
        for entry in self.plan:
            self.sim.schedule(self._rng.expovariate(entry[4]), self.fire, entry)

    def fire(self, entry) -> None:
        if not self.running:
            return
        source, dest, reliable, method, rate = entry
        node = self.node_of(source)
        size = self._rng.randint(self.size_bytes // 2, 3 * self.size_bytes // 2)
        if reliable:
            if node.send_reliable(dest, size_bytes=size, method=method):
                seq = self._sent_seq[(source, dest)] = self._sent_seq[(source, dest)] + 1
                self.issued += 1
                self.slots.issue((source, dest, seq), self.sim.now)
            else:
                self.refused += 1  # offered below capacity: any refusal is a failure
        else:
            message = node.send_priority(dest, size_bytes=size, method=method)
            self.issued += 1
            self.slots.issue((source, dest, message.seq), self.sim.now)
        self.sim.schedule(self._rng.expovariate(rate), self.fire, entry)


# ----------------------------------------------------------------------
# In-band probes
# ----------------------------------------------------------------------
class SpeedProbe:
    """A short fixed loop every ``INTERVAL_S`` on the event loop.

    Three things come out of it: the machine's speed *while the workload
    runs* (the slice's normaliser), the loop lag (how late the timer fired),
    and — through ``sample`` — anything worth polling at the same cadence
    (queue depths).  The bursts' own time is reported so the runner can
    excise it from the window.
    """

    INTERVAL_S = 0.010

    def __init__(self, loop, tracer=None, sample: Optional[Callable[[], None]] = None):
        self.loop = loop
        self.tracer = tracer
        self.sample = sample
        self.speeds: List[float] = []
        self.lags: List[float] = []
        self.burst_s = 0.0
        self._due = 0.0
        self._handle = None

    def start(self) -> None:
        self._due = self.loop.time() + self.INTERVAL_S
        self._handle = self.loop.call_at(self._due, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        tracer = self.tracer
        tracing = tracer is not None and tracer.pause()
        self.lags.append(self.loop.time() - self._due)
        speed, seconds = calib_burst()
        self.speeds.append(speed)
        self.burst_s += seconds
        if self.sample is not None:
            self.sample()
        self._due = max(self._due + self.INTERVAL_S, self.loop.time())
        self._handle = self.loop.call_at(self._due, self._fire)
        if tracing:
            tracer.resume()

    def take(self) -> Tuple[List[float], List[float], float]:
        """``(speeds, lags, burst_seconds)`` since the last call."""
        out = (self.speeds, self.lags, self.burst_s)
        self.speeds, self.lags, self.burst_s = [], [], 0.0
        return out
