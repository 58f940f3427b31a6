"""Client-tier workload generators.

:class:`ClientTier` emulates a large client population at the overlay's
edge with the three load features fixed-rate CBR flows cannot produce:

* **Open-loop, diurnal flow arrivals** — new client bursts arrive as a
  Poisson process whose rate follows a sinusoidal diurnal curve
  (sampled by thinning, so one RNG stream yields the exact process at
  any modulation).  Arrivals never wait for the network: offered load is
  whatever the population generates, like real users.
* **Zipf fan-in** — burst destinations are drawn Zipf-distributed over a
  ranked destination list, concentrating load on a few hot nodes (the
  congestion pattern that makes overload control interesting).
* **Heavy-tailed burst trains** — each arrival is a train of messages
  whose length is Pareto-distributed (truncated), from one client of a
  per-node client population, at a per-burst priority.

Every offered message goes through :meth:`OverlayNode.offer_priority`,
i.e. through the admission stage when one is configured.  The tier only
uses the ``.sim`` / ``.node()`` duck type, so it runs unchanged on the
simulator and the live asyncio runtime; all randomness comes from
``clients:*`` named substreams of the deployment's seeded registry, so
a seeded workload is reproducible and does not perturb any other
component's draws.

:class:`ScriptedOverload` is the deterministic cousin: it replays an
explicit burst plan (absolute times, sources, counts) and records the
admission outcome of every single offer — the sim-vs-live conformance
test feeds both substrates the identical plan and asserts identical
admitted/rejected sets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.messaging.admission import AdmissionOutcome
from repro.messaging.priority import MAX_PRIORITY, MIN_PRIORITY
from repro.overlay.config import DisseminationMethod


def zipf_cdf(ranks: int, exponent: float) -> List[float]:
    """Cumulative Zipf distribution over ``ranks`` ranked destinations
    (rank r drawn with weight 1 / r**exponent): ``bisect_left`` a uniform
    draw into it to pick a rank."""
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(ranks)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def ranked_destinations(sim: Any, nodes: Any, stream: str) -> List[Any]:
    """``nodes`` in a seed-stable shuffled order, hottest destination
    first: which nodes run hot varies with the seed, but not between the
    arms of a sweep, the substrates, or the shards of a cluster (all draw
    the same named ``stream``)."""
    ranked = sorted(nodes)
    sim.rngs.stream(stream).shuffle(ranked)
    return ranked


@dataclass(frozen=True)
class ClientWorkloadConfig:
    """Shape of the client population's offered load."""

    #: Mean burst arrivals/second across the whole tier (the diurnal
    #: curve modulates around this).
    arrival_rate: float = 40.0
    #: Diurnal modulation depth in [0, 1): rate(t) swings between
    #: ``(1 - a)`` and ``(1 + a)`` times ``arrival_rate``.
    diurnal_amplitude: float = 0.5
    #: Diurnal period in (simulated or wall-clock) seconds.  Runs are
    #: seconds long, so "a day" is compressed to tens of seconds.
    diurnal_period: float = 40.0
    #: Zipf exponent for destination fan-in (> 0; larger = hotter head).
    zipf_exponent: float = 1.1
    #: Pareto shape for burst-train length (smaller = heavier tail).
    burst_shape: float = 1.4
    #: Truncation for burst-train length, messages.
    burst_max: int = 64
    #: Gap between consecutive messages of one train, seconds.
    burst_spacing: float = 0.002
    #: Distinct client identities per source node; each burst is charged
    #: to one of them for per-source admission metering.
    clients_per_node: int = 25
    #: Payload size of every client message, bytes.
    size_bytes: int = 200
    #: Message expiry (None = the overlay's default).
    expire_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ConfigurationError("diurnal_period must be positive")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be positive")
        if self.burst_shape <= 1.0:
            raise ConfigurationError("burst_shape must be > 1")
        if self.burst_max < 1:
            raise ConfigurationError("burst_max must be >= 1")
        if self.burst_spacing < 0:
            raise ConfigurationError("burst_spacing must be >= 0")
        if self.clients_per_node < 1:
            raise ConfigurationError("clients_per_node must be >= 1")
        if self.size_bytes < 1:
            raise ConfigurationError("size_bytes must be >= 1")


class ClientTier:
    """Drive a deployment with the population workload above.

    ``dests`` is the *ranked* destination list: index 0 is the hottest
    Zipf destination.  Pass a seed-shuffled list to randomize which
    nodes run hot.
    """

    def __init__(
        self,
        network: Any,
        sources: Sequence[Any],
        dests: Sequence[Any],
        config: Optional[ClientWorkloadConfig] = None,
        method: Optional[DisseminationMethod] = None,
        name: str = "clients",
    ):
        if not sources or not dests:
            raise ConfigurationError("need at least one source and one dest")
        self.network = network
        self.sources = list(sources)
        self.dests = list(dests)
        self.config = config or ClientWorkloadConfig()
        self.method = method or DisseminationMethod.flooding()
        self.name = name
        self._rng = network.sim.rngs.stream(f"clients:{name}")
        self._zipf_cdf = zipf_cdf(len(self.dests), self.config.zipf_exponent)
        self._epoch = 0.0
        self.running = False
        # Offer accounting: every offered message lands in exactly one.
        self.bursts_started = 0
        self.offered = 0
        self.outcomes: Dict[str, int] = {
            AdmissionOutcome.ADMITTED.value: 0,
            AdmissionOutcome.PARKED.value: 0,
            AdmissionOutcome.REJECTED.value: 0,
        }
        self.skipped_crashed = 0
        self.unroutable = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin offering load now (the diurnal epoch is ``now``)."""
        self.running = True
        self._epoch = self.network.sim.now
        self._arm()

    def stop(self) -> None:
        """Stop generating new bursts (in-flight trains finish)."""
        self.running = False

    def rate_at(self, now: float) -> float:
        """The diurnal arrival rate at time ``now`` (bursts/second)."""
        config = self.config
        phase = 2.0 * math.pi * (now - self._epoch) / config.diurnal_period
        return config.arrival_rate * (
            1.0 + config.diurnal_amplitude * math.sin(phase)
        )

    @property
    def peak_rate(self) -> float:
        return self.config.arrival_rate * (1.0 + self.config.diurnal_amplitude)

    def _arm(self) -> None:
        # Thinning (Lewis & Shedler): draw candidate arrivals at the
        # diurnal peak rate and accept each with rate(t)/peak — an exact
        # sampler for the modulated process from one stream.
        self.network.sim.schedule(
            self._rng.expovariate(self.peak_rate), self._candidate
        )

    def _candidate(self) -> None:
        if not self.running:
            return
        now = self.network.sim.now
        if self._rng.random() < self.rate_at(now) / self.peak_rate:
            self._launch_burst()
        self._arm()

    # ------------------------------------------------------------------
    def _launch_burst(self) -> None:
        rng = self._rng
        config = self.config
        source = self.sources[rng.randrange(len(self.sources))]
        client = f"{source}/c{rng.randrange(config.clients_per_node)}"
        rank = bisect_left(self._zipf_cdf, rng.random())
        dest = self.dests[rank]
        if dest == source:
            dest = self.dests[(rank + 1) % len(self.dests)]
            if dest == source:  # single-destination degenerate case
                return
        length = min(config.burst_max, max(1, int(rng.paretovariate(config.burst_shape))))
        priority = rng.randint(MIN_PRIORITY, MAX_PRIORITY)
        self.bursts_started += 1
        sim = self.network.sim
        for index in range(length):
            if index == 0:
                self._offer(source, client, dest, priority)
            else:
                sim.schedule(
                    index * config.burst_spacing,
                    self._offer, source, client, dest, priority,
                )

    def _offer(self, source: Any, client: str, dest: Any, priority: int) -> None:
        self.offered += 1
        node = self.network.node(source)
        if node.crashed:
            self.skipped_crashed += 1
            return
        config = self.config
        try:
            outcome = node.offer_priority(
                dest,
                size_bytes=config.size_bytes,
                priority=priority,
                method=self.method,
                # A string tag: the live wire codec only carries
                # None/bytes/str application payloads.
                payload=f"clients:{self.name}",
                expire_after=config.expire_after,
                client=client,
            )
        except ProtocolError:
            self.unroutable += 1
            return
        self.outcomes[outcome.value] += 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly offer accounting."""
        return {
            "bursts": self.bursts_started,
            "offered": self.offered,
            "outcomes": dict(self.outcomes),
            "skipped_crashed": self.skipped_crashed,
            "unroutable": self.unroutable,
        }


@dataclass(frozen=True)
class ScriptedBurst:
    """One deterministic burst: ``count`` back-to-back offers at ``at``
    seconds after the plan epoch, all from one client source."""

    at: float
    source: Any
    client: str
    dest: Any
    count: int
    priority: int


class ScriptedOverload:
    """Replay an explicit burst plan and record every offer's outcome.

    Unlike :class:`ClientTier` this draws no randomness at run time: the
    plan is data, each burst executes inside a single scheduler callback
    (so its offers are not interleaved with refills or other bursts),
    and the outcome log lists every offer as ``(burst_index, offer_index,
    outcome)`` in plan order.  Feeding the same plan to the simulator
    and the live runtime must produce the identical log — that is the
    client tier's conformance contract.
    """

    def __init__(
        self,
        network: Any,
        plan: Sequence[ScriptedBurst],
        size_bytes: int = 200,
        method: Optional[DisseminationMethod] = None,
    ):
        self.network = network
        self.plan = list(plan)
        self.size_bytes = size_bytes
        self.method = method or DisseminationMethod.flooding()
        self.outcomes: List[Tuple[int, int, str]] = []

    def arm(self, epoch: Optional[float] = None) -> None:
        """Schedule every burst at ``epoch + burst.at`` (epoch defaults
        to the deployment's current time)."""
        sim = self.network.sim
        if epoch is None:
            epoch = sim.now
        for index, burst in enumerate(self.plan):
            sim.schedule_at(epoch + burst.at, self._run_burst, index, burst)

    def _run_burst(self, index: int, burst: ScriptedBurst) -> None:
        node = self.network.node(burst.source)
        for offer_index in range(burst.count):
            if node.crashed:
                self.outcomes.append((index, offer_index, "crashed"))
                continue
            try:
                outcome = node.offer_priority(
                    burst.dest,
                    size_bytes=self.size_bytes,
                    priority=burst.priority,
                    method=self.method,
                    payload=f"scripted:{index}:{offer_index}",
                    client=burst.client,
                )
            except ProtocolError:
                self.outcomes.append((index, offer_index, "unroutable"))
                continue
            self.outcomes.append((index, offer_index, outcome.value))

    def admitted_ids(self) -> List[Tuple[int, int]]:
        """(burst, offer) ids of every admitted offer, in offer order."""
        return [
            (burst, offer)
            for burst, offer, outcome in self.outcomes
            if outcome == AdmissionOutcome.ADMITTED.value
        ]
