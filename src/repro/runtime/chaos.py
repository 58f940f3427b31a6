"""Fault injection for the live (asyncio/UDP) runtime.

The simulator's :class:`~repro.faults.chaos.ChaosEngine` mangles modeled
channels; this module brings the *same* fault vocabulary — the same
seeded, shrinkable :class:`~repro.faults.schedule.FaultSchedule` — to
real datagrams on real sockets, so a schedule that breaks the overlay in
simulation can be replayed against the live stack (and vice versa).

Three pieces:

* :class:`DatagramFaultInjector` — per-directed-link fault state plus a
  seeded RNG; given an outbound datagram it decides drop / duplicate /
  reorder / corrupt / delay.  It owns no sockets and no clock: it is a
  pure decision table the chaos transport consults on every send.
* :class:`ChaosUdpTransport` — an :class:`AsyncioUdpTransport` whose
  ``sendto`` routes every datagram through the injector.  Faults are
  applied on the *send* side so a bidirectional partition is simply both
  directed links marked down.
* :class:`LiveChaosEngine` — the schedule driver.  It subclasses the sim
  engine, so refcounted overlap composition, skip accounting, and the
  applied-actions log are shared verbatim; only the three substrate
  hooks differ: link downs and impairments go to the injector, and
  crash/recover go to the :class:`~repro.runtime.supervision.
  NodeSupervisor` (kill the node's socket, release it for a
  backoff-timed restart).

Determinism caveat: the injector's draws are seeded, but the *order* in
which concurrent nodes send is wall-clock scheduling — live runs are
reproducible in distribution, not byte-for-byte like the simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.faults.chaos import MAX_COMPOSED_LOSS, ChaosEngine
from repro.faults.schedule import FaultSchedule
from repro.runtime.transport import AsyncioUdpTransport

#: A duplicated datagram trails the original by this much (seconds) so
#: the copy actually exercises the receiver's dedup path rather than
#: coalescing in the same socket read.
DUPLICATE_LAG = 0.002

#: Extra delay drawn for a reordered datagram: long enough that later
#: sends on the link overtake it, short enough to stay inside protocol
#: retransmission timeouts.
REORDER_WINDOW = (0.01, 0.08)


class LinkFaultState:
    """Composed fault state of one *directed* link (src -> dst)."""

    __slots__ = ("down_refs", "loss", "dup", "reorder", "corrupt", "delay")

    def __init__(self) -> None:
        self.down_refs = 0
        self.loss = 0.0
        self.dup = 0.0
        self.reorder = 0.0
        self.corrupt = 0.0
        self.delay = 0.0

    @property
    def clear(self) -> bool:
        return (
            self.down_refs == 0
            and self.loss == 0.0
            and self.dup == 0.0
            and self.reorder == 0.0
            and self.corrupt == 0.0
            and self.delay == 0.0
        )


class DatagramFaultInjector:
    """Seeded per-link datagram mangling decisions (see module docstring).

    ``rng`` is a dedicated stream from the deployment's
    :class:`~repro.sim.rng.RngRegistry`, so two runs with the same seed
    draw the same decision sequence for the same sequence of sends.
    """

    def __init__(self, rng: Any):
        self._rng = rng
        self._links: Dict[Tuple[Any, Any], LinkFaultState] = {}
        # Observability: every datagram-level action actually taken.
        self.partition_drops = 0
        self.losses = 0
        self.duplicates = 0
        self.reorders = 0
        self.corruptions = 0
        self.delayed = 0

    def state(self, src: Any, dst: Any) -> LinkFaultState:
        """The fault state of the directed link ``src -> dst``."""
        return self._links.setdefault((src, dst), LinkFaultState())

    # ------------------------------------------------------------------
    # Control plane (driven by LiveChaosEngine)
    # ------------------------------------------------------------------
    def fail_edge(self, a: Any, b: Any) -> None:
        """Take the undirected edge down: both directions drop everything."""
        self.state(a, b).down_refs += 1
        self.state(b, a).down_refs += 1

    def restore_edge(self, a: Any, b: Any) -> None:
        """Undo one :meth:`fail_edge`; the edge heals at refcount zero."""
        for src, dst in ((a, b), (b, a)):
            state = self.state(src, dst)
            state.down_refs = max(0, state.down_refs - 1)

    def set_impairment(
        self,
        a: Any,
        b: Any,
        loss: float = 0.0,
        dup: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
    ) -> None:
        """Install the *composed* impairment on both directions of an
        edge (the engine already merged overlapping faults)."""
        for src, dst in ((a, b), (b, a)):
            state = self.state(src, dst)
            state.loss = min(loss, MAX_COMPOSED_LOSS)
            state.dup = dup
            state.reorder = reorder
            state.corrupt = corrupt
            state.delay = delay

    # ------------------------------------------------------------------
    # Data plane (consulted by ChaosUdpTransport on every send)
    # ------------------------------------------------------------------
    def plan(self, src: Any, dst: Any, data: bytes) -> List[Tuple[float, bytes]]:
        """Decide what actually goes on the wire for one outbound
        datagram: a list of ``(delay_seconds, payload)`` actions (empty =
        dropped, two entries = duplicated)."""
        state = self._links.get((src, dst))
        if state is None or state.clear:
            return [(0.0, data)]
        if state.down_refs > 0:
            self.partition_drops += 1
            return []
        rng = self._rng
        if state.loss and rng.random() < state.loss:
            self.losses += 1
            return []
        payload = data
        if state.corrupt and rng.random() < state.corrupt:
            payload = self._corrupt(data)
            self.corruptions += 1
        delay = state.delay
        if delay > 0.0:
            self.delayed += 1
        if state.reorder and rng.random() < state.reorder:
            delay += rng.uniform(*REORDER_WINDOW)
            self.reorders += 1
        actions = [(delay, payload)]
        if state.dup and rng.random() < state.dup:
            actions.append((delay + DUPLICATE_LAG, payload))
            self.duplicates += 1
        return actions

    def _corrupt(self, data: bytes) -> bytes:
        """Flip 1-4 random bits — the receiver's codec or MAC check must
        reject the result; it may never crash on it."""
        if not data:
            return data
        rng = self._rng
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            index = rng.randrange(len(mutated))
            mutated[index] ^= 1 << rng.randrange(8)
        return bytes(mutated)

    def summary(self) -> Dict[str, int]:
        """Datagram-level action counts (what the faults actually did)."""
        return {
            "partition_drops": self.partition_drops,
            "losses": self.losses,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "corruptions": self.corruptions,
            "delayed": self.delayed,
        }


class ChaosUdpTransport(AsyncioUdpTransport):
    """An :class:`AsyncioUdpTransport` whose outbound datagrams pass
    through a :class:`DatagramFaultInjector` first.

    The interposition point is ``sendto`` — the single choke point every
    :class:`~repro.runtime.transport.UdpSendChannel` funnels through —
    so PoR data, ACKs, hellos, link-state floods, and E2E ACKs are all
    subject to the same wire-level hostility.  A retried datagram
    (``_retry``) is the same datagram the injector already decided on, so
    it bypasses the injector: no second loss/dup/corrupt draw, no second
    count.
    """

    def __init__(self, node_id: Any, metrics: Any = None,
                 injector: Optional[DatagramFaultInjector] = None):
        super().__init__(node_id, metrics=metrics)
        self._injector = injector

    def sendto(self, peer_id: Any, data: bytes, _retry: bool = False,
               channel: Any = None) -> None:
        if self._injector is None or _retry:
            super().sendto(peer_id, data, _retry=_retry, channel=channel)
            return
        for delay, payload in self._injector.plan(self.node_id, peer_id, data):
            if delay <= 0.0:
                super().sendto(peer_id, payload, _retry=_retry, channel=channel)
            elif self._loop is not None:
                self._loop.call_later(
                    delay, self._send_delayed, peer_id, payload, channel
                )

    def _send_delayed(self, peer_id: Any, payload: bytes,
                      channel: Any = None) -> None:
        if self._transport is None:
            return  # closed while the delayed copy was in flight
        super().sendto(peer_id, payload, channel=channel)


class LiveChaosEngine(ChaosEngine):
    """Drives a :class:`FaultSchedule` against a live deployment.

    The deployment satisfies the engine's network duck type (``sim``,
    ``topology``, ``stats``, ``node``, ``crash``, ``recover``), so the
    base class's arming, overlap refcounting, and logging run unchanged.
    The substrate hooks are redirected:

    * link downs / impairments -> the :class:`DatagramFaultInjector`
      shared by every node's :class:`ChaosUdpTransport`;
    * crash faults -> ``supervisor.kill`` (socket teardown + overlay
      state loss), with the fault's end *releasing* the node so the
      supervisor restarts it after its backoff — mirroring how a real
      process dies instantly but rejoins on the supervisor's clock.
    """

    def __init__(
        self,
        deployment: Any,
        schedule: FaultSchedule,
        injector: DatagramFaultInjector,
        supervisor: Any,
    ):
        super().__init__(deployment, schedule)
        self.injector = injector
        self.supervisor = supervisor

    # -- link faults -> injector ---------------------------------------
    def _take_edge_down(self, edge: Tuple) -> None:
        self.injector.fail_edge(*edge)

    def _bring_edge_up(self, edge: Tuple) -> None:
        self.injector.restore_edge(*edge)

    def _install_impairment(
        self,
        edge: Tuple,
        loss: float,
        dup: float,
        reorder: float,
        corrupt: float,
        delay: float,
    ) -> None:
        self.injector.set_impairment(
            *edge, loss=loss, dup=dup, reorder=reorder,
            corrupt=corrupt, delay=delay,
        )

    # -- node faults -> supervisor -------------------------------------
    def _crash_node(self, node: Any) -> None:
        refs = self._node_refs.get(node, 0)
        self._node_refs[node] = refs + 1
        if refs == 0:
            self.supervisor.kill(node, reason="chaos", hold=True)

    def _recover_node(self, node: Any) -> None:
        refs = self._node_refs.get(node, 0)
        if refs > 1:
            self._node_refs[node] = refs - 1
            return
        self._node_refs.pop(node, None)
        # Unlike the simulator, recovery is not instantaneous: releasing
        # only makes the node *eligible*; the supervisor restarts it once
        # its backoff expires.  Injector link state is orthogonal to the
        # socket lifecycle, so no post-recovery edge repair is needed.
        self.supervisor.release(node)
