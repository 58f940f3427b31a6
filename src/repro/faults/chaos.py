"""Apply a :class:`~repro.faults.schedule.FaultSchedule` to a live network.

The :class:`ChaosEngine` is a pure *driver*: it owns no randomness (all
draws happened at schedule-generation time) and simply arms simulator
events that begin and end each fault.  Because concurrent faults can
overlap on the same link or node — a flap inside a partition, a gray
failure during a loss burst — the engine reference-counts link downs and
composes impairments, so healing one fault never un-does another that is
still active.

Interplay with crash/recovery: :meth:`OverlayNetwork.recover` restores all
of a node's channels, which would silently heal any link fault still in
progress on an adjacent edge; the engine re-fails those edges after every
recovery.  Channel impairments live on the :class:`~repro.sim.channel.
Channel` object itself and survive take-down/restore, so gray failures
need no such repair.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.schedule import FAULT_KINDS, Fault, FaultSchedule
from repro.overlay.network import OverlayNetwork

#: Composition cap: stacked loss impairments never exceed this probability,
#: keeping a "gray" link distinguishable from a dead one.
MAX_COMPOSED_LOSS = 0.95


def _edge(a, b) -> Tuple:
    """Canonical undirected edge key."""
    return tuple(sorted((a, b), key=str))


class ChaosEngine:
    """Arms a fault schedule against an :class:`OverlayNetwork`.

    Usage::

        schedule = ChaosSpec.full(duration=600).generate(topology, seed=7)
        engine = ChaosEngine(network, schedule)
        engine.arm()
        network.run(schedule.duration)
        print(engine.summary())

    ``applied`` records every action actually taken as ``(time, text)``
    pairs — the runtime counterpart of ``schedule.describe()`` — and is
    deterministic for a given (network seed, schedule) pair.
    """

    def __init__(self, network: OverlayNetwork, schedule: FaultSchedule):
        self.network = network
        self.schedule = schedule
        self._armed = False
        # Refcounts so overlapping faults compose instead of clobbering.
        self._link_refs: Dict[Tuple, int] = {}
        self._node_refs: Dict[object, int] = {}
        # Active impairments per edge: {edge: {fault-key:
        # (loss, dup, reorder, corrupt, delay)}}.
        self._impairments: Dict[Tuple, Dict[int, Tuple[float, ...]]] = {}
        # Observability.
        self.applied: List[Tuple[float, str]] = []
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.skipped = 0
        # Every node that lost state or connectivity wholesale (crash,
        # churn, partition side): the set of "non-correct" nodes a
        # delivery gate should exclude flows to/from.
        self.faulted_nodes: Set = set()

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule begin/end events for every fault.  Call once, before
        running the simulation."""
        if self._armed:
            raise ConfigurationError("ChaosEngine.arm() called twice")
        self._armed = True
        sim = self.network.sim
        topology = self.network.topology
        for index, fault in enumerate(self.schedule):
            if fault.kind in ("flap", "gray", "noise"):
                a, b = fault.target
                if not topology.has_edge(a, b):
                    self.skipped += 1
                    continue
            elif fault.kind == "partition":
                if not any(topology.has_node(n) for n in fault.target):
                    self.skipped += 1
                    continue
            else:
                if not topology.has_node(fault.target[0]):
                    self.skipped += 1
                    continue
            sim.schedule_at(sim.now + fault.start, self._begin, fault, index)
            sim.schedule_at(sim.now + fault.end, self._finish, fault, index)

    # ------------------------------------------------------------------
    # Fault lifecycle
    # ------------------------------------------------------------------
    def _begin(self, fault: Fault, index: int) -> None:
        self.counts[fault.kind] += 1
        self.network.stats.counter(f"chaos.fault.{fault.kind}").add()
        if fault.kind == "flap":
            self._fail_edge(_edge(*fault.target))
        elif fault.kind == "gray":
            self._impair(
                _edge(*fault.target), index,
                loss=fault.param("extra_loss"),
                delay=fault.param("extra_delay"),
            )
        elif fault.kind == "noise":
            self._impair(
                _edge(*fault.target), index,
                loss=fault.param("extra_loss"),
                dup=fault.param("dup"),
                reorder=fault.param("reorder"),
                corrupt=fault.param("corrupt"),
                delay=fault.param("extra_delay"),
            )
        elif fault.kind == "burst":
            node = fault.target[0]
            for neighbor in self.network.topology.neighbors(node):
                self._impair(
                    _edge(node, neighbor), index,
                    loss=fault.param("extra_loss"),
                )
        elif fault.kind in ("crash", "churn"):
            self.faulted_nodes.add(fault.target[0])
            self._crash_node(fault.target[0])
        elif fault.kind == "partition":
            self.faulted_nodes.update(
                n for n in fault.target if self.network.topology.has_node(n)
            )
            for edge in self._crossing_edges(fault):
                self._fail_edge(edge)
        self._log(fault, "begin")

    def _finish(self, fault: Fault, index: int) -> None:
        if fault.kind == "flap":
            self._restore_edge(_edge(*fault.target))
        elif fault.kind in ("gray", "noise"):
            self._clear_impairment(_edge(*fault.target), index)
        elif fault.kind == "burst":
            node = fault.target[0]
            for neighbor in self.network.topology.neighbors(node):
                self._clear_impairment(_edge(node, neighbor), index)
        elif fault.kind in ("crash", "churn"):
            self._recover_node(fault.target[0])
        elif fault.kind == "partition":
            for edge in self._crossing_edges(fault):
                self._restore_edge(edge)
        self._log(fault, "end")

    def _crossing_edges(self, fault: Fault) -> List[Tuple]:
        side: Set = set(fault.target)
        return [
            _edge(a, b)
            for a, b in self.network.topology.edges()
            if (a in side) != (b in side)
        ]

    # ------------------------------------------------------------------
    # Link downs (refcounted)
    # ------------------------------------------------------------------
    def _fail_edge(self, edge: Tuple) -> None:
        refs = self._link_refs.get(edge, 0)
        self._link_refs[edge] = refs + 1
        if refs == 0:
            self._take_edge_down(edge)

    def _restore_edge(self, edge: Tuple) -> None:
        refs = self._link_refs.get(edge, 0)
        if refs <= 1:
            self._link_refs.pop(edge, None)
            # Don't restore channels around a node the engine still holds
            # crashed — recovery will bring them back.
            if not any(self._node_refs.get(n, 0) for n in edge):
                self._bring_edge_up(edge)
        else:
            self._link_refs[edge] = refs - 1

    def _take_edge_down(self, edge: Tuple) -> None:
        """Substrate hook: make the edge drop everything (both ways)."""
        self.network.fail_link(*edge)

    def _bring_edge_up(self, edge: Tuple) -> None:
        """Substrate hook: undo :meth:`_take_edge_down`."""
        self.network.restore_link(*edge)

    # ------------------------------------------------------------------
    # Impairments (composed)
    # ------------------------------------------------------------------
    def _impair(
        self,
        edge: Tuple,
        key: int,
        loss: float = 0.0,
        dup: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
    ) -> None:
        self._impairments.setdefault(edge, {})[key] = (
            loss, dup, reorder, corrupt, delay
        )
        self._apply_impairment(edge)

    def _clear_impairment(self, edge: Tuple, key: int) -> None:
        active = self._impairments.get(edge)
        if active is None:
            return
        active.pop(key, None)
        if not active:
            del self._impairments[edge]
        self._apply_impairment(edge)

    def _apply_impairment(self, edge: Tuple) -> None:
        active = self._impairments.get(edge, {})
        survive = [1.0, 1.0, 1.0, 1.0]  # loss, dup, reorder, corrupt
        delay = 0.0
        for params in active.values():
            for i in range(4):
                survive[i] *= 1.0 - params[i]
            delay += params[4]
        loss, dup, reorder, corrupt = (1.0 - s for s in survive)
        self._install_impairment(
            edge, min(loss, MAX_COMPOSED_LOSS), dup, reorder, corrupt, delay
        )

    def _install_impairment(
        self,
        edge: Tuple,
        loss: float,
        dup: float,
        reorder: float,
        corrupt: float,
        delay: float,
    ) -> None:
        """Substrate hook: apply the composed impairment to the edge.

        The simulator's channels are FIFO by-reference pipes: a corrupted
        datagram fails decode/MAC at the receiver, so corruption projects
        onto loss; duplication and reordering have no sim-channel
        representation (the PoR link above absorbs both) and are applied
        only by the live runtime's datagram injector.
        """
        effective = 1.0 - (1.0 - loss) * (1.0 - corrupt)
        self.network.impair_link(
            *edge,
            extra_loss=min(effective, MAX_COMPOSED_LOSS),
            extra_delay=delay,
        )

    # ------------------------------------------------------------------
    # Crash / restart (refcounted, with link-fault repair)
    # ------------------------------------------------------------------
    def _crash_node(self, node) -> None:
        refs = self._node_refs.get(node, 0)
        self._node_refs[node] = refs + 1
        if refs == 0 and not self.network.node(node).crashed:
            self.network.crash(node)

    def _recover_node(self, node) -> None:
        refs = self._node_refs.get(node, 0)
        if refs > 1:
            self._node_refs[node] = refs - 1
            return
        self._node_refs.pop(node, None)
        self.network.recover(node)
        # recover() restored every adjacent channel; re-fail the edges that
        # still have an active link fault (flap or partition).
        for neighbor in self.network.topology.neighbors(node):
            edge = _edge(node, neighbor)
            if self._link_refs.get(edge, 0) > 0:
                self._take_edge_down(edge)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _log(self, fault: Fault, phase: str) -> None:
        target = ",".join(str(t) for t in fault.target)
        self.applied.append(
            (self.network.sim.now, f"{phase} {fault.kind} [{target}]")
        )
        # Mirrored into the trace (sim-time events, deterministic) so a
        # `repro stats --trace` dump interleaves faults with protocol
        # activity without a separate chaos log.
        self.network.stats.trace.event(
            self.network.sim.now, f"chaos.{phase}", f"{fault.kind} [{target}]"
        )

    def summary(self) -> dict:
        """Deterministic run summary: per-kind counts, actions, skips."""
        return {
            "faults_applied": dict(self.counts),
            "actions": len(self.applied),
            "skipped": self.skipped,
            "scheduled": len(self.schedule),
            "faulted_nodes": sorted(str(n) for n in self.faulted_nodes),
        }
