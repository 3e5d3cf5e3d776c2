"""Simulated synchronous MPC cluster (the paper's computation model, §1).

Computation proceeds in synchronous rounds: every machine performs an
arbitrary local computation, then sends messages; messages are delivered
at the start of the next round.  The simulator executes machines
sequentially (the algorithms are deterministic given their inputs, so
this is semantically identical to parallel execution) and accounts

* the number of *communication rounds* used,
* per-message and total communication volume in items, and
* per-machine peak storage (via :class:`~repro.mpc.machine.Machine`).

The message-passing API mirrors mpi4py idioms (``send`` / ``broadcast``
with explicit payloads), but every send declares its size in items so the
accounting matches the unit of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.points import WeightedPointSet
from .machine import Machine

__all__ = ["MPCStats", "SimulatedMPC", "cluster_for"]


@dataclass(frozen=True)
class MPCStats:
    """Resource usage of a finished MPC computation.

    Attributes
    ----------
    rounds:
        Number of communication rounds (the paper's measure: computation
        happens between communication rounds and is not counted).
    coordinator_peak:
        Peak storage (items) of the coordinator machine.
    worker_peak:
        Maximum peak storage over the worker machines.
    per_machine_peak:
        Peak storage of every machine, indexed by machine id.
    total_communication:
        Total items sent over the network across all rounds.
    """

    rounds: int
    coordinator_peak: int
    worker_peak: int
    per_machine_peak: "tuple[int, ...]"
    total_communication: int


class SimulatedMPC:
    """A cluster of ``m`` machines; machine 0 is the coordinator.

    Usage pattern (one round)::

        for mach in cluster.machines:
            ...local computation...
            cluster.send(mach.mid, dst, payload, items=n)
        cluster.end_round()          # delivers messages, counts the round
        for mach in cluster.machines:
            for src, payload in mach.inbox: ...

    A round in which every machine ships one point set to the
    coordinator is :meth:`gather`.  Delivered payloads are automatically
    charged to the recipient's storage; the recipient must
    :meth:`Machine.release` them when it discards them.
    """

    def __init__(self, num_machines: int):
        if num_machines < 1:
            raise ValueError("need at least one machine")
        self.machines = [Machine(i, is_coordinator=(i == 0)) for i in range(num_machines)]
        self._pending: "list[tuple[int, int, object, int]]" = []
        self._rounds = 0
        self._communication = 0

    # -- topology ----------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of machines."""
        return len(self.machines)

    @property
    def coordinator(self) -> Machine:
        """The designated coordinator machine (id 0)."""
        return self.machines[0]

    @property
    def workers(self) -> "list[Machine]":
        """All non-coordinator machines."""
        return self.machines[1:]

    # -- messaging -----------------------------------------------------------

    def send(self, src: int, dst: int, payload, items: int) -> None:
        """Queue a message for delivery at the next :meth:`end_round`.

        ``items`` is the message size in the storage unit (points / vector
        entries); it is added to the communication total and charged to
        the recipient on delivery.
        """
        if not (0 <= src < self.m and 0 <= dst < self.m):
            raise ValueError("machine id out of range")
        if items < 0:
            raise ValueError("items must be non-negative")
        self._pending.append((src, dst, payload, int(items)))

    def broadcast(self, src: int, payload, items: int) -> None:
        """Send ``payload`` to every *other* machine."""
        for dst in range(self.m):
            if dst != src:
                self.send(src, dst, payload, items)

    def gather(self, payloads: "list[WeightedPointSet]",
               dim: int) -> WeightedPointSet:
        """One round in which machine ``i`` ships ``payloads[i]`` to the
        coordinator; returns the union the coordinator then holds (empty
        ``dim``-dimensional when every payload is empty)."""
        for i, payload in enumerate(payloads):
            self.send(i, 0, payload, items=len(payload))
        self.end_round()
        received = [p for _, p in self.coordinator.inbox if len(p)]
        if not received:
            return WeightedPointSet.empty(dim)
        return WeightedPointSet.concat(received)

    def end_round(self) -> None:
        """Deliver all queued messages and count one communication round."""
        for mach in self.machines:
            mach.reset_inbox()
        for src, dst, payload, items in self._pending:
            mach = self.machines[dst]
            mach.inbox.append((src, payload))
            mach.charge(items)
            self._communication += items
        self._pending = []
        self._rounds += 1

    # -- accounting -----------------------------------------------------------

    def stats(self) -> MPCStats:
        """Snapshot of resource usage so far."""
        peaks = tuple(m.peak_items for m in self.machines)
        worker_peak = max((m.peak_items for m in self.workers), default=0)
        return MPCStats(
            rounds=self._rounds,
            coordinator_peak=self.coordinator.peak_items,
            worker_peak=worker_peak,
            per_machine_peak=peaks,
            total_communication=self._communication,
        )


def cluster_for(parts: "list[WeightedPointSet]",
                cluster: "SimulatedMPC | None" = None) -> SimulatedMPC:
    """The cluster the per-machine ``parts`` run on: ``cluster`` when
    given (one machine per part), else a fresh one."""
    if len(parts) < 1:
        raise ValueError("need at least one machine")
    if cluster is None:
        return SimulatedMPC(len(parts))
    if cluster.m != len(parts):
        raise ValueError("cluster size does not match number of parts")
    return cluster
