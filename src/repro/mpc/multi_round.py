"""Algorithm 7 — the deterministic R-round MPC coreset (§7.2, Theorem 35).

A rounds-versus-storage trade-off: machines form a ``beta``-ary reduction
tree with ``beta = ceil(m^{1/R})``.  In every round each active machine
compresses the union of what it received into an ``(eps,k,z)``-mini-ball
covering and forwards it up the tree; after ``R`` rounds the coordinator
holds a ``((1+eps)^R - 1, k, z)``-coreset (error composes by Lemma 5,
unions are safe by Lemma 4).
"""

from __future__ import annotations

from math import ceil

from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..engine import get_executor, map_machines
from .cluster import SimulatedMPC, cluster_for
from .result import MPCCoresetResult
from .tasks import mbc_task

__all__ = ["multi_round_coreset"]


def multi_round_coreset(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    rounds: int,
    metric=None,
    cluster: "SimulatedMPC | None" = None,
    executor=None,
) -> MPCCoresetResult:
    """Run Algorithm 7 with ``R = rounds`` communication rounds.

    ``parts[i]`` is machine ``i``'s initial data (machine 0 is the paper's
    ``M_1``, the coordinator).  ``eps_guarantee = (1+eps)^rounds - 1``.
    The per-round machine-local MBC constructions fan out through
    ``executor`` (name, :class:`~repro.engine.Executor`, or ``None`` for
    serial; bit-identical results under every executor).
    """
    metric = get_metric(metric)
    cluster = cluster_for(parts, cluster)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    m = len(parts)
    machines = cluster.machines
    exec_ = get_executor(executor)
    beta = max(2, int(ceil(m ** (1.0 / rounds))))
    dim = parts[0].dim

    # Q[i] holds machine i's current working set.
    Q: "list[WeightedPointSet]" = []
    for i, part in enumerate(parts):
        machines[i].charge(len(part))
        Q.append(part)

    active = m
    for _t in range(rounds):
        next_active = int(ceil(active / beta))
        self_deliveries: "list[tuple[int, WeightedPointSet]]" = []
        mbcs = map_machines(
            exec_,
            mbc_task,
            [(Q[i], k, z, eps, metric, None) for i in range(active)],
            machines=machines[:active],
            charge=lambda mach, task, mbc: mach.charge(mbc.size),
        )
        for i, mbc in enumerate(mbcs):
            dest = i // beta  # paper's ceil(i/beta) in 1-based indexing
            if dest == i:
                # self-delivery: no network traffic, but the storage stays;
                # appended after end_round() so reset_inbox cannot drop it
                self_deliveries.append((i, mbc.coreset))
            else:
                cluster.send(i, dest, mbc.coreset, items=mbc.size)
        cluster.end_round()
        for i, payload in self_deliveries:
            machines[i].inbox.append((i, payload))
        newQ: "list[WeightedPointSet]" = []
        for i in range(next_active):
            payloads = [p for _, p in machines[i].inbox if len(p)]
            newQ.append(
                WeightedPointSet.concat(payloads)
                if payloads
                else WeightedPointSet.empty(dim)
            )
        Q = newQ
        active = next_active
    assert active == 1, "reduction tree must end at the coordinator"

    coreset = Q[0]
    eps_out = (1.0 + eps) ** rounds - 1.0
    return MPCCoresetResult(
        coreset=coreset,
        eps_guarantee=eps_out,
        stats=cluster.stats(),
        extras={"beta": beta},
    )
