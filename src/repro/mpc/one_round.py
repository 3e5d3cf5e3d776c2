"""Algorithm 6 — the randomized 1-round MPC coreset (§7.1, Theorem 33).

The algorithm itself is deterministic; the randomness is the assumption
that the input is distributed uniformly at random over the machines, so
each machine holds at most ``z' = min(6z/m + 3 log n, z)`` outliers with
high probability (Lemma 32).  Each machine builds
``MBCConstruction(P_i, k, z', eps)`` and ships it to the coordinator in a
single round; the coordinator unions (Lemma 4) and re-compresses
(Lemma 5) into a ``(3 eps, k, z)``-coreset.
"""

from __future__ import annotations

from math import ceil, log2

from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..engine import get_executor, map_machines
from .cluster import SimulatedMPC, cluster_for
from .result import MPCCoresetResult
from .tasks import mbc_task
from .two_round import coordinator_compress

__all__ = ["random_outlier_budget", "one_round_coreset"]


def random_outlier_budget(n: int, m: int, z: int) -> int:
    """Lemma 32's whp bound ``min(6z/m + 3 log n, z)`` on per-machine
    outliers under random distribution (log base 2; the constant inside a
    log does not affect the guarantee)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if z == 0:
        return 0
    whp = ceil(6.0 * z / m + 3.0 * log2(max(n, 2)))
    return int(min(whp, z))


def one_round_coreset(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    metric=None,
    final_compress: bool = True,
    cluster: "SimulatedMPC | None" = None,
    executor=None,
) -> MPCCoresetResult:
    """Run Algorithm 6 on randomly partitioned input.

    The caller is responsible for the random-distribution assumption
    (use :func:`repro.mpc.partition.partition_random`); with an
    adversarial partition the output can silently miss outliers — that
    failure mode is demonstrated by experiment E2.

    ``executor`` selects how the machine-local MBC constructions run
    (name, :class:`~repro.engine.Executor`, or ``None`` for serial);
    results are bit-identical under every executor.
    """
    metric = get_metric(metric)
    cluster = cluster_for(parts, cluster)
    n = sum(len(p) for p in parts)
    zprime = random_outlier_budget(n, len(parts), z)

    mbcs = map_machines(
        get_executor(executor),
        mbc_task,
        [(part, k, zprime, eps, metric, None) for part in parts],
        machines=cluster.machines,
        charge=lambda mach, task, mbc: (mach.charge(len(task[0])), mach.charge(mbc.size)),
    )
    union = cluster.gather([mbc.coreset for mbc in mbcs], parts[0].dim)
    coreset, eps_out = coordinator_compress(
        cluster, union, k, z, eps, metric, final_compress
    )
    return MPCCoresetResult(
        coreset=coreset,
        eps_guarantee=eps_out,
        stats=cluster.stats(),
        extras={"zprime": zprime, "union_size": len(union)},
    )
