"""Prior-work MPC baselines: Ceccarello, Pietracaprina and Pucci (VLDB'19).

CPP19 compute a composable local coreset per machine in *one* round: run a
farthest-point (Gonzalez) traversal with ``k + z_i`` centers on the local
data, then refine every cluster at granularity ``eps * r`` — yielding
``O((k + z_i) / eps^d)`` representatives per machine.  The two variants
differ only in the local outlier budget ``z_i``:

* deterministic (arbitrary distribution): ``z_i = z`` on every machine —
  the ``sqrt(n) z / eps^d`` storage term of Table 1 row 3;
* randomized (random distribution):   ``z_i = min(6z/m + 3 log n, z)`` —
  Table 1 row 1.

The reproduction gives the baseline the benefit of our tighter absorption
constant; the *shape* difference against the paper's algorithms — the
multiplicative ``1/eps^d`` on the outlier term, and the full ``z`` per
machine in the deterministic case — is inherent to the approach and is
what experiments E1/E2 measure.
"""

from __future__ import annotations

from ..core.greedy import gonzalez
from ..core.mbc import update_coreset
from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..engine import get_executor, map_machines
from .cluster import SimulatedMPC, cluster_for
from .one_round import random_outlier_budget
from .result import MPCCoresetResult
from .tasks import cpp_local_task

__all__ = [
    "cpp_local_coreset",
    "ceccarello_one_round_deterministic",
    "ceccarello_one_round_randomized",
]


def cpp_local_coreset(
    part: WeightedPointSet, k: int, z_local: int, eps: float, metric=None
) -> WeightedPointSet:
    """CPP19's per-machine coreset.

    Gonzalez with ``k + z_local`` centers gives radius
    ``r <= 2 opt_{k+z_local,0}(P_i) <= 2 opt_{k,z_local}(P_i)``; greedy
    absorption at ``eps * r / 2`` then places every local point within
    ``eps * opt`` of a representative.  Size ``O((k+z_local)/eps^d)``.
    """
    metric = get_metric(metric)
    if len(part) == 0:
        return part
    res = gonzalez(part, k + z_local, metric)
    if res.radius == 0.0:
        # k + z_local centers cover everything exactly: keep the distinct
        # points (absorption at radius 0)
        return update_coreset(part, 0.0, metric).coreset
    delta = eps * res.radius / 2.0
    return update_coreset(part, delta, metric).coreset


def _run_one_round(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    budgets: "list[int]",
    metric,
    cluster: "SimulatedMPC | None",
    executor=None,
) -> MPCCoresetResult:
    cluster = cluster_for(parts, cluster)
    locals_ = map_machines(
        get_executor(executor),
        cpp_local_task,
        [(part, k, budgets[i], eps, metric) for i, part in enumerate(parts)],
        machines=cluster.machines,
        charge=lambda mach, task, local: (
            mach.charge(len(task[0])), mach.charge(len(local))
        ),
    )
    union = cluster.gather(locals_, parts[0].dim)
    return MPCCoresetResult(
        coreset=union,
        eps_guarantee=eps,
        stats=cluster.stats(),
        extras={"budgets": budgets, "union_size": len(union)},
    )


def ceccarello_one_round_deterministic(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    metric=None,
    cluster: "SimulatedMPC | None" = None,
    executor=None,
) -> MPCCoresetResult:
    """CPP19 deterministic 1-round baseline (Table 1 row 3): every machine
    must budget the full ``z`` because the distribution is arbitrary."""
    metric = get_metric(metric)
    return _run_one_round(
        parts, k, z, eps, [z] * len(parts), metric, cluster, executor=executor
    )


def ceccarello_one_round_randomized(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    metric=None,
    cluster: "SimulatedMPC | None" = None,
    executor=None,
) -> MPCCoresetResult:
    """CPP19 randomized 1-round baseline (Table 1 row 1): per-machine
    budget ``min(6z/m + 3 log n, z)`` under random distribution."""
    metric = get_metric(metric)
    m = len(parts)
    n = sum(len(p) for p in parts)
    zp = random_outlier_budget(n, m, z)
    return _run_one_round(
        parts, k, z, eps, [zp] * m, metric, cluster, executor=executor
    )
