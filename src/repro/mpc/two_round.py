"""Algorithm 2 — the deterministic 2-round MPC coreset (§3, Theorem 10).

The input may be distributed *arbitrarily* (even adversarially) over the
machines, so no machine knows how many of the global ``z`` outliers it
holds.  The paper's outlier-guessing mechanism works in two rounds:

Round 1
    Each machine ``M_i`` computes, for ``j = 0..ceil(log2(z+1))``, the
    ``Greedy`` radius ``V_i[j]`` for the k-center problem with ``2^j - 1``
    outliers on its local data, and broadcasts the vector ``V_i``.

Round 2
    From the shared vectors every machine deterministically derives
    ``rhat = min { r : sum_l (2^{min{j : V_l[j] <= r}} - 1) <= 2z }``,
    a certified lower-bound proxy (``rhat <= 3 opt``, Lemma 8).  Machine
    ``M_i`` then guesses its outlier budget ``2^{jhat_i} - 1`` with
    ``jhat_i = min{j : V_i[j] <= rhat}`` — the budgets sum to at most
    ``2z`` — builds the local mini-ball covering
    ``MBCConstruction(P_i, k, 2^{jhat_i}-1, eps)`` and ships it to the
    coordinator, who unions the pieces (an ``(eps,k,z)``-MBC of ``P`` by
    Lemma 9) and re-compresses once more (Lemma 5), for a final
    ``(3 eps, k, z)``-coreset.

Set ``outlier_guessing=False`` for the ablation (experiment E16): each
machine then budgets the full ``z`` locally, which inflates worker output
and coordinator storage by ``Theta(m z)`` — exactly the term the
mechanism exists to remove.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from ..core.mbc import compose_errors, mbc_construction
from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..engine import get_executor, map_machines
from .cluster import SimulatedMPC, cluster_for
from .result import MPCCoresetResult
from .tasks import mbc_task, radius_vector_task

__all__ = ["outlier_vector_length", "compute_rhat", "coordinator_compress",
           "two_round_coreset"]


def outlier_vector_length(z: int) -> int:
    """Length of the radius vector ``V_i``: ``ceil(log2(z+1)) + 1``."""
    if z < 0:
        raise ValueError("z must be non-negative")
    return int(ceil(log2(z + 1))) + 1 if z > 0 else 1


def compute_rhat(vectors: "list[np.ndarray]", z: int) -> "tuple[float, list[int]]":
    """Round-2 shared computation: ``rhat`` and the per-machine guesses.

    Parameters
    ----------
    vectors:
        The broadcast vectors ``V_1..V_m`` (each of length
        :func:`outlier_vector_length`).
    z:
        Global outlier budget.

    Returns ``(rhat, jhats)`` where ``jhats[i] = min{j : V_i[j] <= rhat}``.
    Raises if no candidate radius is feasible (impossible per Lemma 8 when
    the vectors come from ``Greedy``; kept as a guard for misuse).
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    candidates = np.unique(np.concatenate(vecs))

    def budget_sum(r: float) -> float:
        total = 0.0
        for v in vecs:
            ok = np.flatnonzero(v <= r + 1e-12 * max(1.0, r))
            if len(ok) == 0:
                return float("inf")
            total += 2.0 ** int(ok[0]) - 1.0
        return total

    # budget_sum is non-increasing in r, so the first feasible candidate in
    # ascending order is the minimum.
    rhat = None
    for r in candidates:
        if budget_sum(float(r)) <= 2.0 * z:
            rhat = float(r)
            break
    if rhat is None:
        raise RuntimeError("no feasible rhat; vectors are inconsistent with Lemma 8")
    jhats = []
    for v in vecs:
        ok = np.flatnonzero(v <= rhat + 1e-12 * max(1.0, rhat))
        jhats.append(int(ok[0]))
    return rhat, jhats


def coordinator_compress(cluster: SimulatedMPC, union: WeightedPointSet, k: int,
                         z: int, eps: float, metric,
                         final_compress: bool = True,
                         ) -> "tuple[WeightedPointSet, float]":
    """Lemma 5 at the coordinator: ``(coreset, eps_guarantee)`` of the
    union of the machines' ``(eps, k, z)``-coverings re-compressed once
    (charged to the coordinator; ``<= 3 eps`` for ``eps <= 1``), or of the
    union itself when ``final_compress`` is off or the union is empty."""
    if not (final_compress and len(union)):
        return union, eps
    final_mbc = mbc_construction(union, k, z, eps, metric)
    cluster.coordinator.charge(final_mbc.size)
    return final_mbc.coreset, compose_errors(eps, eps)


def two_round_coreset(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    metric=None,
    final_compress: bool = True,
    outlier_guessing: bool = True,
    cluster: "SimulatedMPC | None" = None,
    executor=None,
) -> MPCCoresetResult:
    """Run Algorithm 2 on pre-partitioned input.

    Parameters
    ----------
    parts:
        Per-machine point sets ``P_1..P_m`` (``parts[0]`` lives on the
        coordinator, which also acts as a worker for its own data).
    final_compress:
        Re-compress the union at the coordinator (Theorem 10; ablation
        E17 turns this off, keeping the union's ``eps`` but a larger
        coreset).
    outlier_guessing:
        The paper's mechanism (True) versus naive local budget ``z``
        (False) — ablation E16.  The naive variant needs one round only.
    executor:
        How the machine-local computations run: an executor name
        (``"serial"``, ``"thread"``, ``"process"``), a
        :class:`~repro.engine.Executor` instance, or ``None`` (serial).
        Results are bit-identical under every executor.

    Returns the coordinator's coreset with ``eps_guarantee = 3*eps`` when
    re-compressed, ``eps`` otherwise.
    """
    metric = get_metric(metric)
    cluster = cluster_for(parts, cluster)
    machines = cluster.machines
    exec_ = get_executor(executor)
    for i, part in enumerate(parts):
        machines[i].charge(len(part))  # local input

    veclen = outlier_vector_length(z)
    rhat = float("nan")
    jhats: "list[int]" = [0] * len(parts)

    if outlier_guessing:
        # ---- Round 1: local radius vectors, broadcast -------------------
        vectors = map_machines(
            exec_,
            radius_vector_task,
            [(part, k, veclen, metric) for part in parts],
            machines=machines,
            charge=lambda mach, task, vec: mach.charge(veclen),  # own vector
        )
        for i, v in enumerate(vectors):
            cluster.broadcast(i, v, items=veclen)
        cluster.end_round()

        # ---- Round 2: shared rhat, local MBC with guessed budget --------
        # Every machine runs the same deterministic computation on the same
        # m vectors; we run it once and charge everyone for holding them.
        rhat, jhats = compute_rhat(vectors, z)
        budgets = [(1 << j) - 1 for j in jhats]
        tasks = [
            (part, k, budget, eps, metric, float(vec[jhat]))
            for part, budget, jhat, vec in zip(parts, budgets, jhats, vectors)
        ]
    else:
        # ---- Naive ablation: one round, local budget z everywhere -------
        budgets = [z] * len(parts)
        tasks = [(part, k, z, eps, metric, None) for part in parts]
    mbcs = map_machines(exec_, mbc_task, tasks, machines=machines,
                        charge=lambda mach, task, mbc: mach.charge(mbc.size))

    # ---- Coordinator: union (Lemma 9) + optional re-compression ----------
    union = cluster.gather([mbc.coreset for mbc in mbcs], parts[0].dim)
    coreset, eps_out = coordinator_compress(
        cluster, union, k, z, eps, metric, final_compress
    )
    return MPCCoresetResult(
        coreset=coreset,
        eps_guarantee=eps_out,
        stats=cluster.stats(),
        extras={
            "rhat": rhat,
            "jhats": jhats,
            "outlier_budgets": budgets,
            "union_size": len(union),
        },
    )
