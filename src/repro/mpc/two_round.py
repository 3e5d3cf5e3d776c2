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
from ..engine import map_machines
from .cluster import SimulatedMPC, resolve_executor
from .result import MPCCoresetResult
from .tasks import mbc_task, radius_vector_task

__all__ = ["outlier_vector_length", "compute_rhat", "two_round_coreset"]


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


def two_round_coreset(
    parts: "list[WeightedPointSet]",
    k: int,
    z: int,
    eps: float,
    metric=None,
    final_compress: bool = True,
    outlier_guessing: bool = True,
    cluster: "SimulatedMPC | None" = None,
    parallel: bool = False,
    executor=None,
    dtype=None,
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
    parallel:
        Legacy spelling of ``executor="thread"``.
    executor:
        How the machine-local computations run: an executor name
        (``"serial"``, ``"thread"``, ``"process"``), a
        :class:`~repro.engine.Executor` instance, or ``None`` (serial).
        Results are bit-identical under every executor.
    dtype:
        Distance-kernel precision
        (:func:`repro.core.greedy.charikar_greedy`), shipped inside the
        task tuples so process workers honor it too.

    Returns the coordinator's coreset with ``eps_guarantee = 3*eps`` when
    re-compressed, ``eps`` otherwise.
    """
    metric = get_metric(metric)
    m = len(parts)
    if m < 1:
        raise ValueError("need at least one machine")
    cluster = cluster or SimulatedMPC(m)
    if cluster.m != m:
        raise ValueError("cluster size does not match number of parts")
    machines = cluster.machines
    exec_ = resolve_executor(executor, parallel)
    for i, part in enumerate(parts):
        machines[i].charge(len(part))  # local input

    veclen = outlier_vector_length(z)
    rhat = float("nan")
    jhats: "list[int]" = [0] * m

    if outlier_guessing:
        # ---- Round 1: local radius vectors, broadcast -------------------
        vectors = map_machines(
            exec_,
            radius_vector_task,
            [(part, k, veclen, metric, dtype) for part in parts],
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

        mbcs = map_machines(
            exec_,
            mbc_task,
            [
                (part, k, (1 << jhat) - 1, eps, metric, float(vec[jhat]),
                 dtype)
                for part, jhat, vec in zip(parts, jhats, vectors)
            ],
            machines=machines,
            charge=lambda mach, task, mbc: mach.charge(mbc.size),
        )
        for i, mbc in enumerate(mbcs):
            cluster.send(i, 0, mbc.coreset, items=mbc.size)
        cluster.end_round()
        budgets = [(1 << j) - 1 for j in jhats]
    else:
        # ---- Naive ablation: one round, local budget z everywhere -------
        mbcs = map_machines(
            exec_,
            mbc_task,
            [(part, k, z, eps, metric, None, dtype) for part in parts],
            machines=machines,
            charge=lambda mach, task, mbc: mach.charge(mbc.size),
        )
        for i, mbc in enumerate(mbcs):
            cluster.send(i, 0, mbc.coreset, items=mbc.size)
        cluster.end_round()
        budgets = [z] * m

    # ---- Coordinator: union (Lemma 9) + optional re-compression ----------
    received = [payload for _, payload in machines[0].inbox]
    union = WeightedPointSet.concat([s for s in received if len(s)]) if any(
        len(s) for s in received
    ) else WeightedPointSet.empty(parts[0].dim)
    if final_compress and len(union):
        final_mbc = mbc_construction(union, k, z, eps, metric, dtype=dtype)
        coreset = final_mbc.coreset
        machines[0].charge(final_mbc.size)
        eps_out = compose_errors(eps, eps)  # <= 3*eps for eps <= 1
    else:
        coreset = union
        eps_out = eps
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
