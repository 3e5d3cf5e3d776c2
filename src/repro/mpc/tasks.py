"""Module-level machine-local computations for the round protocols.

These are the units of work the protocols fan out through a
:class:`repro.engine.Executor`.  They live at module scope (not as
closures inside the protocol functions) so a ``ProcessExecutor`` can
pickle them; each takes a single plain-data tuple for the same reason.
All are pure functions of their inputs — no shared state, no
:class:`~repro.mpc.machine.Machine` mutation (accounting happens in the
calling process, see :func:`repro.engine.map_machines`).
"""

from __future__ import annotations

import numpy as np

from ..core.greedy import charikar_greedy
from ..core.mbc import MiniBallCovering, mbc_construction

__all__ = ["mbc_task", "radius_vector_task", "cpp_local_task"]


def mbc_task(args) -> MiniBallCovering:
    """``(part, k, z_local, eps, metric, radius)`` →
    ``MBCConstruction(part, k, z_local, eps)`` (Lemma 7)."""
    part, k, z_local, eps, metric, radius = args
    return mbc_construction(part, k, z_local, eps, metric, radius=radius)


def radius_vector_task(args) -> np.ndarray:
    """``(part, k, veclen, metric)`` → the round-1
    vector ``V_i`` of Algorithm 2: ``V_i[j] = Greedy(part, k, 2^j - 1)``
    radius.

    One :func:`~repro.core.greedy.charikar_greedy` call serves the whole
    vector: its decisions do not depend on the outlier budget, so each
    radius guess is decided once and shared by every ``j``, and each
    entry equals the one-budget call's radius bit for bit."""
    part, k, veclen, metric = args
    budgets = [(1 << j) - 1 for j in range(veclen)]
    results = charikar_greedy(part, k, budgets, metric)
    return np.array([res.radius for res in results], dtype=float)


def cpp_local_task(args):
    """``(part, k, z_local, eps, metric)`` → CPP19's per-machine coreset
    (deferred import: baselines imports this module)."""
    from .baselines import cpp_local_coreset

    part, k, z_local, eps, metric = args
    return cpp_local_coreset(part, k, z_local, eps, metric)
