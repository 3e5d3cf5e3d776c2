"""Frozen pre-refactor reference implementations (do NOT optimize).

These are verbatim copies of the ``Greedy(P,k,z)`` decision procedures and
the greedy absorption loop as they existed before the kernels-layer
refactor.  They exist for two reasons:

* the parity tests (``tests/test_greedy_parity.py``) prove the rewritten
  incremental implementations in :mod:`repro.core.greedy` and
  :mod:`repro.core.mbc` are bit-for-bit identical to these on float64
  integer-weighted instances, and
* the benchmark runner (``benchmarks/run_all.py``, which loads this file
  by path) measures speedups against them.

The one intentional deviation: the pre-refactor code decided feasibility
via ``int(weights[uncovered].sum()) <= z``, which truncates fractional
weights (uncovered weight ``z + 0.9`` passed as feasible).  All inputs the
library constructs carry integer weights, for which the truncation is a
no-op, so the copies here keep the historical expression — the float-safe
comparison lives only in the production code, with its own regression
test.
"""

from __future__ import annotations

import numpy as np

from repro.core.greedy import GreedyResult, gonzalez
from repro.core.metrics import Metric, get_metric
from repro.core.points import WeightedPointSet
from repro.core.radius import coverage_radius, nearest_center_distances

__all__ = [
    "greedy_disks_reference",
    "geometric_decision_reference",
    "charikar_greedy_reference",
    "greedy_absorb_reference",
]


def greedy_disks_reference(
    D: np.ndarray, weights: np.ndarray, k: int, z: int, guess: float
) -> "tuple[bool, list[int], np.ndarray]":
    """Pre-refactor Charikar decision: a fresh ``O(n^2)`` ball-membership
    matvec for every pick."""
    n = len(weights)
    tol = 1e-9 * max(1.0, guess)
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    within_g = D <= guess + tol
    within_3g = D <= 3.0 * guess + tol
    w = weights.astype(float)
    for _ in range(min(k, n)):
        if not uncovered.any():
            break
        gain = within_g @ (w * uncovered)
        v = int(np.argmax(gain))
        centers.append(v)
        uncovered &= ~within_3g[v]
    feasible = int(weights[uncovered].sum()) <= z
    return feasible, centers, uncovered


def geometric_decision_reference(
    wps: WeightedPointSet, metric: Metric, k: int, z: int, guess: float
) -> "tuple[bool, list[int], np.ndarray]":
    """Pre-refactor chunked decision: the full chunked distance matrix is
    re-derived for every pick of every guess."""
    pts, w = wps.points, wps.weights.astype(float)
    n = len(pts)
    tol = 1e-9 * max(1.0, guess)
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    chunk = 1024
    for _ in range(min(k, n)):
        if not uncovered.any():
            break
        best_gain, best_v = -1.0, -1
        wu = w * uncovered
        for i0 in range(0, n, chunk):
            block = metric.pairwise(pts[i0 : i0 + chunk], pts)
            gains = (block <= guess + tol) @ wu
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                best_gain, best_v = float(gains[j]), i0 + j
        centers.append(best_v)
        uncovered &= metric.to_set(pts[best_v], pts) > 3.0 * guess + tol
    feasible = int(wps.weights[uncovered].sum()) <= z
    return feasible, centers, uncovered


def charikar_greedy_reference(
    wps: WeightedPointSet,
    k: int,
    z: int,
    metric: "Metric | str | None" = None,
    tol: float = 0.05,
    pairwise_limit: int = 2048,
) -> GreedyResult:
    """Pre-refactor ``Greedy(P, k, z)``: same radius-search structure as
    :func:`repro.core.greedy.charikar_greedy`, driving the non-incremental
    decision procedures above."""
    metric = get_metric(metric)
    n = len(wps)
    if n == 0 or wps.total_weight <= z or k >= n:
        idx = np.arange(min(k, n), dtype=int)
        return GreedyResult(idx, 0.0, 0.0, np.zeros(n, dtype=bool))
    if k <= 0:
        raise ValueError("k must be positive")

    if n <= pairwise_limit:
        D = metric.pairwise(wps.points, wps.points)
        ok0, centers0, uncovered0 = greedy_disks_reference(D, wps.weights, k, z, 0.0)
        if ok0:
            return GreedyResult(
                np.asarray(centers0, dtype=int), 0.0, 0.0, uncovered0
            )
        cand = np.unique(D)
        cand = cand[cand > 0]
        if len(cand) == 0:
            return GreedyResult(
                np.zeros(1, dtype=int), 0.0, 0.0, np.zeros(n, dtype=bool)
            )
        lo, hi = 0, len(cand) - 1
        feasible_hi = greedy_disks_reference(D, wps.weights, k, z, float(cand[hi]))
        if not feasible_hi[0]:
            raise RuntimeError("greedy decision failed at maximum candidate radius")
        best = (float(cand[hi]),) + feasible_hi[1:]
        while lo <= hi:
            mid = (lo + hi) // 2
            g = float(cand[mid])
            ok, centers, uncovered = greedy_disks_reference(D, wps.weights, k, z, g)
            if ok:
                best = (g, centers, uncovered)
                hi = mid - 1
            else:
                lo = mid + 1
        guess, centers, uncovered = best
    else:
        ok0, centers0, uncovered0 = geometric_decision_reference(
            wps, metric, k, z, 0.0
        )
        if ok0:
            return GreedyResult(np.asarray(centers0, dtype=int), 0.0, 0.0, uncovered0)
        gz = gonzalez(wps, k, metric)
        hi_r = max(gz.radius, 1e-300)
        lo_r = hi_r / max(4.0 * n, 4.0)
        ok, centers, uncovered = geometric_decision_reference(wps, metric, k, z, lo_r)
        if ok:
            guess = lo_r
        else:
            ratio = 1.0 + tol
            m = int(np.ceil(np.log(hi_r / lo_r) / np.log(ratio))) + 1
            lo_i, hi_i = 0, m
            best = None
            while lo_i <= hi_i:
                mid = (lo_i + hi_i) // 2
                g = min(lo_r * ratio**mid, hi_r)
                ok, c, u = geometric_decision_reference(wps, metric, k, z, g)
                if ok:
                    best = (g, c, u)
                    hi_i = mid - 1
                else:
                    lo_i = mid + 1
            if best is None:
                g = hi_r
                ok, c, u = geometric_decision_reference(wps, metric, k, z, g)
                best = (g, c, u)
            guess, centers, uncovered = best

    centers_idx = np.asarray(centers, dtype=int)
    achieved = coverage_radius(wps, wps.points[centers_idx], z, metric)
    radius = float(min(3.0 * guess, achieved))
    d = nearest_center_distances(wps, wps.points[centers_idx], metric)
    uncovered = d > radius + 1e-9 * max(1.0, radius)
    return GreedyResult(centers_idx, radius, float(guess), uncovered)


def greedy_absorb_reference(
    wps: WeightedPointSet,
    delta: float,
    metric: Metric,
    order: "np.ndarray | None" = None,
) -> "tuple[WeightedPointSet, np.ndarray]":
    """Pre-refactor greedy absorption: one full-length ``to_set`` per
    representative, scanning all ``n`` points every time."""
    n = len(wps)
    if n == 0:
        return wps, np.zeros(0, dtype=np.int64)
    pts = wps.points
    if order is None:
        order = np.arange(n)
    remaining = np.ones(n, dtype=bool)
    assignment = np.full(n, -1, dtype=np.int64)
    rep_rows: list[int] = []
    rep_weights: list[int] = []
    tol = 1e-9 * max(1.0, delta)
    for idx in order:
        if not remaining[idx]:
            continue
        d = metric.to_set(pts[idx], pts)
        absorbed = remaining & (d <= delta + tol)
        assignment[absorbed] = len(rep_rows)
        rep_rows.append(int(idx))
        rep_weights.append(int(wps.weights[absorbed].sum()))
        remaining &= ~absorbed
    coreset = WeightedPointSet(
        pts[rep_rows], np.asarray(rep_weights, dtype=np.int64)
    )
    return coreset, assignment
