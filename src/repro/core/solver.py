"""Solvers for k-center with outliers.

Three tiers:

* :func:`brute_force_opt` — exact optimum over center sets drawn from the
  input points (the discrete k-center problem).  Exponential; used by the
  test-suite and the experiment harness to *certify* coreset guarantees on
  small instances.
* :func:`solve_kcenter_outliers` — practical solver: Charikar et al.
  3-approximation (or brute force on request).
* :func:`solve_via_coreset` — the paper's intended usage pattern: build a
  coreset with any of the library's algorithms, then run an offline solver
  on the coreset.  Running the exact solver on the coreset yields a
  ``(1+eps)``-approximation; running the 3-approximation yields a
  ``3(1+eps)``-approximation (Table 1 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .greedy import charikar_greedy
from .metrics import Metric, get_metric
from .points import WeightedPointSet
from .radius import coverage_radius

__all__ = [
    "Solution",
    "brute_force_opt",
    "continuous_opt_1d",
    "solve_kcenter_outliers",
    "solve_via_coreset",
]


@dataclass(frozen=True)
class Solution:
    """A k-center-with-outliers solution.

    Attributes
    ----------
    centers:
        ``(k', d)`` array of ball centers (``k' <= k``).
    radius:
        Radius such that all but weight ``z`` of the input lies within
        ``radius`` of the centers.
    method:
        ``"brute"`` (exact discrete optimum) or ``"greedy3"``.
    """

    centers: np.ndarray
    radius: float
    method: str


def brute_force_opt(
    wps: WeightedPointSet,
    k: int,
    z: int,
    metric: "Metric | str | None" = None,
    max_points: int = 16,
) -> Solution:
    """Exact discrete optimum by exhaustive search over center subsets.

    Centers are restricted to input points (standard for general metric
    spaces, where arbitrary centers are not meaningful).  Guarded by
    ``max_points`` because the cost is ``C(n, k)`` coverage evaluations.
    """
    metric = get_metric(metric)
    n = len(wps)
    if n > max_points:
        raise ValueError(
            f"brute force limited to {max_points} points, got {n}; "
            "raise max_points explicitly if you really mean it"
        )
    if n == 0 or wps.total_weight <= z:
        return Solution(np.zeros((0, wps.dim)), 0.0, "brute")
    k = min(k, n)
    # Deduplicate coordinates: coincident points never help as extra centers.
    uniq = np.unique(wps.points, axis=0)
    best_r, best_c = float("inf"), None
    for combo in combinations(range(len(uniq)), min(k, len(uniq))):
        centers = uniq[list(combo)]
        r = coverage_radius(wps, centers, z, metric)
        if r < best_r:
            best_r, best_c = r, centers
    return Solution(best_c, float(best_r), "brute")


def continuous_opt_1d(wps: WeightedPointSet, k: int, z: int) -> float:
    """Exact k-center with outliers on the line with *arbitrary* (not
    input-restricted) centers.

    The lower-bound proofs (§4, §6) reason about the continuous optimum;
    on the line it is computable exactly: the answer is half the length of
    the longest interval among ``k`` intervals covering all but weight
    ``z``.  Decision for radius ``r`` by dynamic programming over the
    sorted points (start an interval or declare outliers), binary-searched
    over the ``O(n^2)`` candidate radii ``(x_j - x_i)/2``.
    """
    if wps.dim != 1:
        raise ValueError("continuous_opt_1d requires 1-d input")
    n = len(wps)
    if n == 0 or wps.total_weight <= z:
        return 0.0
    order = np.argsort(wps.points[:, 0])
    xs = wps.points[order, 0]
    ws = wps.weights[order].astype(np.int64)

    def feasible(r: float) -> bool:
        """Cover all but weight <= z with k intervals of length 2r."""
        span = 2.0 * r + 1e-12 * max(1.0, r)
        # min_out[i][b]: min outlier weight for suffix i.. with b intervals
        # available; iterate b outermost to keep memory O(n)
        INF = float("inf")
        nxt = np.searchsorted(xs, xs + span, side="right")
        prev = np.empty(n + 1)
        # b = 0: all suffix points are outliers
        suffix_w = np.concatenate([np.cumsum(ws[::-1])[::-1], [0]])
        prev[:] = suffix_w
        for _b in range(1, k + 1):
            cur = np.empty(n + 1)
            cur[n] = 0.0
            for i in range(n - 1, -1, -1):
                # point i outlier, or open an interval at x_i
                cur[i] = min(cur[i + 1] + ws[i], prev[nxt[i]])
            prev = cur
        return prev[0] <= z

    # candidate radii: half of pairwise gaps (0 included)
    diffs = np.unique(xs[None, :] - xs[:, None])
    cands = np.unique(np.abs(diffs)) / 2.0
    lo, hi = 0, len(cands) - 1
    best = cands[hi]
    if not feasible(float(cands[hi])):  # pragma: no cover - cannot happen
        raise RuntimeError("max candidate infeasible")
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(float(cands[mid])):
            best = cands[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return float(best)


def solve_kcenter_outliers(
    wps: WeightedPointSet,
    k: int,
    z: int,
    metric: "Metric | str | None" = None,
    method: str = "greedy3",
) -> Solution:
    """Solve k-center with outliers on a (typically small) point set.

    ``method="greedy3"`` runs Charikar et al. (3-approximation);
    ``method="brute"`` runs the exact discrete optimum.
    """
    metric = get_metric(metric)
    if method == "brute":
        return brute_force_opt(wps, k, z, metric, max_points=len(wps))
    if method != "greedy3":
        raise ValueError(f"unknown method {method!r}")
    res = charikar_greedy(wps, k, z, metric)
    return Solution(wps.points[res.centers_idx], res.radius, "greedy3")


def solve_via_coreset(
    coreset: WeightedPointSet,
    k: int,
    z: int,
    metric: "Metric | str | None" = None,
    method: str = "greedy3",
) -> Solution:
    """Run an offline solver on a coreset (the paper's end-to-end recipe).

    By Definition 1, the radius returned on an ``(eps,k,z)``-coreset is a
    ``(1 +- eps)``-approximation of ``opt_{k,z}`` of the original set when
    ``method="brute"``, and a ``3(1+eps)``-approximation when
    ``method="greedy3"``.
    """
    return solve_kcenter_outliers(coreset, k, z, metric, method=method)
