"""Coverage-radius evaluation.

Given candidate centers, these utilities compute the smallest radius that
covers all but (weight) ``z`` of a weighted point set — the objective value
of the k-center problem with outliers — plus related helpers used by both
the solvers and the coreset verifiers.
"""

from __future__ import annotations

import numpy as np

from ..kernels import DEFAULT_BLOCK_BYTES
from .metrics import Metric, get_metric
from .points import WeightedPointSet

__all__ = [
    "nearest_center_distances",
    "coverage_radius",
    "uncovered_weight",
    "min_pairwise_distance",
]


def nearest_center_distances(
    wps: WeightedPointSet, centers: np.ndarray, metric: "Metric | str | None" = None
) -> np.ndarray:
    """Distance from each point of ``wps`` to its nearest center.

    ``centers`` is an array of shape ``(k, d)``.  Returns shape ``(n,)``.
    Rows are taken in blocks whose distance matrix fits the kernel
    layer's block budget, so ``n x k`` distances are never held at once.
    """
    metric = get_metric(metric)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(wps) == 0:
        return np.zeros(0)
    if len(centers) == 0:
        return np.full(len(wps), np.inf)
    rows = max(1, DEFAULT_BLOCK_BYTES // (8 * len(centers)))
    out = np.empty(len(wps))
    for i0 in range(0, len(wps), rows):
        out[i0:i0 + rows] = metric.pairwise(
            wps.points[i0:i0 + rows], centers).min(axis=1)
    return out


def coverage_radius(
    wps: WeightedPointSet,
    centers: np.ndarray,
    z: int,
    metric: "Metric | str | None" = None,
) -> float:
    """Smallest ``r`` such that the weight of points farther than ``r``
    from every center is at most ``z``.

    This is the objective value achieved by ``centers`` for the k-center
    problem with ``z`` (weighted) outliers.  Returns ``0.0`` when the total
    weight is at most ``z`` (everything may be declared an outlier) and
    ``inf`` when there are no centers but uncovered weight exceeds ``z``.
    """
    if wps.total_weight <= z:
        return 0.0
    return _coverage_radius_of(
        nearest_center_distances(wps, centers, metric), wps.weights, z)


def _coverage_radius_of(d: np.ndarray, weights: np.ndarray, z) -> float:
    """:func:`coverage_radius` from the nearest-center distances ``d``
    (:func:`nearest_center_distances`) of points weighing ``weights``,
    for callers that need the distances too."""
    if weights.sum() <= z:
        return 0.0
    if np.isinf(d).any():
        return float("inf")
    order = np.argsort(d)[::-1]  # farthest first
    cum = np.cumsum(weights[order])
    # The farthest points of total weight <= z may be dropped; the radius is
    # the distance of the first point whose cumulative weight exceeds z.
    idx = int(np.searchsorted(cum, z, side="right"))
    # cum[idx] > z is guaranteed because total weight > z.
    return float(d[order[idx]])


def uncovered_weight(
    wps: WeightedPointSet,
    centers: np.ndarray,
    r: float,
    metric: "Metric | str | None" = None,
) -> float:
    """Exact total weight of points strictly farther than ``r`` from every
    center (with a tiny relative tolerance so that points *on* a ball
    boundary count as covered).

    Returns the weight as an exact float: the pre-1.5 code truncated via
    ``int(...)``, so a fractional uncovered weight of ``z + 0.9`` passed a
    ``<= z`` budget test — the same bug class the greedy feasibility test
    had before PR 3.  Callers comparing against a budget ``z`` should use
    a tolerance compare (``weight <= z + 1e-9 * max(1, z)``), which is
    identical to the old behaviour on integer weights (any violation is
    at least 1) and correct on fractional ones.
    """
    if len(wps) == 0:
        return 0.0
    d = nearest_center_distances(wps, centers, metric)
    tol = 1e-9 * max(1.0, abs(r))
    return float(np.asarray(wps.weights, dtype=float)[d > r + tol].sum())


def min_pairwise_distance(
    points: np.ndarray, metric: "Metric | str | None" = None
) -> float:
    """Minimum distance between two distinct points of ``points``.

    Used by Algorithm 3 (line 6) to initialize the radius estimate.  Raises
    if fewer than two points are given.  Coincident points yield ``0.0``.
    """
    metric = get_metric(metric)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    best = np.inf
    # chunked to keep memory bounded on large inputs
    chunk = 1024
    for i0 in range(0, n, chunk):
        a = points[i0 : i0 + chunk]
        dm = metric.pairwise(a, points)
        # mask the diagonal of the global matrix
        for r in range(len(a)):
            dm[r, i0 + r] = np.inf
        best = min(best, float(dm.min()))
    return best
