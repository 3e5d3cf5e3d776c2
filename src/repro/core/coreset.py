"""Coreset definitions and verification (Definition 1, Lemma 3).

An ``(eps,k,z)``-coreset ``P*`` of ``P`` must satisfy

1. ``(1-eps) opt_{k,z}(P) <= opt_{k,z}(P*) <= (1+eps) opt_{k,z}(P)``, and
2. for any ``k`` congruent balls leaving uncovered weight at most ``z`` on
   ``P*``, expanding their radius by ``eps * opt_{k,z}(P)`` leaves
   uncovered weight at most ``z`` on ``P``.

The verifiers here certify these conditions *empirically*: condition (1)
exactly via brute force on small instances (or within certified greedy
bounds otherwise), condition (2) on a caller-supplied or randomly sampled
family of ball sets.  They are the backbone of the test-suite and of the
quality experiment E9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greedy import charikar_greedy
from .metrics import Metric, get_metric
from .mbc import MiniBallCovering
from .points import WeightedPointSet
from .radius import nearest_center_distances
from .solver import brute_force_opt

__all__ = [
    "CoresetCheck",
    "verify_weight_property",
    "verify_covering_property",
    "verify_sandwich",
    "verify_expansion_property",
    "verify_mbc",
    "opt_bounds",
]

#: ``charikar_greedy``'s ladder tolerance in :func:`opt_bounds` (its default)
_GREEDY_TOL = 0.05


@dataclass(frozen=True)
class CoresetCheck:
    """Outcome of a coreset verification.

    Attributes
    ----------
    ok:
        Whether every checked condition held.
    details:
        Human-readable summary of each condition, for test failure
        messages and experiment reports.
    """

    ok: bool
    details: str


def verify_weight_property(
    original: WeightedPointSet, coreset: WeightedPointSet
) -> CoresetCheck:
    """Definition 2 property (1): total weight is preserved."""
    ok = original.total_weight == coreset.total_weight
    return CoresetCheck(
        ok,
        f"weight: original={original.total_weight} coreset={coreset.total_weight}",
    )


def _rowwise_distances(
    a: np.ndarray, b: np.ndarray, metric: Metric
) -> np.ndarray:
    """Distance between corresponding rows of ``a`` and ``b``."""
    name = getattr(metric, "name", "")
    diffs = a - b
    if name in ("euclidean", "l2"):
        return np.linalg.norm(diffs, axis=1)
    if name == "chebyshev":
        return np.abs(diffs).max(axis=1)
    if name == "manhattan":
        return np.abs(diffs).sum(axis=1)
    return np.array([metric.distance(a[i], b[i]) for i in range(len(a))])


def verify_covering_property(
    original: WeightedPointSet,
    mbc: MiniBallCovering,
    max_distance: float,
    metric: "Metric | str | None" = None,
) -> CoresetCheck:
    """Definition 2 property (2): every point is within ``max_distance`` of
    its representative (callers pass ``eps * opt`` or the construction's
    ``mini_ball_radius``)."""
    metric = get_metric(metric)
    if len(original) == 0:
        return CoresetCheck(True, "covering: empty input")
    if len(mbc.assignment) != len(original):
        return CoresetCheck(False, "covering: assignment length mismatch")
    if (mbc.assignment < 0).any():
        return CoresetCheck(False, "covering: unassigned points present")
    reps = mbc.coreset.points[mbc.assignment]
    d = _rowwise_distances(original.points, reps, metric)
    worst = float(d.max())
    tol = 1e-9 * max(1.0, max_distance)
    ok = worst <= max_distance + tol
    return CoresetCheck(ok, f"covering: worst={worst:.6g} allowed={max_distance:.6g}")


def opt_bounds(
    wps: WeightedPointSet,
    k: int,
    z: int,
    metric: "Metric | str | None" = None,
    exact_limit: int = 14,
) -> "tuple[float, float]":
    """Certified interval ``[lo, hi]`` containing ``opt_{k,z}(wps)``.

    Exact (``lo == hi``) via brute force when the instance is small;
    otherwise the Charikar certificate ``[r/3, r]`` when the search
    took the exact pairwise path, and ``[r/(3(1+tol)), r]`` when it took
    the geometric ladder, whose radius is only within ``3(1+tol)`` of
    opt.
    """
    metric = get_metric(metric)
    if len(wps) <= exact_limit:
        r = brute_force_opt(wps, k, z, metric, max_points=exact_limit).radius
        return r, r
    res = charikar_greedy(wps, k, z, metric, tol=_GREEDY_TOL)
    slack = 1.0 if res.path == "pairwise" else 1.0 + _GREEDY_TOL
    return res.radius / (3.0 * slack), res.radius


def verify_sandwich(
    original: WeightedPointSet,
    coreset: WeightedPointSet,
    k: int,
    z: int,
    eps: float,
    metric: "Metric | str | None" = None,
    exact_limit: int = 14,
) -> CoresetCheck:
    """Definition 1 condition (1), the ``(1 +- eps)`` sandwich.

    Uses exact optima when both sets are small enough, otherwise certified
    greedy intervals (the check then allows the interval slack, so it can
    only fail when the condition is *provably* violated).
    """
    metric = get_metric(metric)
    lo_p, hi_p = opt_bounds(original, k, z, metric, exact_limit)
    lo_c, hi_c = opt_bounds(coreset, k, z, metric, exact_limit)
    tol = 1e-9 * max(1.0, hi_p)
    # provable violation: even the most favourable values in the intervals
    # cannot satisfy the sandwich
    lower_ok = hi_c >= (1.0 - eps) * lo_p - tol
    upper_ok = lo_c <= (1.0 + eps) * hi_p + tol
    ok = lower_ok and upper_ok
    return CoresetCheck(
        ok,
        "sandwich: opt(P) in "
        f"[{lo_p:.6g},{hi_p:.6g}], opt(P*) in [{lo_c:.6g},{hi_c:.6g}], eps={eps}",
    )


def verify_expansion_property(
    original: WeightedPointSet,
    coreset: WeightedPointSet,
    k: int,
    z: int,
    eps: float,
    metric: "Metric | str | None" = None,
    ball_sets: "list[tuple[np.ndarray, float]] | None" = None,
    rng: "np.random.Generator | None" = None,
    trials: int = 20,
    opt_value: "float | None" = None,
) -> CoresetCheck:
    """Definition 1 condition (2) on a family of ball sets.

    For each ``(centers, r)`` with uncovered coreset weight at most ``z``,
    checks that uncovered *original* weight within radius
    ``r + eps*opt`` is at most ``z``.  When ``ball_sets`` is ``None``, a
    random family is sampled: centers drawn from the coreset points and
    radii spanning ``[0, 2*opt]``.
    """
    metric = get_metric(metric)
    if opt_value is None:
        opt_value = opt_bounds(original, k, z, metric)[1]
    if ball_sets is None:
        rng = rng or np.random.default_rng(0)
        ball_sets = []
        for _ in range(trials):
            kk = int(rng.integers(1, k + 1))
            if len(coreset) == 0:
                continue
            idx = rng.choice(len(coreset), size=min(kk, len(coreset)), replace=False)
            r = float(rng.uniform(0.0, 2.0 * max(opt_value, 1e-12)))
            ball_sets.append((coreset.points[idx], r))
    failures = []
    for centers, r in ball_sets:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if len(centers) > k:
            raise ValueError("ball set uses more than k balls")
        dc = nearest_center_distances(coreset, centers, metric)
        tol = 1e-9 * max(1.0, r)
        w_unc_core = int(coreset.weights[dc > r + tol].sum())
        if w_unc_core > z:
            continue  # premise not met; nothing to check
        r_exp = r + eps * opt_value
        dp = nearest_center_distances(original, centers, metric)
        tol2 = 1e-9 * max(1.0, r_exp)
        w_unc_orig = int(original.weights[dp > r_exp + tol2].sum())
        if w_unc_orig > z:
            failures.append((r, w_unc_core, w_unc_orig))
    ok = not failures
    return CoresetCheck(
        ok,
        f"expansion: {len(ball_sets)} ball sets checked, "
        f"{len(failures)} violations {failures[:3]}",
    )


def verify_mbc(
    original: WeightedPointSet,
    mbc: MiniBallCovering,
    k: int,
    z: int,
    eps: float,
    metric: "Metric | str | None" = None,
    exact_limit: int = 14,
) -> CoresetCheck:
    """Full Definition 2 + Lemma 3 verification of a mini-ball covering:
    weight preservation, covering distance at most ``eps * opt``, and the
    Definition 1 sandwich.

    The covering check allows ``eps * lo`` with ``lo`` the certified
    lower bound of :func:`opt_bounds` (opt itself on small instances), so
    a pass proves the covering is within ``eps * opt``; a covering that
    only meets ``eps * hi`` may be up to 3x too coarse and fails.
    """
    metric = get_metric(metric)
    checks = [verify_weight_property(original, mbc.coreset)]
    lo, _ = opt_bounds(original, k, z, metric, exact_limit)
    checks.append(verify_covering_property(original, mbc, eps * lo, metric))
    checks.append(
        verify_sandwich(original, mbc.coreset, k, z, eps, metric, exact_limit)
    )
    ok = all(c.ok for c in checks)
    return CoresetCheck(ok, "; ".join(c.details for c in checks))
