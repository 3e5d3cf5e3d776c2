"""Bit-for-bit parity of the incremental radius-search stack against the
frozen pre-refactor reference (``tests/_greedy_reference.py``).

The kernels refactor rewrote ``_greedy_disks`` / ``_geometric_decision``
to maintain gains incrementally and ``_greedy_absorb`` to prune
candidates through a grid; because all library weights are integers
(exact in float64), every intermediate sum matches the recomputed one
exactly, so the outputs must be *identical*, not merely close.  These
tests enforce that on randomized weighted instances, plus the
float-feasibility bugfix regression (fractional uncovered weight
``z + 0.9`` must no longer pass as feasible).
"""

import numpy as np
import pytest

from repro.core import WeightedPointSet, charikar_greedy, mbc_construction
from _greedy_reference import (
    charikar_greedy_reference,
    geometric_decision_reference,
    greedy_absorb_reference,
    greedy_disks_reference,
)
from repro.core.greedy import (
    _geometric_decision,
    _greedy_disks,
    _uncovered_weight,
    _weight_feasible,
)
from repro.core.mbc import _greedy_absorb
from repro.core.metrics import PrecomputedMetric, get_metric

METRICS = ("euclidean", "chebyshev", "manhattan")


def _random_instance(rng, n_max=160):
    n = int(rng.integers(3, n_max))
    d = int(rng.integers(1, 4))
    pts = rng.normal(size=(n, d)) * float(rng.choice([0.1, 1.0, 50.0]))
    if rng.random() < 0.3:  # duplicates exercise the radius-0 branches
        pts[int(rng.integers(0, n))] = pts[int(rng.integers(0, n))]
    w = rng.integers(1, 7, n)
    return WeightedPointSet(pts, w)


def _feasible(weights, uncovered, z):
    """The search's feasibility test on a (z-free) decision's mask."""
    return _weight_feasible(_uncovered_weight(weights, uncovered), z)


def _assert_same_result(a, b):
    assert a.radius == b.radius
    assert a.guess == b.guess
    np.testing.assert_array_equal(a.centers_idx, b.centers_idx)
    np.testing.assert_array_equal(a.uncovered, b.uncovered)


class TestCharikarParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_pairwise_path_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        P = _random_instance(rng)
        k = int(rng.integers(1, 6))
        z = int(rng.integers(0, 9))
        met = get_metric(str(rng.choice(METRICS)))
        _assert_same_result(
            charikar_greedy(P, k, z, met),
            charikar_greedy_reference(P, k, z, met),
        )

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_geometric_path_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        P = _random_instance(rng)
        k = int(rng.integers(1, 6))
        z = int(rng.integers(0, 9))
        met = get_metric(str(rng.choice(METRICS)))
        # a tiny pairwise_limit forces the chunked geometric search
        _assert_same_result(
            charikar_greedy(P, k, z, met, pairwise_limit=8),
            charikar_greedy_reference(P, k, z, met, pairwise_limit=8),
        )

    def test_precomputed_metric_bit_identical(self):
        rng = np.random.default_rng(99)
        n = 40
        raw = rng.random((n, 2))
        D = np.round(
            np.abs(raw[:, None, :] - raw[None, :, :]).sum(-1), 6
        )
        D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
        met = PrecomputedMetric(D, doubling=2)
        ids = np.arange(n, dtype=float).reshape(-1, 1)
        P = WeightedPointSet(ids, rng.integers(1, 5, n))
        _assert_same_result(
            charikar_greedy(P, 3, 4, met),
            charikar_greedy_reference(P, 3, 4, met),
        )

    def test_decision_procedure_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 80))
            pts = rng.normal(size=(n, 2))
            D = get_metric(None).pairwise(pts, pts)
            w = rng.integers(1, 9, n)
            k = int(rng.integers(1, 5))
            z = int(rng.integers(0, 6))
            g = float(rng.choice(np.unique(D)[1:])) if n > 1 else 0.5
            c_a, u_a = _greedy_disks(D, w, k, g)
            ok_b, c_b, u_b = greedy_disks_reference(D, w, k, z, g)
            assert _feasible(w, u_a, z) == ok_b and c_a == c_b
            np.testing.assert_array_equal(u_a, u_b)

    def test_geometric_decision_bit_identical(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            P = _random_instance(rng, n_max=90)
            met = get_metric(str(rng.choice(METRICS)))
            k = int(rng.integers(1, 5))
            z = int(rng.integers(0, 6))
            g = float(rng.choice([0.05, 0.5, 2.0]))
            c_a, u_a = _geometric_decision(P, met, k, g)
            ok_b, c_b, u_b = geometric_decision_reference(P, met, k, z, g)
            assert _feasible(P.weights, u_a, z) == ok_b and c_a == c_b
            np.testing.assert_array_equal(u_a, u_b)


class TestFractionalWeightFeasibility:
    """Satellite bugfix: ``int(weights[uncovered].sum()) <= z`` truncated
    fractional weights, so uncovered weight ``z + 0.9`` passed as
    feasible.  The float-safe comparison must reject it."""

    def _fractional_setup(self):
        # one tight cluster at 0 and two far points of weight 0.95 each:
        # any single ball of radius `g` covers the cluster only, leaving
        # uncovered weight 1.9 > z = 1 (but int(1.9) = 1 <= 1).
        pts = np.array([[0.0], [0.01], [100.0], [200.0]])
        w = np.array([1.0, 1.0, 0.95, 0.95])
        return pts, w

    def test_greedy_disks_rejects_truncated_weight(self):
        pts, w = self._fractional_setup()
        D = get_metric(None).pairwise(pts, pts)
        _, uncovered = _greedy_disks(D, w, k=1, guess=0.05)
        assert not _feasible(w, uncovered, 1)
        # the frozen reference documents the historical truncation bug
        ok_old, _, _ = greedy_disks_reference(D, w, k=1, z=1, guess=0.05)
        assert ok_old

    def test_geometric_decision_rejects_truncated_weight(self):
        pts, w = self._fractional_setup()

        class _FloatWeighted:
            """Minimal stand-in: WeightedPointSet enforces integer
            weights, but the decision procedures accept any weights."""

            def __init__(self, points, weights):
                self.points = points
                self.weights = weights

        P = _FloatWeighted(pts, w)
        met = get_metric(None)
        _, uncovered = _geometric_decision(P, met, k=1, guess=0.05)
        assert not _feasible(w, uncovered, 1)
        ok_old, _, _ = geometric_decision_reference(P, met, k=1, z=1, guess=0.05)
        assert ok_old

    def test_fractional_weights_stay_in_float64_gains(self):
        # regression: the float32 gain fast path must not engage for
        # fractional weights (rounding them moved center picks); with the
        # integer-dtype gate the picks match the reference again
        rng = np.random.default_rng(84)
        pts = rng.normal(size=(30, 2))
        D = get_metric(None).pairwise(pts, pts)
        w = rng.random(30) * 0.2 + 0.05
        g = float(np.median(D))
        c_a, u_a = _greedy_disks(D, w, 3, g)
        ok_b, c_b, u_b = greedy_disks_reference(D, w, 3, 1, g)
        assert c_a == c_b
        np.testing.assert_array_equal(u_a, u_b)

    def test_integer_weights_unchanged(self):
        # on integer weights the tolerance comparison equals the old test
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(4, 50))
            pts = rng.normal(size=(n, 2))
            D = get_metric(None).pairwise(pts, pts)
            w = rng.integers(1, 9, n)
            g = float(np.median(D))
            assert (
                _feasible(w, _greedy_disks(D, w, 2, g)[1], 3)
                == greedy_disks_reference(D, w, 2, 3, g)[0]
            )


class TestAbsorbParity:
    @pytest.mark.parametrize("metric", METRICS)
    def test_grid_path_bit_identical(self, metric):
        # n >= 192 and dim <= 4 engages the grid fast path
        rng = np.random.default_rng(21)
        n = 600
        P = WeightedPointSet(rng.random((n, 2)) * 10, rng.integers(1, 5, n))
        met = get_metric(metric)
        for delta in (0.05, 0.4, 2.5):
            c_a, as_a = _greedy_absorb(P, delta, met)
            c_b, as_b = greedy_absorb_reference(P, delta, met)
            np.testing.assert_array_equal(c_a.points, c_b.points)
            np.testing.assert_array_equal(c_a.weights, c_b.weights)
            np.testing.assert_array_equal(as_a, as_b)

    def test_fallback_path_bit_identical(self):
        # high dimension disables the grid; the compressed fallback must
        # still match the reference
        rng = np.random.default_rng(22)
        n = 300
        P = WeightedPointSet(rng.normal(size=(n, 6)), rng.integers(1, 5, n))
        met = get_metric(None)
        for delta in (0.0, 0.8, 3.0):
            c_a, as_a = _greedy_absorb(P, delta, met)
            c_b, as_b = greedy_absorb_reference(P, delta, met)
            np.testing.assert_array_equal(c_a.points, c_b.points)
            np.testing.assert_array_equal(c_a.weights, c_b.weights)
            np.testing.assert_array_equal(as_a, as_b)

    def test_custom_order_bit_identical(self):
        rng = np.random.default_rng(23)
        n = 250
        P = WeightedPointSet(rng.random((n, 2)), rng.integers(1, 4, n))
        met = get_metric(None)
        order = rng.permutation(n)
        c_a, as_a = _greedy_absorb(P, 0.1, met, order)
        c_b, as_b = greedy_absorb_reference(P, 0.1, met, order)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)

    def test_precomputed_metric_named_euclidean_skips_grid(self):
        # regression: the grid gate must be isinstance-based, not
        # name-based — a PrecomputedMetric labeled "euclidean" holds
        # element *ids* as coordinates, which must never be bucketed
        rng = np.random.default_rng(25)
        n = 300  # above the grid threshold
        raw = rng.random((n, 2)) * 4
        D = get_metric(None).pairwise(raw, raw)
        met = PrecomputedMetric(D, name="euclidean", doubling=2)
        ids = np.arange(n, dtype=float).reshape(-1, 1)
        P = WeightedPointSet(ids, rng.integers(1, 4, n))
        c_a, as_a = _greedy_absorb(P, 0.5, met)
        c_b, as_b = greedy_absorb_reference(P, 0.5, met)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)
        # sanity: the absorption did merge across non-adjacent ids
        assert len(c_a) < n

    def test_mbc_construction_end_to_end_parity(self):
        rng = np.random.default_rng(24)
        n = 400
        P = WeightedPointSet(rng.random((n, 2)) * 5, rng.integers(1, 5, n))
        met = get_metric(None)
        mbc = mbc_construction(P, 3, 6, 0.5, met)
        ref_radius = charikar_greedy_reference(P, 3, 6, met).radius
        assert mbc.greedy_radius == ref_radius
        ref_cs, ref_assign = greedy_absorb_reference(
            P, 0.5 * ref_radius / 3.0, met
        )
        np.testing.assert_array_equal(mbc.coreset.points, ref_cs.points)
        np.testing.assert_array_equal(mbc.coreset.weights, ref_cs.weights)
        np.testing.assert_array_equal(mbc.assignment, ref_assign)
