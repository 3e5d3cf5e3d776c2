"""Unit tests for repro.core.greedy (Gonzalez + Charikar Greedy)."""

import numpy as np
import pytest

from repro.core import (
    WeightedPointSet,
    brute_force_opt,
    charikar_greedy,
    coverage_radius,
    gonzalez,
)


class TestGonzalez:
    def test_covers_everything(self, small_set):
        res = gonzalez(small_set, 3)
        r = coverage_radius(small_set, small_set.points[res.centers_idx], 0)
        assert r <= res.radius + 1e-9

    def test_two_approx(self, tiny_set):
        res = gonzalez(tiny_set, 2)
        opt = brute_force_opt(tiny_set, 2, 0).radius
        # Gonzalez is 2-approx vs continuous opt; vs discrete opt still <= 2x
        assert res.radius <= 2.0 * opt + 1e-9

    def test_k_geq_n_zero_radius(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [5.0]]))
        assert gonzalez(P, 5).radius == 0.0

    def test_empty(self):
        res = gonzalez(WeightedPointSet.empty(2), 3)
        assert res.radius == 0.0 and len(res.centers_idx) == 0

    def test_nonpositive_k_rejected(self):
        # a non-empty input has no k <= 0 answer: raise, as
        # charikar_greedy does, instead of returning one center
        P = WeightedPointSet.from_points(np.arange(10.0).reshape(-1, 1))
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be positive"):
                gonzalez(P, k)

    def test_deterministic_given_first(self, small_set):
        a = gonzalez(small_set, 3, first=0)
        b = gonzalez(small_set, 3, first=0)
        assert a.centers_idx.tolist() == b.centers_idx.tolist()


class TestCharikarCertificate:
    """radius in [opt_discrete/?, 3*opt]: check both sides vs brute force."""

    @pytest.mark.parametrize("k,z", [(1, 0), (1, 2), (2, 0), (2, 2), (3, 1)])
    def test_three_approx_vs_brute(self, rng, k, z):
        P = WeightedPointSet.from_points(rng.uniform(0, 10, size=(11, 2)))
        opt = brute_force_opt(P, k, z).radius
        res = charikar_greedy(P, k, z)
        assert res.radius <= 3.0 * opt + 1e-9
        # feasibility: radius achieved by k balls leaving <= z weight
        assert opt <= res.radius + 1e-9

    def test_uncovered_weight_bounded(self, small_set):
        res = charikar_greedy(small_set, 2, 4)
        assert int(small_set.weights[res.uncovered].sum()) <= 4

    def test_weighted_instance(self):
        # heavy point cannot be outliered with z=1
        P = WeightedPointSet(np.array([[0.0], [1.0], [100.0]]), [1, 1, 2])
        res = charikar_greedy(P, 1, 1)
        assert res.radius >= 99.0  # must cover the heavy far point

    def test_weighted_outlier_allowed(self):
        P = WeightedPointSet(np.array([[0.0], [1.0], [100.0]]), [1, 1, 2])
        # z=2 allows BOTH unit points as outliers: center on the heavy
        # point, radius 0 (the true optimum)
        res = charikar_greedy(P, 1, 2)
        assert res.radius == pytest.approx(0.0)
        # z=1 keeps one unit point: radius 1 covering {0,1} is optimal...
        # but the heavy point must be covered too, so radius >= 99
        res1 = charikar_greedy(P, 1, 1)
        assert res1.radius >= 99.0

    def test_outliers_ignored_when_z_large(self, small_planar):
        P = small_planar.point_set()
        res = charikar_greedy(P, 2, 4)
        # with the planted z respected, radius is at cluster scale
        inl = P.subset(~small_planar.outlier_mask)
        spread = np.linalg.norm(inl.points.std(axis=0))
        assert res.radius < 20 * spread

    def test_zero_k_raises(self, tiny_set):
        with pytest.raises(ValueError):
            charikar_greedy(tiny_set, 0, 0)

    def test_total_weight_below_z(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [9.0]]))
        res = charikar_greedy(P, 1, 5)
        assert res.radius == 0.0

    def test_k_geq_n(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [9.0]]))
        assert charikar_greedy(P, 2, 0).radius == 0.0

    def test_coincident_points(self):
        P = WeightedPointSet.from_points(np.zeros((5, 2)))
        assert charikar_greedy(P, 1, 0).radius == 0.0

    def test_empty(self):
        assert charikar_greedy(WeightedPointSet.empty(2), 2, 1).radius == 0.0


class TestCharikarGeometricMode:
    def test_large_input_uses_geometric(self, rng):
        pts = np.concatenate([
            rng.normal(0, 0.5, (40, 2)), rng.normal(20, 0.5, (40, 2)),
            rng.uniform(100, 200, (4, 2)),
        ])
        P = WeightedPointSet.from_points(pts)
        exact = charikar_greedy(P, 2, 4)
        geo = charikar_greedy(P, 2, 4, pairwise_limit=10, tol=0.05)
        # geometric mode within (1+tol) of exact-candidate mode and feasible
        assert geo.radius <= 3.05 * exact.radius + 1e-9
        assert coverage_radius(P, P.points[geo.centers_idx], 4) <= geo.radius + 1e-9

    def test_geometric_certificate_vs_brute(self, rng):
        P = WeightedPointSet.from_points(rng.uniform(0, 10, size=(12, 2)))
        opt = brute_force_opt(P, 2, 1).radius
        res = charikar_greedy(P, 2, 1, pairwise_limit=4)
        assert opt <= res.radius + 1e-9 <= 3.0 * 1.05 * opt + 1e-6

    def test_geometric_coincident(self):
        P = WeightedPointSet.from_points(np.zeros((30, 2)))
        res = charikar_greedy(P, 1, 0, pairwise_limit=5)
        assert res.radius == 0.0

    @pytest.mark.parametrize("tol", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tiny_set, tol):
        # tol <= 0 never climbs the guess ladder (0 divides by log 1),
        # NaN has no ladder length and inf skips to the Gonzalez radius
        with pytest.raises(ValueError, match="tol"):
            charikar_greedy(tiny_set, 2, 1, pairwise_limit=4, tol=tol)


class TestMetricSupport:
    @pytest.mark.parametrize("metric", ["euclidean", "linf", "l1"])
    def test_all_metrics(self, rng, metric):
        P = WeightedPointSet.from_points(rng.uniform(0, 10, size=(12, 2)))
        opt = brute_force_opt(P, 2, 1, metric).radius
        res = charikar_greedy(P, 2, 1, metric)
        assert opt <= res.radius + 1e-9 <= 3 * opt + 1e-6
