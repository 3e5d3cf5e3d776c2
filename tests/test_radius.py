"""Unit tests for repro.core.radius."""

import numpy as np
import pytest

from repro.core import (
    CallableMetric,
    WeightedPointSet,
    coverage_radius,
    min_pairwise_distance,
    nearest_center_distances,
    uncovered_weight,
)


class TestNearestCenterDistances:
    def test_basic(self, line_set):
        d = nearest_center_distances(line_set, np.array([[0.0], [9.0]]))
        assert d[0] == 0.0 and d[4] == 4.0 and d[9] == 0.0

    def test_no_centers_gives_inf(self, line_set):
        d = nearest_center_distances(line_set, np.zeros((0, 1)))
        assert np.isinf(d).all()

    def test_empty_points(self):
        P = WeightedPointSet.empty(2)
        assert nearest_center_distances(P, np.zeros((1, 2))).shape == (0,)


class TestCoverageRadius:
    def test_no_outliers(self, line_set):
        r = coverage_radius(line_set, np.array([[4.5]]), 0)
        assert r == pytest.approx(4.5)

    def test_outliers_drop_farthest(self, line_set):
        # dropping the two extreme points shrinks the radius
        r = coverage_radius(line_set, np.array([[4.5]]), 2)
        assert r == pytest.approx(3.5)

    def test_weighted_outlier_budget(self):
        # far point has weight 3 > z=2, cannot be dropped
        P = WeightedPointSet(np.array([[0.0], [10.0]]), [1, 3])
        r = coverage_radius(P, np.array([[0.0]]), 2)
        assert r == pytest.approx(10.0)

    def test_total_weight_below_z(self):
        P = WeightedPointSet(np.array([[0.0], [10.0]]))
        assert coverage_radius(P, np.zeros((0, 1)), 5) == 0.0

    def test_total_weight_below_z_measures_no_distance(self):
        def never(p, q):
            raise AssertionError("no distance is needed when all may drop")

        P = WeightedPointSet(np.array([[0.0], [10.0]]), [2, 3])
        assert coverage_radius(P, np.array([[0.0]]), 5, CallableMetric(never)) == 0.0

    def test_no_centers_infeasible(self, line_set):
        assert coverage_radius(line_set, np.zeros((0, 1)), 2) == float("inf")

    def test_exact_budget_boundary(self):
        P = WeightedPointSet(np.array([[0.0], [1.0], [2.0]]), [1, 1, 2])
        # z=2 drops exactly the weight-2 point at 2
        assert coverage_radius(P, np.array([[0.0]]), 2) == pytest.approx(1.0)

    def test_multiple_centers(self, line_set):
        r = coverage_radius(line_set, np.array([[2.0], [7.0]]), 0)
        assert r == pytest.approx(2.0)

    def test_weighted_tie_cum_equals_z_exactly(self):
        # center at 0: distances 0,1,5,9 -> farthest-first weights 3,2,1,1
        P = WeightedPointSet(np.array([[0.0], [1.0], [5.0], [9.0]]),
                             [1, 1, 2, 3])
        # cum after the farthest point is exactly z=3: drop it, and only it
        assert coverage_radius(P, np.array([[0.0]]), 3) == pytest.approx(5.0)
        # cum hits z=5 exactly after two points: both dropped
        assert coverage_radius(P, np.array([[0.0]]), 5) == pytest.approx(1.0)
        # z=4 sits strictly between cums 3 and 5: the weight-2 point is
        # indivisible, so it cannot be dropped
        assert coverage_radius(P, np.array([[0.0]]), 4) == pytest.approx(5.0)
        # z = total weight - 1: everything but the nearest point dropped
        assert coverage_radius(P, np.array([[0.0]]), 6) == pytest.approx(0.0)


class TestUncoveredWeight:
    def test_counts_strictly_outside(self, line_set):
        w = uncovered_weight(line_set, np.array([[0.0]]), 4.0)
        assert w == 5  # points 5..9

    def test_boundary_counts_as_covered(self, line_set):
        w = uncovered_weight(line_set, np.array([[0.0]]), 9.0)
        assert w == 0

    def test_empty(self):
        assert uncovered_weight(WeightedPointSet.empty(1), np.zeros((1, 1)), 1.0) == 0

    def test_fractional_weights_are_exact_not_truncated(self):
        # WeightedPointSet pins integer weights, but the function is also
        # used on duck-typed fractional coresets (merged/relaxed weights);
        # the pre-1.5 int(...) truncated 2.9 -> 2, hiding a z=2 violation
        class FracSet:
            def __init__(self, points, weights):
                self.points = np.asarray(points, dtype=float)
                self.weights = np.asarray(weights, dtype=float)

            def __len__(self):
                return len(self.points)

        P = FracSet([[0.0], [10.0], [11.0]], [1.0, 2.4, 0.5])
        w = uncovered_weight(P, np.array([[0.0]]), 1.0)
        assert isinstance(w, float)
        assert w == pytest.approx(2.9)
        # the tolerance compare against budget z=2 must flag the violation
        z = 2
        assert not w <= z + 1e-9 * max(1.0, z)

    def test_integer_weights_unchanged(self, line_set):
        w = uncovered_weight(line_set, np.array([[0.0]]), 4.0)
        assert w == 5.0 and float(w).is_integer()


class TestMinPairwiseDistance:
    def test_line(self, line_set):
        assert min_pairwise_distance(line_set.points) == pytest.approx(1.0)

    def test_coincident_gives_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        assert min_pairwise_distance(pts) == 0.0

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            min_pairwise_distance(np.zeros((1, 2)))

    def test_chunked_matches_direct(self, rng):
        pts = rng.normal(size=(1500, 2))
        from scipy.spatial.distance import pdist
        assert min_pairwise_distance(pts) == pytest.approx(pdist(pts).min())

    def test_respects_metric(self):
        pts = np.array([[0.0, 0.0], [1.0, 3.0]])
        assert min_pairwise_distance(pts, "linf") == pytest.approx(3.0)
        assert min_pairwise_distance(pts, "l1") == pytest.approx(4.0)
