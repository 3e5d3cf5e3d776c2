"""Unit tests for repro.core.points."""

import numpy as np
import pytest

from repro.core import WeightedPointSet


class TestConstruction:
    def test_unit_weights_default(self):
        P = WeightedPointSet(np.zeros((5, 2)))
        assert P.weights.tolist() == [1] * 5

    def test_explicit_weights(self):
        P = WeightedPointSet(np.zeros((3, 2)), [1, 2, 3])
        assert P.total_weight == 6

    def test_1d_input_promoted(self):
        P = WeightedPointSet(np.arange(4, dtype=float))
        assert P.points.shape == (4, 1)

    def test_rejects_3d_points(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 2, 2)))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 1)), [1, 0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 1)), [1, -2])

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((3, 1)), [1, 2])

    @pytest.mark.parametrize("weights", [[1.7, 2.9], [1.0, np.inf]],
                             ids=["fractional", "infinite"])
    def test_rejects_non_integral_float_weights(self, weights):
        # never truncated to [1, 2], never an OverflowError
        with pytest.raises(ValueError, match="finite integers"):
            WeightedPointSet(np.zeros((2, 1)), weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, bad):
        # once accepted, the NaN point made charikar_greedy(P, 2, 0) raise
        # a bare RuntimeError and charikar_greedy(P, 2, 1) call it covered
        pts = np.array([[0, 0], [1, 0], [bad, 0], [5, 5], [6, 5]])
        with pytest.raises(ValueError, match="finite"):
            WeightedPointSet(pts)

    def test_integral_float_weights_coerce(self):
        P = WeightedPointSet(np.zeros((2, 1)), np.array([2.0, 3.0]))
        assert P.weights.dtype == np.int64
        assert P.weights.tolist() == [2, 3]

    def test_arrays_read_only(self):
        P = WeightedPointSet(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            P.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            P.weights[0] = 5

    def test_from_points(self):
        P = WeightedPointSet.from_points([[0, 0], [1, 1]])
        assert len(P) == 2 and P.total_weight == 2

    def test_empty(self):
        P = WeightedPointSet.empty(3)
        assert len(P) == 0 and P.dim == 3 and P.total_weight == 0


class TestOperations:
    def test_subset_by_mask(self):
        P = WeightedPointSet(np.arange(6, dtype=float).reshape(-1, 1), [1, 2, 3, 4, 5, 6])
        Q = P.subset(P.weights > 3)
        assert len(Q) == 3 and Q.total_weight == 15

    def test_subset_by_index(self):
        P = WeightedPointSet(np.arange(6, dtype=float).reshape(-1, 1))
        Q = P.subset([0, 5])
        assert Q.points[:, 0].tolist() == [0.0, 5.0]

    def test_concat_preserves_weight(self):
        A = WeightedPointSet(np.zeros((2, 2)), [1, 2])
        B = WeightedPointSet(np.ones((3, 2)), [3, 4, 5])
        C = WeightedPointSet.concat([A, B])
        assert len(C) == 5 and C.total_weight == A.total_weight + B.total_weight

    def test_concat_skips_empty(self):
        A = WeightedPointSet(np.zeros((2, 2)))
        C = WeightedPointSet.concat([A, WeightedPointSet.empty(2)])
        assert len(C) == 2

    def test_concat_dim_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointSet.concat(
                [WeightedPointSet(np.zeros((1, 2))), WeightedPointSet(np.zeros((1, 3)))]
            )

    def test_concat_all_empty_raises(self):
        with pytest.raises(ValueError):
            WeightedPointSet.concat([WeightedPointSet.empty(2)])

    def test_with_weights(self):
        P = WeightedPointSet(np.zeros((2, 1)))
        Q = P.with_weights([5, 7])
        assert Q.total_weight == 12 and P.total_weight == 2

    def test_merged_sums_coincident(self):
        P = WeightedPointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), [1, 2, 3])
        M = P.merged()
        assert len(M) == 2 and M.total_weight == 6
        w = {tuple(p): int(wt) for p, wt in zip(M.points, M.weights)}
        assert w[(0.0, 0.0)] == 3 and w[(1.0, 0.0)] == 3

    def test_merged_noop_on_distinct(self):
        P = WeightedPointSet(np.arange(4, dtype=float).reshape(-1, 1))
        assert len(P.merged()) == 4

    def test_merged_empty(self):
        P = WeightedPointSet.empty(2)
        assert len(P.merged()) == 0

    def test_total_weight_int(self):
        P = WeightedPointSet(np.zeros((2, 1)), [10**9, 10**9])
        assert P.total_weight == 2 * 10**9


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, rng):
        P = WeightedPointSet(rng.normal(size=(20, 3)),
                             rng.integers(1, 10, size=20))
        path = tmp_path / "coreset.npz"
        P.save(path)
        Q = WeightedPointSet.load(path)
        assert np.array_equal(P.points, Q.points)
        assert np.array_equal(P.weights, Q.weights)

    def test_save_load_empty(self, tmp_path):
        P = WeightedPointSet.empty(2)
        path = tmp_path / "empty.npz"
        P.save(path)
        Q = WeightedPointSet.load(path)
        assert len(Q) == 0 and Q.dim == 2
