"""Tests for the thread-parallel MPC execution mode."""

import numpy as np

from repro.mpc import (
    one_round_coreset,
    partition_adversarial_outliers,
    partition_random,
    two_round_coreset,
)
from repro.workloads import clustered_with_outliers


class TestParallelAlgorithms:
    def test_two_round_parallel_identical(self, rng):
        wl = clustered_with_outliers(400, 3, 12, d=2, rng=rng)
        P = wl.point_set()
        parts = partition_adversarial_outliers(P, wl.outlier_mask, 5, rng)
        seq = two_round_coreset(parts, 3, 12, 0.5, parallel=False)
        par = two_round_coreset(parts, 3, 12, 0.5, parallel=True)
        assert np.array_equal(seq.coreset.points, par.coreset.points)
        assert np.array_equal(seq.coreset.weights, par.coreset.weights)
        assert seq.extras["rhat"] == par.extras["rhat"]
        assert seq.extras["jhats"] == par.extras["jhats"]

    def test_one_round_parallel_identical(self, rng):
        wl = clustered_with_outliers(400, 3, 12, d=2, rng=rng)
        P = wl.point_set()
        parts = partition_random(P, 5, rng)
        seq = one_round_coreset(parts, 3, 12, 0.5, parallel=False)
        par = one_round_coreset(parts, 3, 12, 0.5, parallel=True)
        assert np.array_equal(seq.coreset.points, par.coreset.points)
        assert np.array_equal(seq.coreset.weights, par.coreset.weights)
        assert seq.stats == par.stats
