"""Unit tests for repro.core.coreset (Definition 1 verification)."""

import numpy as np
import pytest

from repro.core import (
    WeightedPointSet,
    charikar_greedy,
    mbc_construction,
    opt_bounds,
    verify_covering_property,
    verify_expansion_property,
    verify_mbc,
    verify_sandwich,
    verify_weight_property,
)


class TestWeightProperty:
    def test_pass(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        assert verify_weight_property(small_set, mbc.coreset).ok

    def test_fail_on_lost_weight(self, small_set):
        bad = small_set.subset(np.arange(len(small_set) - 1))
        assert not verify_weight_property(small_set, bad).ok


class TestOptBounds:
    def test_exact_for_small(self, tiny_set):
        lo, hi = opt_bounds(tiny_set, 2, 1)
        assert lo == hi  # brute force

    def test_certified_interval_large(self, small_set):
        lo, hi = opt_bounds(small_set, 2, 4)
        assert 0 < lo <= hi <= 3 * lo + 1e-9

    def test_interval_contains_brute(self, rng):
        P = WeightedPointSet.from_points(rng.uniform(0, 5, (14, 2)))
        lo, hi = opt_bounds(P, 2, 2, exact_limit=5)  # force greedy interval
        from repro.core import brute_force_opt
        opt = brute_force_opt(P, 2, 2).radius
        assert lo - 1e-9 <= opt <= hi + 1e-9


    def test_ladder_bound_pays_the_tolerance(self, rng):
        # past pairwise_limit the search only promises r <= 3(1+tol) opt
        P = WeightedPointSet.from_points(rng.uniform(0, 50, (2100, 2)))
        res = charikar_greedy(P, 3, 5)
        assert res.path != "pairwise"
        assert opt_bounds(P, 3, 5) == (res.radius / (3 * 1.05), res.radius)

    def test_pairwise_bound_is_a_third(self, small_set):
        res = charikar_greedy(small_set, 2, 4)
        assert res.path == "pairwise"
        assert opt_bounds(small_set, 2, 4) == (res.radius / 3, res.radius)


def _eight_clusters():
    """300 points in 8 Gaussian clusters (k=8, z=20): an exact MILP over
    the pairwise distances puts opt_{8,20} at 3.9783, where the greedy
    radius is 4.7882."""
    rng = np.random.default_rng(0)
    centers = rng.uniform(-20, 20, (8, 2))
    pts = centers[rng.integers(0, 8, 300)] + rng.normal(0, 2.0, (300, 2))
    return WeightedPointSet.from_points(pts)


class TestVerifyMBC:
    def test_coarse_mbc_fails(self):
        # an MBC built at 3x the greedy radius covers within eps * r =
        # 2.39 (worst 2.380), above eps * opt = 1.989: not an MBC.  The
        # covering check against eps * hi let it pass
        P, (k, z, eps) = _eight_clusters(), (8, 20, 0.5)
        r = charikar_greedy(P, k, z).radius
        coarse = mbc_construction(P, k, z, eps, radius=3 * r)
        assert verify_covering_property(P, coarse, eps * r).ok
        chk = verify_mbc(P, coarse, k, z, eps)
        assert not chk.ok
        assert "covering: worst=2.38" in chk.details

    def test_library_mbc_passes(self):
        P, (k, z, eps) = _eight_clusters(), (8, 20, 0.5)
        chk = verify_mbc(P, mbc_construction(P, k, z, eps), k, z, eps)
        assert chk.ok, chk.details


class TestSandwich:
    def test_mbc_passes(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        assert verify_sandwich(small_set, mbc.coreset, 2, 4, 0.5).ok

    def test_garbage_coreset_fails(self, small_set):
        # a single far-away heavy point is not a coreset
        bad = WeightedPointSet(np.array([[1e6, 1e6]]), [small_set.total_weight])
        chk = verify_sandwich(small_set, bad, 2, 4, 0.5)
        assert not chk.ok

    def test_identity_coreset_trivially_passes(self, small_set):
        assert verify_sandwich(small_set, small_set, 2, 4, 0.0).ok


class TestCoveringProperty:
    def test_detects_missing_assignment(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        import dataclasses
        broken = dataclasses.replace(
            mbc, assignment=np.full(len(small_set), -1, dtype=np.int64)
        )
        assert not verify_covering_property(small_set, broken, 1.0).ok

    def test_detects_length_mismatch(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        import dataclasses
        broken = dataclasses.replace(mbc, assignment=mbc.assignment[:-1])
        assert not verify_covering_property(small_set, broken, 1.0).ok

    def test_metric_aware(self):
        P = WeightedPointSet.from_points(np.array([[0.0, 0.0], [3.0, 4.0]]))
        mbc = mbc_construction(P, 1, 0, 1.0)
        # under L_inf the worst distance is smaller than under L2
        chk_l2 = verify_covering_property(P, mbc, 5.0, "l2")
        chk_linf = verify_covering_property(P, mbc, 4.0, "linf")
        assert chk_l2.ok and chk_linf.ok


class TestExpansionProperty:
    def test_mbc_passes_random_balls(self, small_set, rng):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        chk = verify_expansion_property(
            small_set, mbc.coreset, 2, 4, 0.5, rng=rng, trials=30
        )
        assert chk.ok, chk.details

    def test_explicit_ball_sets(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        _, hi = opt_bounds(small_set, 2, 4)
        balls = [(mbc.coreset.points[:2], hi), (mbc.coreset.points[:1], 2 * hi)]
        chk = verify_expansion_property(
            small_set, mbc.coreset, 2, 4, 0.5, ball_sets=balls, opt_value=hi
        )
        assert chk.ok

    def test_rejects_too_many_balls(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        balls = [(mbc.coreset.points[:5], 1.0)]
        with pytest.raises(ValueError):
            verify_expansion_property(
                small_set, mbc.coreset, 2, 4, 0.5, ball_sets=balls, opt_value=1.0
            )

    def test_catches_weight_starved_coreset(self, small_planar):
        """A 'coreset' that silently dropped the outliers fails condition
        (2): balls covering it with budget z leave > z weight uncovered in
        the original."""
        P = small_planar.point_set()
        inliers = P.subset(~small_planar.outlier_mask)
        k, z = 2, 3  # fewer than the 4 planted outliers
        _, hi = opt_bounds(P, k, z)
        # balls covering all inliers with radius ~ cluster scale
        from repro.core import charikar_greedy
        res = charikar_greedy(inliers, k, 0)
        balls = [(inliers.points[res.centers_idx], res.radius)]
        chk = verify_expansion_property(
            P, inliers, k, z, 0.3, ball_sets=balls, opt_value=hi
        )
        assert not chk.ok
