"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from _sparse_recovery_reference import OneSparseCell
from hypothesis import given, settings, strategies as st

from repro.core import (
    WeightedPointSet,
    brute_force_opt,
    charikar_greedy,
    continuous_opt_1d,
    coverage_radius,
    mbc_construction,
    update_coreset,
)
from repro.geometry import separated_subset
from repro.sketches import SSparseRecovery

# bounded, finite coordinate strategy
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32)


def _points_1d(min_size=2, max_size=12):
    return st.lists(coords, min_size=min_size, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=float).reshape(-1, 1)
    )


def _points_2d(min_size=2, max_size=10):
    return st.lists(
        st.tuples(coords, coords), min_size=min_size, max_size=max_size
    ).map(lambda xs: np.asarray(xs, dtype=float))


class TestGreedyCertificateProperty:
    @given(pts=_points_2d(min_size=3, max_size=10),
           k=st.integers(1, 3), z=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_radius_between_opt_and_3opt(self, pts, k, z):
        P = WeightedPointSet.from_points(pts)
        opt = brute_force_opt(P, k, z).radius
        res = charikar_greedy(P, k, z)
        assert opt <= res.radius + 1e-6
        assert res.radius <= 3 * opt + 1e-6

    @given(pts=_points_2d(min_size=3, max_size=10), k=st.integers(1, 3),
           z=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_uncovered_weight_at_most_z(self, pts, k, z):
        P = WeightedPointSet.from_points(pts)
        res = charikar_greedy(P, k, z)
        assert int(P.weights[res.uncovered].sum()) <= z


class TestMBCProperties:
    @given(pts=_points_2d(min_size=2, max_size=12),
           eps=st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_weight_preservation(self, pts, eps):
        P = WeightedPointSet.from_points(pts)
        mbc = mbc_construction(P, 2, 1, eps)
        assert mbc.coreset.total_weight == P.total_weight

    @given(pts=_points_2d(min_size=2, max_size=12),
           eps=st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_assignment_within_mini_ball(self, pts, eps):
        P = WeightedPointSet.from_points(pts)
        mbc = mbc_construction(P, 2, 1, eps)
        reps = mbc.coreset.points[mbc.assignment]
        d = np.linalg.norm(P.points - reps, axis=1)
        assert d.max() <= mbc.mini_ball_radius + 1e-9

    @given(pts=_points_2d(min_size=2, max_size=12), delta=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_update_coreset_separation(self, pts, delta):
        P = WeightedPointSet.from_points(pts)
        mbc = update_coreset(P, delta)
        if mbc.size > 1:
            from scipy.spatial.distance import pdist
            assert pdist(mbc.coreset.points).min() > delta - 1e-9


class TestCoverageRadiusProperties:
    @given(pts=_points_1d(min_size=2, max_size=12), z=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_z(self, pts, z):
        P = WeightedPointSet.from_points(pts)
        c = pts[:1]
        assert coverage_radius(P, c, z + 1) <= coverage_radius(P, c, z) + 1e-12

    @given(pts=_points_1d(min_size=2, max_size=10),
           k=st.integers(1, 3), z=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_continuous_at_most_discrete(self, pts, k, z):
        P = WeightedPointSet.from_points(pts)
        cont = continuous_opt_1d(P, k, z)
        disc = brute_force_opt(P, k, z).radius
        assert cont <= disc + 1e-9


class TestSeparatedSubsetProperties:
    @given(pts=_points_2d(min_size=1, max_size=30), delta=st.floats(0.1, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_net_properties(self, pts, delta):
        idx = separated_subset(pts, delta)
        sel = pts[idx]
        from scipy.spatial.distance import cdist
        D = cdist(pts, sel)
        # covering
        assert D.min(axis=1).max() <= delta + 1e-6
        # separation
        if len(sel) > 1:
            DD = cdist(sel, sel)
            np.fill_diagonal(DD, np.inf)
            assert DD.min() > delta - 1e-6


class TestSketchProperties:
    @given(updates=st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 3)), min_size=0, max_size=30,
    ))
    @settings(max_examples=30, deadline=None)
    def test_sparse_recovery_exact(self, updates):
        """Insert-then-delete-some always decodes exactly when the live
        support is within capacity."""
        rng = np.random.default_rng(0)
        sk = SSparseRecovery(16, 64, rng=rng)
        truth: dict[int, int] = {}
        for key, w in updates:
            sk.update(key, w)
            truth[key] = truth.get(key, 0) + w
        # delete down to at most 10 keys
        keys = sorted(truth)
        for k in keys[10:]:
            sk.update(k, -truth[k])
            del truth[k]
        res = sk.decode()
        assert res.success
        assert res.items == {k: v for k, v in truth.items() if v != 0}

    @given(key=st.integers(0, 10**12), w=st.integers(1, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_one_sparse_roundtrip(self, key, w):
        c = OneSparseCell(zeta=1234577)
        c.update(key, w)
        assert c.decode() == (key, w)
        c.update(key, -w)
        assert c.is_zero
