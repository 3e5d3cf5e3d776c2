"""Row gathers and candidate radii of the pairwise radius search.

On the exact-candidate path (``n <= PAIRWISE_LIMIT``) a pick takes its
newly covered points' weight out of the gains.  For the built-in norms,
whose distance matrices are bit-symmetric, :class:`_BallMatrix` reads
those entries as contiguous rows of the ball matrix rather than strided
columns, and the candidate radii come from the strict upper triangle.
Integer weights make every gain an exact integer sum, so the rows must
give the same picks as the columns and as the frozen reference, tie
breaks included.  Fractional weights, :class:`CallableMetric` and
asymmetric :class:`PrecomputedMetric` searches keep the column gather,
and the latter two take their candidate radii from the whole of ``D``.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightedPointSet, charikar_greedy
from repro.core import greedy as greedy_mod
from repro.core.greedy import (
    PAIRWISE_LIMIT,
    _BallMatrix,
    _candidate_radii,
    _cutoffs,
    _greedy_disks,
    _grid_for_guess,
)
from repro.core.metrics import CallableMetric, PrecomputedMetric, get_metric
from _greedy_reference import charikar_greedy_reference, greedy_disks_reference

METRICS = ("euclidean", "chebyshev", "manhattan")


def _old_candidates(D: np.ndarray, symmetric: bool) -> np.ndarray:
    """The candidate extraction the triangle mask replaced."""
    if symmetric:
        cand = np.unique(D[np.triu_indices(len(D), 1)])
    else:
        cand = np.unique(D)
    return cand[cand > 0]


def _instance(seed: int, n: int, d: int, layout: str, heavy: bool):
    rng = np.random.default_rng(seed)
    if layout == "grid":  # integer grid: many tied distances
        pts = rng.integers(-4, 5, (n, d)).astype(float)
    else:
        pts = rng.normal(size=(n, d)) * float(rng.choice([0.01, 1.0, 30.0]))
        dup = rng.random(n) < 0.2
        pts[dup] = pts[rng.integers(0, n, int(dup.sum()))]
    w = rng.integers(1, 6, n)
    if heavy:  # totals >= 2^24: float64 gains
        w = w + (1 << 24)
    return WeightedPointSet(pts, w)


def _assert_same(a, b):
    assert a.radius == b.radius
    assert a.guess == b.guess
    np.testing.assert_array_equal(a.centers_idx, b.centers_idx)
    np.testing.assert_array_equal(a.uncovered, b.uncovered)


@contextmanager
def _recorded_pairwise():
    """Record every :class:`_BallMatrix` a search builds and the
    ``symmetric`` flag of each :func:`_pairwise_search`."""
    seen = {"balls": [], "symmetric": []}
    real_balls, real_search = greedy_mod._BallMatrix, greedy_mod._pairwise_search

    def balls(*args, **kwargs):
        out = real_balls(*args, **kwargs)
        seen["balls"].append(out)
        return out

    def search(D, symmetric):
        seen["symmetric"].append(symmetric)
        return real_search(D, symmetric)

    with mock.patch.multiple(greedy_mod, _BallMatrix=balls,
                             _pairwise_search=search):
        yield seen


class TestRowGathers:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           d=st.integers(1, 4), k=st.integers(1, 8),
           metric=st.sampled_from(METRICS),
           layout=st.sampled_from(["grid", "normal"]),
           heavy=st.booleans())
    def test_rows_equal_columns_and_reference(self, seed, n, d, k, metric,
                                              layout, heavy):
        P = _instance(seed, n, d, layout, heavy)
        D = get_metric(metric).pairwise(P.points, P.points)
        rows = _BallMatrix(D, P.weights, symmetric=True)
        cols = _BallMatrix(D, P.weights)
        assert rows.rows and not cols.rows
        assert rows.Wg.dtype == (np.float64 if heavy else np.float32)
        cand = _candidate_radii(D, True)
        np.testing.assert_array_equal(cand, _old_candidates(D, True))
        rng = np.random.default_rng(seed)
        guesses = [0.0]
        if len(cand):
            guesses += [float(g) for g in rng.choice(cand, min(4, len(cand)))]
        for g in guesses:
            c_r, u_r = _greedy_disks(D, P.weights, k, g, rows)
            c_c, u_c = _greedy_disks(D, P.weights, k, g, cols)
            _, c_ref, u_ref = greedy_disks_reference(D, P.weights, k, 0, g)
            assert c_r == c_c == c_ref
            np.testing.assert_array_equal(u_r, u_c)
            np.testing.assert_array_equal(u_r, u_ref)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           d=st.integers(1, 4), k=st.integers(1, 8),
           z=st.integers(0, 40), metric=st.sampled_from(METRICS),
           layout=st.sampled_from(["grid", "normal"]),
           heavy=st.booleans())
    def test_search_equals_reference(self, seed, n, d, k, z, metric,
                                     layout, heavy):
        P = _instance(seed, n, d, layout, heavy)
        if heavy:  # a budget that can drop some of the heavy points
            z = z * (1 << 24)
        with _recorded_pairwise() as seen:
            res = charikar_greedy(P, k, z, metric)
        _assert_same(res, charikar_greedy_reference(P, k, z, metric))
        assert all(b.rows for b in seen["balls"])
        assert all(seen["symmetric"])

    def test_search_near_pairwise_limit(self):
        rng = np.random.default_rng(3)
        n = PAIRWISE_LIMIT - 5
        P = WeightedPointSet(rng.random((n, 2)) * 10.0, rng.integers(1, 5, n))
        with _recorded_pairwise() as seen:
            res = charikar_greedy(P, 16, 64)
        assert res.path == "pairwise" and seen["balls"][0].rows
        _assert_same(res, charikar_greedy_reference(P, 16, 64))


class TestColumnPathKept:
    def test_float_weights_keep_columns(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 2))
        D = get_metric(None).pairwise(pts, pts)
        w = rng.random(60) * 0.2 + 0.05
        balls = _BallMatrix(D, w, symmetric=True)
        assert not balls.rows
        for g in (0.0, float(np.median(D)), float(np.quantile(D, 0.1))):
            c, u = _greedy_disks(D, w, 3, g, balls)
            _, c_ref, u_ref = greedy_disks_reference(D, w, 3, 1, g)
            assert c == c_ref
            np.testing.assert_array_equal(u, u_ref)

    def test_integer_weights_past_2_53_keep_columns(self):
        D = get_metric(None).pairwise(np.arange(4.0)[:, None],
                                      np.arange(4.0)[:, None])
        w = np.full(4, 1 << 52, dtype=np.int64)
        assert not _BallMatrix(D, w, symmetric=True).rows

    def test_callable_metric_keeps_columns_and_whole_matrix(self):
        rng = np.random.default_rng(6)
        P = WeightedPointSet(rng.normal(size=(40, 2)), rng.integers(1, 4, 40))
        met = CallableMetric(lambda p, q: float(np.abs(p - q).sum()))
        with _recorded_pairwise() as seen:
            res = charikar_greedy(P, 3, 4, met)
        assert seen["symmetric"] == [False]
        assert not any(b.rows for b in seen["balls"])
        _assert_same(res, charikar_greedy_reference(P, 3, 4, met))

    def test_asymmetric_precomputed_keeps_columns_and_whole_matrix(self):
        rng = np.random.default_rng(7)
        n = 30
        D = rng.integers(1, 20, (n, n)).astype(float)
        np.fill_diagonal(D, 0.0)
        assert not np.array_equal(D, D.T)
        met = PrecomputedMetric(D, validate=False)
        P = WeightedPointSet(np.arange(n, dtype=float)[:, None],
                             rng.integers(1, 4, n))
        with _recorded_pairwise() as seen:
            res = charikar_greedy(P, 3, 4, met)
        assert seen["symmetric"] == [False]
        assert not any(b.rows for b in seen["balls"])
        # the upper triangle alone would miss values only below it
        Dm = met.pairwise(P.points, P.points)
        np.testing.assert_array_equal(_candidate_radii(Dm, False),
                                      _old_candidates(Dm, False))
        _assert_same(res, charikar_greedy_reference(P, 3, 4, met))


class TestCandidateRadii:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("metric", METRICS)
    def test_tiny(self, n, metric):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])[:n]
        D = get_metric(metric).pairwise(pts, pts)
        for symmetric in (True, False):
            got = _candidate_radii(D, symmetric)
            np.testing.assert_array_equal(got, _old_candidates(D, symmetric))
            assert got.dtype == D.dtype

    def test_all_coincident(self):
        pts = np.ones((7, 3))
        D = get_metric(None).pairwise(pts, pts)
        for symmetric in (True, False):
            assert _candidate_radii(D, symmetric).size == 0

    def test_nan_and_non_positive_dropped(self):
        # a callable metric that yields NaN, negative and signed-zero
        # distances on some pairs
        def fn(p, q):
            s = float(p[0] + q[0])
            if s % 3 == 0:
                return float("nan")
            if s % 5 == 0:
                return -1.0
            if s % 7 == 0:
                return -0.0
            return float(abs(p[0] - q[0])) + 0.5 * (s % 2)

        met = CallableMetric(fn)
        pts = np.arange(12, dtype=float)[:, None]
        D = met.pairwise(pts, pts)
        assert np.isnan(D).any() and (D < 0).any()
        for symmetric in (True, False):
            got = _candidate_radii(D, symmetric)
            np.testing.assert_array_equal(got, _old_candidates(D, symmetric))
            assert (got > 0).all()

    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(9)
        for n in (3, 17, 64):
            A = rng.integers(0, 6, (n, n)).astype(float)
            D = np.minimum(A, A.T)
            np.fill_diagonal(D, 0.0)
            np.testing.assert_array_equal(_candidate_radii(D, True),
                                          _old_candidates(D, True))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_query_returns_distinct_points(d):
    """The pick loop counts uncovered points by the size of each cover,
    so a grid decision's cover query must never list a point twice."""
    rng = np.random.default_rng(d)
    pts = rng.integers(0, 6, (300, d)) + rng.random((300, d)) * 0.1
    for guess in (0.3, 1.0, 2.5):
        cutoff, limit3 = _cutoffs(guess)
        grid = _grid_for_guess(pts, cutoff)
        for i in range(0, 300, 37):
            got = grid.query_point(i, limit3)
            assert np.unique(got).size == got.size
