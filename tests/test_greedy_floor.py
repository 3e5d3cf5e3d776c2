"""The certified floor: guesses a radius search settles without deciding.

One farthest-first traversal gives every :func:`charikar_greedy` search
Gonzalez's radius (the ladder's top) and, per outlier budget, a floor
``delta``: no ``k`` balls of radius below ``delta / 2`` leave at most
``z`` uncovered.  A guess whose ``3g`` cutoff is below that is settled
as infeasible with no decision.  These tests decide every settled guess
anyway and check that it does leave more than ``z`` uncovered, that the
results equal the frozen reference and a search with no floor bit for
bit, and that metrics without the triangle-inequality promise skip
nothing.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightedPointSet, charikar_greedy, gonzalez
from repro.core import greedy as greedy_mod
from repro.core.greedy import (
    _below_floor,
    _geometric_decision,
    _uncovered_weight,
    _weight_feasible,
)
from repro.core.metrics import CallableMetric, get_metric
from _greedy_reference import charikar_greedy_reference
from test_greedy_vector import _FractionalPoints, _assert_same

METRICS = ("euclidean", "chebyshev", "manhattan")


@contextmanager
def _recorded_floors():
    """Record each call's ``(budgets, floors)`` and every guess a floor
    settled: ``{"bounds": [...], "skipped": [...]}``."""
    seen = {"bounds": [], "skipped": []}
    real_bounds, real_below = greedy_mod._bounds, greedy_mod._below_floor

    def bounds(walk, k, weights, budgets, max_picks):
        out = real_bounds(walk, k, weights, budgets, max_picks)
        seen["bounds"].append((list(budgets), out[1]))
        return out

    def below(guess, floor):
        hit = real_below(guess, floor)
        if hit:
            seen["skipped"].append(guess)
        return hit

    with mock.patch.multiple(greedy_mod, _bounds=bounds, _below_floor=below):
        yield seen


def _boundary_guess(floor: float) -> "float | None":
    """The largest guess the floor settles (``None`` if not even 0):
    solve ``3g + 1e-9 max(1, g) < floor / 2 (1 - 1e-9)``, then step down
    past any rounding."""
    if not _below_floor(0.0, floor):
        return None
    half = 0.5 * floor * (1.0 - 1e-9)
    g = (half - 1e-9) / 3.0 if half < 3.0 + 1e-9 else half / (3.0 + 1e-9)
    g = max(g, 0.0)
    while not _below_floor(g, floor):
        g = float(np.nextafter(g, 0.0))
    return g


def _instance(seed, n, d, weights):
    rng = np.random.default_rng(seed)
    pts = rng.integers(-8, 8, (n, d)) * 0.5 + rng.normal(0, 0.2, (n, d))
    dup = rng.random(n) < 0.2  # duplicates: zero insertion distances
    pts[dup] = pts[rng.integers(0, n, int(dup.sum()))]
    if weights == "integer":
        return WeightedPointSet(pts, rng.integers(1, 6, n))
    if weights == "zero":
        return _FractionalPoints(pts, rng.integers(0, 4, n))
    return _FractionalPoints(pts, rng.random(n) * 3.0)


class TestSoundness:
    # fractional weights take the dense ladder whatever ``path`` says
    @pytest.mark.parametrize("weights", ["integer", "zero", "fractional"])
    @pytest.mark.parametrize("path", ["pairwise", "grid", "dense"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 260),
           d=st.integers(1, 4), k=st.integers(1, 6),
           metric=st.sampled_from(METRICS),
           budgets=st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_every_settled_guess_leaves_more_than_z(self, weights, path,
                                                    seed, n, d, k, metric,
                                                    budgets):
        P = _instance(seed, n, d, weights)
        met = get_metric(metric)
        budgets = sorted(budgets)
        limit = 2048 if path == "pairwise" else 8
        # the ladder grids integer weights; no grid dimension forces dense
        max_dim = 0 if path == "dense" else greedy_mod._GRID_MAX_DIM
        with mock.patch.object(greedy_mod, "_GRID_MAX_DIM", max_dim):
            with _recorded_floors() as seen:
                got = charikar_greedy(P, k, budgets, met,
                                      pairwise_limit=limit)
            with mock.patch.object(greedy_mod, "_below_floor",
                                   lambda g, floor: False):
                unfloored = charikar_greedy(P, k, budgets, met,
                                            pairwise_limit=limit)
        for a, b in zip(got, unfloored):
            _assert_same(a, b)
        if weights == "integer":
            for z, res in zip(budgets, got):
                _assert_same(res, charikar_greedy_reference(
                    P, k, z, met, pairwise_limit=limit))
        if got[0].stats:
            assert got[0].stats["skipped"] <= len(set(seen["skipped"]))
        for live, floors in seen["bounds"]:
            for z, floor in zip(live, floors):
                guesses = [g for g in set(seen["skipped"])
                           if _below_floor(g, floor)]
                edge = _boundary_guess(floor)
                for g in guesses + ([edge] if edge is not None else []):
                    _, uncovered = _geometric_decision(P, met, k, g)
                    rem = _uncovered_weight(P.weights, uncovered)
                    assert not _weight_feasible(rem, z), (g, floor, z)


class TestTightness:
    @pytest.mark.parametrize("limit", [2048, 2])
    @pytest.mark.parametrize("k,z", [(1, 1), (2, 4), (4, 3)])
    def test_k_plus_z_points_leave_radius_zero(self, rng, limit, k, z):
        # k centres and z outliers cover k + z distinct unit points
        # exactly: k + z picks certify nothing, and radius 0 is feasible
        P = WeightedPointSet(rng.uniform(0, 10, (k + z, 2)))
        res = charikar_greedy(P, k, z, pairwise_limit=limit)
        assert res.radius == 0.0
        _assert_same(res, charikar_greedy_reference(P, k, z,
                                                    pairwise_limit=limit))


class TestWhatIsSkipped:
    def test_workload_shaped_searches_skip_their_low_guesses(self, rng):
        pts = rng.uniform(0, 100, (3000, 2))
        P = WeightedPointSet(pts, rng.integers(1, 3, 3000))
        with _recorded_floors() as seen:
            res = charikar_greedy(P, 8, 40)
        assert res.path == "grid"
        # the radius-0 test and the ladder's lowest rung at least
        assert 0.0 in seen["skipped"]
        assert res.stats["skipped"] >= 2
        with mock.patch.object(greedy_mod, "_below_floor",
                               lambda g, floor: False):
            _assert_same(res, charikar_greedy(P, 8, 40))

    @pytest.mark.parametrize("limit", [2048, 8])
    def test_callable_metric_skips_nothing(self, rng, limit):
        P = WeightedPointSet(rng.uniform(0, 10, (60, 2)),
                             rng.integers(1, 4, 60))
        met = CallableMetric(lambda a, b: float(np.sqrt(((a - b) ** 2).sum())))
        with _recorded_floors() as seen:
            res = charikar_greedy(P, 3, [0, 5], met, pairwise_limit=limit)
        assert res[0].stats["skipped"] == 0 and seen["skipped"] == []
        assert all(f == 0.0 for _, floors in seen["bounds"] for f in floors)
        for z, r in zip([0, 5], res):
            _assert_same(r, charikar_greedy_reference(
                P, 3, z, met, pairwise_limit=limit))

    def test_large_budget_walks_no_further_than_gonzalez(self, rng):
        # unit weights: no k + _FLOOR_PICKS picks outweigh this budget, so
        # the ladder's traversal stops where Gonzalez's does
        P = WeightedPointSet(rng.uniform(0, 100, (3000, 2)))
        z = greedy_mod._FLOOR_PICKS
        rows = []
        real = greedy_mod._metric_rows

        def counting(wps, metric):
            row = real(wps, metric)
            return lambda v: rows.append(v) or row(v)

        with mock.patch.object(greedy_mod, "_metric_rows", counting):
            res = charikar_greedy(P, 8, z)
        assert len(rows) == 8 and res.stats["skipped"] == 0
        assert rows == gonzalez(P, 8).centers_idx.tolist()


class TestPairwiseGuard:
    def test_largest_candidate_is_not_decided_up_front(self, rng):
        P = WeightedPointSet(rng.uniform(0, 10, (200, 2)),
                             rng.integers(1, 4, 200))
        probed = []
        real = greedy_mod._greedy_disks

        def record(D, weights, k, guess, *args, **kwargs):
            probed.append(guess)
            return real(D, weights, k, guess, *args, **kwargs)

        with mock.patch.object(greedy_mod, "_greedy_disks", record):
            res = charikar_greedy(P, 4, 6)
        D = get_metric(None).pairwise(P.points, P.points)
        assert float(D.max()) not in probed
        assert res.stats["decisions"] == len(probed)
        _assert_same(res, charikar_greedy_reference(P, 4, 6))

    def test_failed_decisions_still_raise(self, rng):
        P = WeightedPointSet(rng.uniform(0, 10, (60, 2)))

        def never(D, weights, k, guess, *args, **kwargs):
            return [0], np.ones(len(weights), dtype=bool)

        with mock.patch.object(greedy_mod, "_greedy_disks", never):
            with pytest.raises(RuntimeError, match="maximum candidate"):
                charikar_greedy(P, 4, 2)


class TestGonzalezFirst:
    def test_invalid_first_rejected(self):
        P = WeightedPointSet(np.arange(10.0).reshape(-1, 1))
        # first = -1 used to index from the end and return [-1, 2, 6]
        for bad in (-1, 10, 1.5, 2.0, np.float64(2.0), "0", None, True):
            with pytest.raises(ValueError, match="first must be"):
                gonzalez(P, 3, first=bad)

    def test_numpy_integer_first_accepted(self):
        P = WeightedPointSet(np.arange(10.0).reshape(-1, 1))
        a = gonzalez(P, 3, first=np.int64(4))
        assert a.centers_idx.tolist() == gonzalez(P, 3, first=4) \
            .centers_idx.tolist()
        assert a.centers_idx[0] == 4
