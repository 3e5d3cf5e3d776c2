"""The first-fit primitive behind Algorithm 3's ingest and Algorithm 4.

``first_fit(n, later, earlier)`` picks vertex ``v`` iff none of its
earlier neighbours was picked.  It runs vectorized rounds and walks the
rest in order once a round settles too few vertices; both halves must
give the set a plain sequential loop gives, on any graph and any edge
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mbc as mbc
from _greedy_reference import greedy_absorb_reference
from repro.core import WeightedPointSet
from repro.core.mbc import _greedy_absorb, first_fit
from repro.core.metrics import get_metric
from repro.streaming import InsertionOnlyCoreset


def sequential_first_fit(n, later, earlier) -> np.ndarray:
    """The definition, one vertex at a time."""
    before = [[] for _ in range(n)]
    for v, u in zip(later.tolist(), earlier.tolist()):
        before[v].append(u)
    picked = np.zeros(n, dtype=bool)
    for v in range(n):
        picked[v] = not any(picked[u] for u in before[v])
    return picked


def _edges(pairs: np.ndarray, rank: np.ndarray, rng) -> tuple:
    """Undirected ``pairs`` of vertex ids as (later, earlier) ranks, in a
    random edge order, each edge possibly repeated."""
    a, b = rank[pairs[:, 0]], rank[pairs[:, 1]]
    keep = a != b
    later, earlier = np.maximum(a, b)[keep], np.minimum(a, b)[keep]
    o = np.concatenate([rng.permutation(len(later)),
                        rng.integers(0, max(len(later), 1), 3)])
    o = o[o < len(later)]
    return later[o], earlier[o]


#: the share below which a round hands over to the walk: never, the
#: default, and after the first round whatever it settles
SHARES = (0.0, mbc._WALK_BELOW_SHARE, 2.0)


class TestFirstFit:
    @pytest.mark.parametrize("share", SHARES)
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 90), density=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**16))
    def test_matches_sequential(self, share, n, density, seed):
        rng = np.random.default_rng(seed)
        m = int(density * n * n / 2)
        pairs = rng.integers(0, max(n, 1), (m, 2))
        rank = rng.permutation(n)  # the vertex order
        later, earlier = _edges(pairs, rank, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mbc, "_WALK_BELOW_SHARE", share)
            got = first_fit(n, later, earlier)
        np.testing.assert_array_equal(
            got, sequential_first_fit(n, later, earlier))

    @pytest.mark.parametrize("share", SHARES)
    def test_chains_walk_in_order(self, share, monkeypatch):
        # four paths of 150 vertices and one of 600, each in order: a
        # round settles two vertices per path
        monkeypatch.setattr(mbc, "_WALK_BELOW_SHARE", share)
        rng = np.random.default_rng(1)
        n = 600
        nxt = np.arange(1, n)
        forward = np.stack([nxt, nxt - 1], axis=1)[nxt % 150 != 0]
        backward = np.stack([n + nxt, n + nxt - 1], axis=1)
        later, earlier = _edges(np.concatenate([forward, backward]),
                                np.arange(2 * n), rng)
        stats = {}
        got = first_fit(2 * n, later, earlier, stats)
        np.testing.assert_array_equal(
            got, sequential_first_fit(2 * n, later, earlier))
        assert (stats["walked"] > 0) == (share > 0)

    def test_line_finish_closes_the_last_rounds_neighbours(self):
        # the first round on a path picks vertex 0 only, which hands over
        # to the walk; vertex 1 was closed in that very round and must not
        # be picked by the walk (the path's first-fit set is every other
        # vertex)
        n = 40
        stats = {}
        got = first_fit(n, np.arange(1, n), np.arange(n - 1), stats)
        assert stats == {"rounds": 1, "walked": n - 2}
        np.testing.assert_array_equal(np.flatnonzero(got),
                                      np.arange(0, n, 2))

    @pytest.mark.parametrize("share", SHARES)
    def test_ordered_line_absorb(self, share, monkeypatch):
        # 8,000 points on a line at spacing 0.6 delta, absorbed in order:
        # each point picks its right neighbour's neighbour, 4,000 picks
        monkeypatch.setattr(mbc, "_WALK_BELOW_SHARE", share)
        delta = 1.0
        pts = (0.6 * delta * np.arange(8000.0))[:, None]
        P = WeightedPointSet(pts, np.ones(8000, dtype=np.int64))
        met = get_metric(None)
        c_a, as_a = _greedy_absorb(P, delta, met)
        c_b, as_b = greedy_absorb_reference(P, delta, met)
        assert len(c_a) == 4000
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)


def _first_stream_chunk() -> np.ndarray:
    """The first 65,536 rows of perfbench's stream-ingest store: 8
    clusters on a ring of radius 30 (sd 0.8), with far-shell outliers."""
    n, k, z, rows = 1 << 17, 8, 64, 1 << 16
    angles = 2 * np.pi * np.arange(k) / k
    centers = 30.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    out_at = np.linspace(0, n - 1, num=z, dtype=np.int64)
    r = np.random.default_rng([0, 0])
    pts = centers[r.integers(0, k, size=rows)] + r.normal(0, 0.8, (rows, 2))
    local = out_at[out_at < rows]
    dirs = r.normal(size=(len(local), 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts[local] = dirs * r.uniform(400.0, 800.0, size=(len(local), 1))
    return pts


def test_stream_ingest_recompression_settles_in_few_rounds(monkeypatch):
    # the rounds alone (no in-order finish) settle stream-ingest's first
    # recompression in at most 10 rounds, and agree with the reference
    monkeypatch.setattr(mbc, "_WALK_BELOW_SHARE", 0.0)
    calls = []

    def recording(n, later, earlier, stats=None):
        stats = {}
        picked = first_fit(n, later, earlier, stats)
        calls.append((n, stats))
        return picked

    recompressions = []
    update = mbc.update_coreset

    def capture(wps, delta, metric=None, order=None):
        recompressions.append((wps, delta))
        return update(wps, delta, metric, order)

    monkeypatch.setattr(mbc, "first_fit", recording)
    monkeypatch.setattr("repro.streaming.insertion_only.update_coreset",
                        capture)
    s = InsertionOnlyCoreset(8, 64, 0.5, 2)
    s.extend(_first_stream_chunk())
    assert s.doublings >= 1
    wps, delta = recompressions[0]
    assert calls[0][0] == len(wps) == s.threshold == 8256
    assert calls[0][1]["walked"] == 0
    assert calls[0][1]["rounds"] <= 10
    c_a, as_a = _greedy_absorb(wps, delta, get_metric(None))
    c_b, as_b = greedy_absorb_reference(wps, delta, get_metric(None))
    np.testing.assert_array_equal(c_a.points, c_b.points)
    np.testing.assert_array_equal(c_a.weights, c_b.weights)
    np.testing.assert_array_equal(as_a, as_b)
