"""Tests for the sliding-window (DBMZ) structure."""

import numpy as np
import pytest

from repro.core import WeightedPointSet, charikar_greedy
from repro.streaming import GuessStructure, SlidingWindowCoreset, default_cell_capacity
from repro.workloads import drifting_stream


class TestGuessStructure:
    def test_recency_buffer_caps_at_z_plus_1(self):
        g = GuessStructure(r=1.0, k=1, z=2, eps=1.0, d=1, window=100)
        for t in range(10):
            g.insert(np.array([0.0]), t)
        assert g.stored_items == 3  # z+1

    def test_expired_cells_purged(self):
        g = GuessStructure(r=1.0, k=1, z=1, eps=1.0, d=1, window=5)
        g.insert(np.array([0.0]), 0)
        g.insert(np.array([100.0]), 10)  # first cell now expired
        assert len(g.cells) == 1

    def test_query_window_filtering(self):
        g = GuessStructure(r=1.0, k=2, z=1, eps=1.0, d=1, window=5)
        g.insert(np.array([0.0]), 0)
        g.insert(np.array([50.0]), 4)
        cs = g.query(4)  # window [0,4]: both live
        assert cs is not None and cs.total_weight == 2
        g.insert(np.array([50.0]), 8)
        cs = g.query(8)  # window [4,8]: only the recent cell
        assert cs.total_weight >= 1
        assert all(abs(p[0] - 50.0) < 25 for p in cs.points)

    def test_eviction_poisons_queries(self):
        g = GuessStructure(r=1.0, k=1, z=0, eps=1.0, d=1, window=1000, capacity=2)
        g.insert(np.array([0.0]), 0)
        g.insert(np.array([100.0]), 1)
        g.insert(np.array([200.0]), 2)  # exceeds capacity, evicts t=0 cell
        assert g.query(2) is None  # window still contains the evicted arrival
        assert g.invalid_through >= 2

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            GuessStructure(r=0.0, k=1, z=0, eps=0.5, d=1, window=10)

    def test_capacity_default(self):
        assert default_cell_capacity(2, 3, 0.5, 1) == 2 * 12 + 3


class TestSlidingWindowCoreset:
    def test_window_weight_bounded(self, rng):
        sw = SlidingWindowCoreset(2, 2, 0.5, 1, window=50, r_min=0.01, r_max=100)
        stream = drifting_stream(300, 2, 6, d=1, rng=rng)
        sw.extend(stream)
        cs = sw.coreset()
        assert 0 < cs.total_weight <= 50

    def test_radius_tracks_offline(self, rng):
        sw = SlidingWindowCoreset(2, 3, 0.5, 2, window=100, r_min=0.05, r_max=200)
        stream = drifting_stream(500, 2, 10, d=2, rng=rng)
        sw.extend(stream)
        wpts = WeightedPointSet.from_points(stream[-100:])
        r_off = charikar_greedy(wpts, 2, 3).radius
        r_sw = sw.radius()
        assert r_sw <= 4 * r_off + 1e-9
        assert r_off <= 4 * r_sw + 1e-6

    def test_storage_grows_with_z(self, rng):
        stream = drifting_stream(400, 2, 20, d=1, rng=rng)
        small = SlidingWindowCoreset(2, 1, 0.5, 1, 100, 0.05, 100)
        big = SlidingWindowCoreset(2, 10, 0.5, 1, 100, 0.05, 100)
        small.extend(stream)
        big.extend(stream)
        assert big.stored_items > small.stored_items

    def test_storage_independent_of_stream_length(self, rng):
        sw = SlidingWindowCoreset(2, 2, 0.5, 1, window=50, r_min=0.05, r_max=100)
        stream = drifting_stream(200, 2, 5, d=1, rng=rng)
        sw.extend(stream)
        mid = sw.stored_items
        sw.extend(drifting_stream(800, 2, 5, d=1, rng=rng))
        assert sw.stored_items <= 3 * mid + 100

    def test_ladder_length(self):
        sw = SlidingWindowCoreset(1, 0, 0.5, 1, 10, r_min=1.0, r_max=1024.0)
        assert sw.num_guesses == 11

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowCoreset(1, 0, 0.5, 1, 10, r_min=2.0, r_max=1.0)
        with pytest.raises(ValueError):
            SlidingWindowCoreset(1, 0, 0.5, 1, 10, 1.0, 2.0, ladder_ratio=1.0)

    def test_r_max_too_small_raises(self, rng):
        sw = SlidingWindowCoreset(1, 0, 0.5, 1, window=10, r_min=1e-6, r_max=1e-5,
                                  capacity=1)
        # points far apart cannot be served by any tiny guess
        for x in [0.0, 1000.0, 2000.0]:
            sw.insert([x])
        with pytest.raises(RuntimeError):
            sw.coreset()

    def test_empty_window_is_an_empty_coreset(self):
        # before the first arrival the window is empty, not unservable:
        # like the other models, an empty coreset with radius 0
        sw = SlidingWindowCoreset(2, 3, 0.5, 2, window=10, r_min=0.01,
                                  r_max=100.0)
        cs = sw.coreset()
        assert len(cs) == 0 and cs.points.shape == (0, 2)
        assert sw.radius() == 0.0

    def test_empty_session_solves_like_insertion_only(self):
        from repro.api import KCenterSession, ProblemSpec

        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2)
        sol = KCenterSession(spec, backend="sliding-window", window=10,
                             r_min=0.01, r_max=100.0).solve()
        ref = KCenterSession(spec, backend="insertion-only").solve()
        assert sol.radius == ref.radius == 0.0
        assert sol.centers.shape == ref.centers.shape == (0, 2)
        assert sol.coreset_size == 0

    def test_expired_content_ignored(self):
        """After W new arrivals, old clusters no longer affect the answer."""
        sw = SlidingWindowCoreset(1, 0, 0.5, 1, window=20, r_min=0.01, r_max=10000)
        for _ in range(20):
            sw.insert([5000.0])
        for _ in range(20):
            sw.insert([0.0])
        cs = sw.coreset()
        assert all(abs(p[0]) < 1.0 for p in cs.points)
        assert sw.radius() == 0.0


def _assert_same_state(a: SlidingWindowCoreset, b: SlidingWindowCoreset):
    """Full structural equality of two ladders, bit for bit."""
    assert a.now == b.now
    assert a.num_guesses == b.num_guesses
    for ga, gb in zip(a.guesses, b.guesses):
        assert ga.invalid_through == gb.invalid_through
        assert list(ga.cells) == list(gb.cells)  # same keys, same dict order
        for key in ga.cells:
            ba, bb = ga.cells[key], gb.cells[key]
            assert [t for t, _ in ba] == [t for t, _ in bb]
            for (_, pa), (_, pb) in zip(ba, bb):
                assert np.array_equal(pa, pb)
    csa, csb = a.coreset(), b.coreset()
    assert np.array_equal(csa.points, csb.points)
    assert np.array_equal(csa.weights, csb.weights)
    assert a.stored_items == b.stored_items


class TestBatchExtendParity:
    """The vectorized batch path must match the scalar path bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_extend_matches_insert(self, rng, d):
        stream = drifting_stream(400, 2, 10, d=d, rng=rng)
        scalar = SlidingWindowCoreset(2, 3, 0.5, d, window=80, r_min=0.05, r_max=200)
        batch = SlidingWindowCoreset(2, 3, 0.5, d, window=80, r_min=0.05, r_max=200)
        for p in stream:
            scalar.insert(p)
        batch.extend(stream)
        _assert_same_state(scalar, batch)

    def test_extend_matches_insert_with_eviction(self, rng):
        """Tiny capacity forces the eviction/poisoning path in both."""
        stream = drifting_stream(300, 3, 10, d=1, rng=rng)
        kw = dict(window=40, r_min=0.01, r_max=50, capacity=3)
        scalar = SlidingWindowCoreset(1, 1, 0.5, 1, **kw)
        batch = SlidingWindowCoreset(1, 1, 0.5, 1, **kw)
        for p in stream:
            scalar.insert(p)
        batch.extend(stream)
        _assert_same_state(scalar, batch)

    def test_interleaved_scalar_and_batch(self, rng):
        """Mixing insert() and extend() stays consistent with pure scalar."""
        stream = drifting_stream(240, 2, 8, d=2, rng=rng)
        scalar = SlidingWindowCoreset(2, 2, 0.5, 2, window=60, r_min=0.05, r_max=100)
        mixed = SlidingWindowCoreset(2, 2, 0.5, 2, window=60, r_min=0.05, r_max=100)
        for p in stream:
            scalar.insert(p)
        mixed.extend(stream[:100])
        for p in stream[100:140]:
            mixed.insert(p)
        mixed.extend(stream[140:])
        _assert_same_state(scalar, mixed)

    def test_batch_chunking_irrelevant(self, rng):
        """Any chunking of the stream yields the same structure."""
        stream = drifting_stream(200, 2, 6, d=1, rng=rng)
        whole = SlidingWindowCoreset(2, 2, 0.5, 1, window=50, r_min=0.05, r_max=100)
        chunked = SlidingWindowCoreset(2, 2, 0.5, 1, window=50, r_min=0.05, r_max=100)
        whole.extend(stream)
        for lo in range(0, 200, 33):
            chunked.extend(stream[lo:lo + 33])
        _assert_same_state(whole, chunked)
