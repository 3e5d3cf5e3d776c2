"""Tests for the sliding-window (DBMZ) structure.

The ladder keeps its cells as stacked arrays; ``tests/_sliding_window_reference.py``
holds the frozen per-rung dict-of-lists implementation it replaced.  The
parity tests drive both with the same arrivals and compare, after every
step, the snapshot trees (cells, order, times, points, poison watermarks),
the coresets and the storage.
"""

import io

import numpy as np
import pytest
from _sliding_window_reference import ReferenceSlidingWindow
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightedPointSet, charikar_greedy
from repro.persist import SnapshotError
from repro.persist.format import _split_state
from repro.streaming import SlidingWindowCoreset, default_cell_capacity
from repro.workloads import drifting_stream


def _one_rung(k=1, z=0, d=1, window=100, capacity=None, eps=1.0):
    """A ladder with a single radius guess ``r = 1``."""
    return SlidingWindowCoreset(k, z, eps, d, window, r_min=1.0, r_max=1.0,
                                capacity=capacity)


def _rung0(sw):
    return sw.snapshot()["guesses"]["0"]


def _tree_bytes(state: dict) -> "tuple[dict, dict]":
    """The state tree as the snapshot container stores it: JSON leaves
    and each array's ``.npy`` bytes."""
    tree: dict = {}
    arrays: dict = {}
    _split_state(state, "", tree, arrays)
    out = {}
    for path, arr in arrays.items():
        buf = io.BytesIO()
        np.save(buf, arr)
        out[path] = buf.getvalue()
    return tree, out


def _coreset(sw):
    try:
        return sw.coreset()
    except RuntimeError:
        return None


def _assert_same_state(a, b):
    """Full structural equality of two ladders, bit for bit."""
    assert a.now == b.now
    assert a.num_guesses == b.num_guesses
    assert _tree_bytes(a.snapshot()) == _tree_bytes(b.snapshot())
    csa, csb = _coreset(a), _coreset(b)
    assert (csa is None) == (csb is None)
    if csa is not None:
        assert np.array_equal(csa.points, csb.points)
        assert np.array_equal(csa.weights, csb.weights)
    assert a.stored_items == b.stored_items


class TestGuessStructure:
    """One rung of the ladder (``r_min == r_max``): a single guess."""

    def test_recency_buffer_caps_at_z_plus_1(self):
        g = _one_rung(z=2)
        for _ in range(10):
            g.insert(np.array([0.0]))
        assert g.stored_items == 3  # z+1

    def test_expired_cells_purged(self):
        g = _one_rung(z=1, window=5)
        g.insert(np.array([0.0]))  # t=0
        for _ in range(5):
            g.insert(np.array([100.0]))  # t=1..5: the first cell expires
        assert len(_rung0(g)["cell_keys"]) == 1

    def test_query_window_filtering(self):
        g = _one_rung(k=2, z=1, window=5)
        g.insert(np.array([0.0]))  # t=0
        for _ in range(4):
            g.insert(np.array([50.0]))  # t=1..4
        cs = g.coreset()  # window [0,4]: both cells live
        assert len(cs) == 2 and cs.total_weight == 3  # 1 + min(4, z+1)
        for _ in range(4):
            g.insert(np.array([50.0]))  # t=5..8
        cs = g.coreset()  # window [4,8]: only the recent cell
        assert cs.total_weight >= 1
        assert all(abs(p[0] - 50.0) < 25 for p in cs.points)

    def test_eviction_poisons_queries(self):
        g = _one_rung(window=1000, capacity=2)
        for x in (0.0, 100.0, 200.0):  # the third evicts the t=0 cell
            g.insert(np.array([x]))
        assert g.invalid_through[0] >= 2
        with pytest.raises(RuntimeError):
            g.coreset()  # the window still contains the evicted arrival

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            SlidingWindowCoreset(1, 0, 0.5, 1, 10, r_min=0.0, r_max=0.0)

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
        with pytest.raises(ValueError, match="capacity"):
            SlidingWindowCoreset(1, 0, 0.5, 1, 10, 1.0, 2.0, capacity=0)

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

    def test_wrong_width_rejected(self):
        sw = SlidingWindowCoreset(1, 0, 0.5, 2, window=20, r_min=0.1, r_max=10)
        with pytest.raises(ValueError, match="shape"):
            sw.extend(np.zeros((3, 3)))
        assert sw.now == -1 and sw.stored_items == 0

    @pytest.mark.parametrize("bad", [1e20, -1e20, np.inf, np.nan])
    def test_key_outside_int64_rejected(self, bad):
        """A key that would wrap in the int64 cast must not merge cells."""
        kw = dict(window=10, r_min=0.05, r_max=1e30)
        sw = SlidingWindowCoreset(1, 0, 1.0, 2, **kw)
        sw.extend([[0.5, 0.0]])
        before = _tree_bytes(sw.snapshot())
        with pytest.raises(ValueError, match="int64"):
            sw.extend([[1.0, 0.0], [bad, 0.0]])
        assert _tree_bytes(sw.snapshot()) == before  # all or nothing

    def test_far_apart_huge_points_stay_apart(self):
        sw = SlidingWindowCoreset(1, 0, 1.0, 2, window=10, r_min=1e6, r_max=1e30)
        sw.extend([[1e20, 0.0], [-1e20, 0.0]])
        assert len(_rung0(sw)["cell_keys"]) == 2


class TestBatchExtendParity:
    """The stacked ladder matches the frozen per-arrival reference."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_extend_matches_insert(self, rng, d):
        stream = drifting_stream(400, 2, 10, d=d, rng=rng)
        scalar = ReferenceSlidingWindow(2, 3, 0.5, d, window=80, r_min=0.05, r_max=200)
        batch = SlidingWindowCoreset(2, 3, 0.5, d, window=80, r_min=0.05, r_max=200)
        for p in stream:
            scalar.insert(p)
        batch.extend(stream)
        _assert_same_state(scalar, batch)

    def test_extend_matches_insert_with_eviction(self, rng):
        """Tiny capacity forces the eviction/poisoning path in both."""
        stream = drifting_stream(300, 3, 10, d=1, rng=rng)
        kw = dict(window=40, r_min=0.01, r_max=50, capacity=3)
        scalar = ReferenceSlidingWindow(1, 1, 0.5, 1, **kw)
        batch = SlidingWindowCoreset(1, 1, 0.5, 1, **kw)
        for p in stream:
            scalar.insert(p)
        batch.extend(stream)
        _assert_same_state(scalar, batch)

    def test_interleaved_scalar_and_batch(self, rng):
        """Mixing insert() and extend() stays consistent with pure scalar."""
        stream = drifting_stream(240, 2, 8, d=2, rng=rng)
        scalar = ReferenceSlidingWindow(2, 2, 0.5, 2, window=60, r_min=0.05, r_max=100)
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

    def test_saturated_rungs_match_reference(self):
        """The served tenant's shape: full, poisoned fine rungs evicting
        on most arrivals, 32-point batches, a restore in the middle."""
        rng = np.random.default_rng(3)
        centers = rng.normal(0, 20, (6, 2))
        stream = centers[rng.integers(0, 6, 2400)] + rng.normal(0, 1.5, (2400, 2))
        kw = dict(window=300, r_min=0.05, r_max=200, capacity=40)
        ref = ReferenceSlidingWindow(4, 8, 1.0, 2, **kw)
        new = SlidingWindowCoreset(4, 8, 1.0, 2, **kw)
        for lo in range(0, len(stream), 32):
            ref.extend(stream[lo:lo + 32])
            new.extend(stream[lo:lo + 32])
            _assert_same_state(ref, new)
            if lo == 1600:
                new = SlidingWindowCoreset(4, 8, 1.0, 2, **kw)
                new.restore(ref.snapshot())
        assert new.invalid_through[0] > 0  # the finest rung was poisoned

    def test_wide_key_ranges_group_by_exact_bytes(self, rng):
        """Keys whose ranges do not pack into one int64 are grouped by
        their bytes, with the same result."""
        base = drifting_stream(300, 3, 10, d=2, rng=rng)
        stream = np.where(rng.random((300, 1)) < 0.5, base, base + 1e14)
        kw = dict(window=40, r_min=1e-3, r_max=1e16, capacity=6)
        ref = ReferenceSlidingWindow(1, 1, 0.5, 2, **kw)
        new = SlidingWindowCoreset(1, 1, 0.5, 2, **kw)
        for lo in range(0, len(stream), 25):
            ref.extend(stream[lo:lo + 25])
            new.extend(stream[lo:lo + 25])
            _assert_same_state(ref, new)

    def test_reference_snapshot_restores_and_continues(self, rng):
        """A snapshot in the reference's (the previous) format loads and
        continues bit-identically, and both sides write the same bytes."""
        stream = drifting_stream(400, 3, 10, d=2, rng=rng)
        kw = dict(window=60, r_min=0.05, r_max=100, capacity=12)
        ref = ReferenceSlidingWindow(2, 2, 0.5, 2, **kw)
        ref.extend(stream[:250])
        new = SlidingWindowCoreset(2, 2, 0.5, 2, **kw)
        new.restore(ref.snapshot())
        _assert_same_state(ref, new)
        ref.extend(stream[250:])
        new.extend(stream[250:])
        _assert_same_state(ref, new)


_POINT_SCALES = (0.05, 0.3, 2.0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    z=st.integers(0, 3),
    window=st.integers(1, 30),
    capacity=st.one_of(st.none(), st.integers(1, 8)),
    r_max=st.sampled_from((0.05, 1.0, 20.0)),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("extend"), st.integers(1, 70)),
            st.tuples(st.just("insert"), st.integers(1, 5)),
            st.tuples(st.just("restore"), st.just(0)),
        ),
        min_size=1, max_size=12,
    ),
)
def test_matches_reference_after_every_step(seed, d, z, window, capacity,
                                            r_max, ops):
    """Random ladders and op sequences, from 1-arrival batches to batches
    far longer than the window; tiny capacities saturate and poison rungs;
    restores cross between the two implementations mid-stream."""
    rng = np.random.default_rng(seed)
    kw = dict(window=window, r_min=0.05, r_max=r_max, capacity=capacity)
    ref = ReferenceSlidingWindow(2, z, 0.5, d, **kw)
    new = SlidingWindowCoreset(2, z, 0.5, d, **kw)
    _assert_same_state(ref, new)  # the empty window
    scale = _POINT_SCALES[seed % len(_POINT_SCALES)]
    for op, m in ops:
        if op == "restore":
            fresh_new = SlidingWindowCoreset(2, z, 0.5, d, **kw)
            fresh_new.restore(ref.snapshot())
            fresh_ref = ReferenceSlidingWindow(2, z, 0.5, d, **kw)
            fresh_ref.restore(new.snapshot())
            ref, new = fresh_ref, fresh_new
        else:
            pts = np.round(rng.normal(0.0, scale, (m, d)), 1)
            if op == "extend":
                ref.extend(pts)
                new.extend(pts)
            else:
                for p in pts:
                    ref.insert(p)
                    new.insert(p)
        _assert_same_state(ref, new)


class TestRestoreFailsClosed:
    """Tampered rung state raises SnapshotError instead of loading."""

    KW = dict(window=50, r_min=0.5, r_max=0.5)

    def _state(self):
        sw = SlidingWindowCoreset(1, 2, 1.0, 2, **self.KW)
        sw.extend(np.array([[0.1, 0.1], [0.2, 0.3], [3.0, 3.0], [0.1, 0.2],
                            [5.0, 5.0]]))
        state = sw.snapshot()
        return state, state["guesses"]["0"]

    def _restore(self, state):
        SlidingWindowCoreset(1, 2, 1.0, 2, **self.KW).restore(state)

    def test_untampered_state_restores(self):
        state, _ = self._state()
        self._restore(state)

    def _rejects(self, state, match):
        with pytest.raises(SnapshotError, match=match):
            self._restore(state)

    def test_zero_size_cell(self):
        state, g = self._state()
        g["cell_keys"] = np.vstack([g["cell_keys"], [[40, 40]]])
        g["cell_sizes"] = np.append(g["cell_sizes"], 0)
        self._rejects(state, "cell sizes")

    def test_cell_size_above_z_plus_1(self):
        state, g = self._state()
        g["cell_sizes"] = np.array([4, 1])  # z+1 = 3
        g["cell_keys"] = g["cell_keys"][:2]
        self._rejects(state, "cell sizes")

    def test_duplicate_cell_keys(self):
        state, g = self._state()
        g["cell_keys"] = g["cell_keys"].copy()
        g["cell_keys"][1] = g["cell_keys"][0]
        self._rejects(state, "duplicate cell keys")

    def test_keys_of_width_d_plus_1(self):
        state, g = self._state()
        g["cell_keys"] = np.hstack([g["cell_keys"], g["cell_keys"][:, :1]])
        self._rejects(state, "inconsistent")

    def test_time_after_the_clock(self):
        state, g = self._state()
        g["times"] = g["times"].copy()
        g["times"][-1] = state["t"] + 1
        self._rejects(state, "arrival times")

    def test_times_not_ascending_within_a_cell(self):
        state, g = self._state()
        assert g["cell_sizes"][0] == 3
        g["times"] = g["times"].copy()
        g["times"][[0, 1]] = g["times"][[1, 0]]
        self._rejects(state, "ascend")

    def test_nan_point(self):
        state, g = self._state()
        g["points"] = g["points"].copy()
        g["points"][0, 0] = np.nan
        self._rejects(state, "non-finite")

    def test_point_outside_its_cell(self):
        state, g = self._state()
        g["points"] = g["points"].copy()
        g["points"][0] = [9.0, 9.0]
        self._rejects(state, "outside its cell")

    def test_expired_cell(self):
        state, _ = self._state()
        state["t"] = 200  # every cell's newest arrival left the window
        self._rejects(state, "outside the window")

    def test_more_cells_than_capacity(self):
        state, g = self._state()
        g["capacity"] = 2
        sw = SlidingWindowCoreset(1, 2, 1.0, 2, capacity=2, **self.KW)
        with pytest.raises(SnapshotError, match="exceed the capacity"):
            sw.restore(state)

    def test_failed_restore_leaves_state_unchanged(self):
        state, g = self._state()
        sw = SlidingWindowCoreset(1, 2, 1.0, 2, **self.KW)
        sw.extend([[0.7, 0.7]])
        before = _tree_bytes(sw.snapshot())
        g["cell_sizes"] = np.array([0, 2, 2])
        with pytest.raises(SnapshotError):
            sw.restore(state)
        assert _tree_bytes(sw.snapshot()) == before
