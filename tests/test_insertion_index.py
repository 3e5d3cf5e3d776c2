"""Cell-indexed Algorithm 3 ingest and the vectorized absorb pass.

``InsertionOnlyCoreset.extend`` answers nearest-representative queries
through a :class:`repro.geometry.CellIndex` once ``r > 0`` and falls back
to one dense block otherwise; ``_greedy_absorb`` expands every candidate
pair at once while the pair count fits its budget.  Both must stay
bit-identical to their scalar references — ``insert`` per point, and
``greedy_absorb_reference`` — on every input, including the ones that
stress the grid: duplicates, points exactly at the absorb cutoff, cell
boundaries, negative coordinates, magnitudes the grid guard refuses, and
``r`` changing mid-chunk.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import repro.core.mbc as mbc
import repro.streaming.insertion_only as io
from repro.core import WeightedPointSet
from _greedy_reference import greedy_absorb_reference
from repro.core.mbc import _ABSORB_MAX_PAIRS, _greedy_absorb
from repro.core.metrics import CallableMetric, PrecomputedMetric, get_metric
from repro.geometry import CellIndex, PointGrid
from repro.geometry.grid import cell_ring, distinct_cells, ring_runs
from repro.kernels import pair_distances
from repro.streaming import InsertionOnlyCoreset

METRICS = ("euclidean", "chebyshev", "manhattan")
_CDIST = {"euclidean": "euclidean", "chebyshev": "chebyshev",
          "manhattan": "cityblock"}


def _stream(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    """Streams that stress the cell index (see the module docstring)."""
    rng = np.random.default_rng(seed)
    if kind == "clusters":
        centers = rng.uniform(-20, 20, (4, d))
        pts = centers[rng.integers(0, 4, n)] + rng.normal(0, 1.0, (n, d))
    elif kind == "lattice":
        # quarter-unit lattice: r and every cutoff are multiples of 1/4, so
        # many pairs sit exactly at the cutoff and on cell boundaries
        pts = rng.integers(-12, 12, (n, d)) * 0.25
    elif kind == "duplicates":
        pool = rng.normal(0, 3.0, (max(2, n // 8), d))
        pts = pool[rng.integers(0, len(pool), n)]
    elif kind == "huge":
        # small-scale start, then coordinates whose cell index at the
        # small cutoff overflows the grid guard: those chunks go dense
        pts = rng.normal(0, 1.0, (n, d))
        far = rng.random(n) < 0.15
        pts[far] = rng.normal(0, 1.0, (int(far.sum()), d)) * 1e12
    elif kind == "drifting":
        # clusters arriving in spatial order: a chunk's openers form long
        # chains, so first-fit finishes them in order, and the threshold
        # cuts chunks inside their openings
        centers = rng.uniform(-20, 20, (4, d))
        pts = centers[rng.integers(0, 4, n)] + rng.normal(0, 1.0, (n, d))
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
    else:  # mirrored: the same clusters with coordinates negated
        centers = rng.uniform(0, 20, (3, d))
        pts = centers[rng.integers(0, 3, n)] + rng.normal(0, 0.5, (n, d))
        pts *= np.where(rng.random((n, d)) < 0.5, -1.0, 1.0)
    return pts


def _structure(metric, d, cap):
    return InsertionOnlyCoreset(2, 3, 0.5, d, metric=metric, size_cap=cap)


def _assert_same(a: InsertionOnlyCoreset, b: InsertionOnlyCoreset) -> None:
    ca, cb = a.coreset(), b.coreset()
    np.testing.assert_array_equal(ca.points, cb.points)
    np.testing.assert_array_equal(ca.weights, cb.weights)
    assert a.r == b.r
    assert a.doublings == b.doublings
    assert a.points_seen == b.points_seen


#: route every chunk with r > 0 through the cell index, in small chunks
#: (many chunk boundaries, many restarts)
_FORCE_INDEX = {"_INDEX_MIN_PAIRS": 0, "_CHUNK_ROWS": 37, "_DENSE_CHUNK_ROWS": 11}


@contextlib.contextmanager
def _forced_index():
    saved = {name: getattr(io, name) for name in _FORCE_INDEX}
    for name, value in _FORCE_INDEX.items():
        setattr(io, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(io, name, value)


@pytest.fixture
def index_always():
    with _forced_index():
        yield


class TestExtendMatchesInsert:
    """Chunked ``extend`` with random split points == the ``insert`` loop."""

    @pytest.mark.parametrize("force", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["clusters", "lattice", "duplicates", "huge",
                              "mirrored", "drifting"]),
        metric=st.sampled_from(METRICS),
        d=st.integers(1, 5),
        n=st.integers(1, 700),
        cap=st.integers(7, 60),
        seed=st.integers(0, 2**16),
        cuts=st.lists(st.floats(0, 1), max_size=6),
    )
    def test_parity(self, force, kind, metric, d, n, cap, seed, cuts):
        pts = _stream(kind, n, d, seed)
        ref = _structure(metric, d, cap)
        for p in pts:
            ref.insert(p)
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        got = _structure(metric, d, cap)
        with _forced_index() if force else contextlib.nullcontext():
            for lo, hi in zip(bounds, bounds[1:]):
                got.extend(pts[lo:hi])
        _assert_same(got, ref)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("d", [2, 5])
    def test_one_row_batches_take_insert(self, metric, d, monkeypatch):
        # a one-row extend is answered by the scalar reference, never by
        # the chunk machinery, and a stream of them equals the insert loop
        pts = _stream("clusters", 600, d, seed=d)
        ref = _structure(metric, d, 40)
        for p in pts:
            ref.insert(p)

        def no_chunk(self, chunk):
            raise AssertionError("one-row extend ran _extend_chunk")

        monkeypatch.setattr(InsertionOnlyCoreset, "_extend_chunk", no_chunk)
        got = _structure(metric, d, 40)
        for p in pts:
            got.extend(p[None, :])
        assert ref.doublings > 0
        _assert_same(got, ref)

    @pytest.mark.parametrize("metric", METRICS)
    def test_index_path_taken_and_identical(self, metric, index_always):
        # sanity that the forced configuration actually indexes: a
        # 2-D stream past r-initialization builds the index
        pts = _stream("clusters", 3000, 2, 7)
        ref = _structure(metric, 2, 200)
        for p in pts:
            ref.insert(p)
        got = _structure(metric, 2, 200)
        got.extend(pts)
        assert got._index is not None and len(got._index) > 0
        _assert_same(got, ref)

    def test_r_changes_mid_chunk(self, index_always, monkeypatch):
        # both r events cut a chunk short: initialization (dense path) and
        # a doubling (the index path at d=2, the dense block at d=5, where
        # the grid never applies); each restart resumes bit-identically
        events = []
        chunk_fn = InsertionOnlyCoreset._extend_chunk

        def recording(self, chunk):
            r0, indexed = self.r, self._cell_index(chunk) is not None
            used = chunk_fn(self, chunk)
            if used < len(chunk):
                events.append(("init" if r0 == 0.0 else "double", indexed))
            return used

        monkeypatch.setattr(InsertionOnlyCoreset, "_extend_chunk", recording)
        for d, indexed in ((2, True), (5, False)):
            events.clear()
            pts = _stream("clusters", 2000, d, 13)
            got = _structure("euclidean", d, 30)
            got.extend(pts)
            assert ("init", False) in events and ("double", indexed) in events
            ref = _structure("euclidean", d, 30)
            for p in pts:
                ref.insert(p)
            _assert_same(got, ref)

    def test_drifting_stream_walks_and_cuts(self, index_always, monkeypatch):
        # arrivals in spatial order: some chunk's openers form a chain the
        # first-fit rounds hand to the in-order walk, and some chunk is cut
        # at the opener that fills the threshold; both stay bit-identical
        seen = {"walked": 0, "cut": 0}
        first_fit, chunk_fn = io.first_fit, InsertionOnlyCoreset._extend_chunk

        def walked(n, later, earlier, stats=None):
            stats = {}
            picked = first_fit(n, later, earlier, stats)
            seen["walked"] += stats["walked"] > 0
            return picked

        def cut(self, chunk):
            # r > 0 before the chunk: a cut is the threshold's, not r's
            # initialization
            r0 = self.r
            used = chunk_fn(self, chunk)
            seen["cut"] += r0 > 0.0 and used < len(chunk)
            return used

        monkeypatch.setattr(io, "first_fit", walked)
        monkeypatch.setattr(InsertionOnlyCoreset, "_extend_chunk", cut)
        for seed in range(4):
            pts = _stream("drifting", 600, 1, seed)
            ref = _structure("euclidean", 1, 40)
            for p in pts:
                ref.insert(p)
            got = _structure("euclidean", 1, 40)
            got.extend(pts)
            _assert_same(got, ref)
        assert seen["walked"] > 0 and seen["cut"] > 0

    def test_default_thresholds_index_a_large_stream(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 5.0, (20000, 2))
        st_ = InsertionOnlyCoreset(4, 8, 0.5, 2, size_cap=2000)
        st_.extend(pts)
        assert st_._index is not None and len(st_._index) > 0
        ref = InsertionOnlyCoreset(4, 8, 0.5, 2, size_cap=2000)
        for p in pts:
            ref.insert(p)
        _assert_same(st_, ref)

    def test_chunks_build_no_cell_index(self, index_always, monkeypatch):
        # the chunk's own sort serves the openers' lookup: the only
        # CellIndex built is the one over P*, once per radius
        built = []

        class Counted(CellIndex):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(io, "CellIndex", Counted)
        pts = _stream("clusters", 6000, 2, 11)
        got = _structure("euclidean", 2, 400)
        got.extend(pts)
        assert 0 < len(built) <= got.doublings + 1
        ref = _structure("euclidean", 2, 400)
        for p in pts:
            ref.insert(p)
        _assert_same(got, ref)

    def test_guard_refusal_uses_dense_path(self, index_always):
        # representatives near 1e12 with a cutoff around 0.1 quantize
        # beyond the 2^30 guard until the side floor catches up
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(0, 1.0, (300, 2)),
                              rng.normal(0, 1.0, (300, 2)) + 1e12])
        ref = _structure("euclidean", 2, 40)
        for p in pts:
            ref.insert(p)
        got = _structure("euclidean", 2, 40)
        got.extend(pts)
        _assert_same(got, ref)


class TestGeneralMetrics:
    """``extend`` == the ``insert`` loop under metrics without coordinates,
    where every chunk takes the dense block: random split points over
    streams that cross r's initialization and doublings."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["clusters", "lattice", "mirrored"])
    @pytest.mark.parametrize("metric", ["precomputed", "callable"])
    def test_parity(self, metric, kind, seed):
        rng = np.random.default_rng(seed)
        pool = _stream(kind, 120, 2, seed)
        picks = rng.integers(0, len(pool), 400)
        if metric == "precomputed":
            met = PrecomputedMetric(cdist(pool, pool))
            pts = picks[:, None].astype(float)
        else:
            met = CallableMetric(
                lambda a, b: float(np.sqrt(((a - b) ** 2).sum())))
            pts = pool[picks]
        ref = _structure(met, 2, 20)
        for p in pts:
            ref.insert(p)
        assert ref.r > 0.0 and ref.doublings > 0
        bounds = sorted({0, len(pts), *rng.integers(0, len(pts), 5).tolist()})
        got = _structure(met, 2, 20)
        for lo, hi in zip(bounds, bounds[1:]):
            got.extend(pts[lo:hi])
        _assert_same(got, ref)


class TestSnapshotCompat:
    def test_restore_ignores_legacy_batch_dense(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(0, 4.0, (3000, 2))
        whole = InsertionOnlyCoreset(3, 5, 0.5, 2, size_cap=300)
        whole.extend(pts)
        head = InsertionOnlyCoreset(3, 5, 0.5, 2, size_cap=300)
        head.extend(pts[:1700])
        state = head.snapshot()
        assert "batch_dense" not in state
        state["batch_dense"] = True  # as written by earlier versions
        resumed = InsertionOnlyCoreset(3, 5, 0.5, 2, size_cap=300)
        resumed.restore(state)
        resumed.extend(pts[1700:])
        _assert_same(resumed, whole)

    def test_no_scalar_fallback(self, monkeypatch):
        # a batch of more than one row never routes through insert
        calls = []
        monkeypatch.setattr(InsertionOnlyCoreset, "insert",
                            lambda self, p: calls.append(p))
        st_ = InsertionOnlyCoreset(2, 2, 1.0, 2, size_cap=20)
        st_.extend(np.random.default_rng(0).uniform(0, 100, (500, 2)))
        assert calls == [] and st_.points_seen == 500


class TestAbsorbCSR:
    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(192, 900), d=st.integers(1, 4),
           delta=st.sampled_from([0.05, 0.25, 0.5, 1.5]),
           seed=st.integers(0, 2**16), lattice=st.booleans())
    def test_permuted_order_parity(self, metric, n, d, delta, seed, lattice):
        rng = np.random.default_rng(seed)
        pts = (rng.integers(-8, 8, (n, d)) * 0.25 if lattice
               else rng.normal(0, 2.0, (n, d)))
        P = WeightedPointSet(pts, rng.integers(1, 6, n))
        met = get_metric(metric)
        order = rng.permutation(n)
        c_a, as_a = _greedy_absorb(P, delta, met, order)
        c_b, as_b = greedy_absorb_reference(P, delta, met, order)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)

    @pytest.mark.parametrize("rule", ["walk", "rounds"])
    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(192, 900), d=st.integers(1, 4),
           delta=st.sampled_from([0.05, 0.25, 0.5, 1.5]),
           seed=st.integers(0, 2**16), lattice=st.booleans())
    def test_density_rule_either_way(self, rule, metric, n, d, delta, seed,
                                     lattice):
        # lists of any mean length through either mechanism
        rng = np.random.default_rng(seed)
        pts = (rng.integers(-8, 8, (n, d)) * 0.25 if lattice
               else rng.normal(0, 2.0, (n, d)))
        P = WeightedPointSet(pts, rng.integers(1, 6, n))
        met = get_metric(metric)
        order = rng.permutation(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mbc, "_ROUNDS_MAX_MEAN_LIST",
                       0 if rule == "walk" else np.inf)
            c_a, as_a = _greedy_absorb(P, delta, met, order)
        c_b, as_b = greedy_absorb_reference(P, delta, met, order)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)

    @pytest.mark.parametrize("rule", ["walk", "rounds"])
    def test_ordered_line_either_way(self, rule, monkeypatch):
        # spacing 0.6 delta in order: the rounds hand over to the walk
        monkeypatch.setattr(mbc, "_ROUNDS_MAX_MEAN_LIST",
                            0 if rule == "walk" else np.inf)
        pts = (0.6 * np.arange(3000.0))[:, None]
        P = WeightedPointSet(pts, np.arange(1, 3001))
        met = get_metric(None)
        c_a, as_a = _greedy_absorb(P, 1.0, met)
        c_b, as_b = greedy_absorb_reference(P, 1.0, met)
        assert len(c_a) == 1500
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)

    def test_duplicate_flood_over_budget_keeps_loop(self):
        rng = np.random.default_rng(9)
        n = 1500
        pts = np.concatenate([np.zeros((n - 100, 2)),
                              rng.normal(0, 3.0, (100, 2))])
        P = WeightedPointSet(pts[rng.permutation(n)], rng.integers(1, 4, n))
        grid = PointGrid.build(P.points, 0.5 * (1 + 1e-6), max_ring=1)
        assert grid.candidate_pairs(0.5, _ABSORB_MAX_PAIRS) is None
        met = get_metric(None)
        order = rng.permutation(n)
        c_a, as_a = _greedy_absorb(P, 0.5, met, order)
        c_b, as_b = greedy_absorb_reference(P, 0.5, met, order)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)


def _deltas(idx):
    """The code offsets of every cell of ``idx``'s query neighbourhood,
    in offset order (axis 0 slowest)."""
    ring = cell_ring(idx.reach, idx.side)
    axes = np.meshgrid(*([np.arange(-ring, ring + 1)] * idx.dim),
                       indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, idx.dim) @ idx._radix


def _pairs(idx, qcodes):
    """``idx.cell_pairs`` over the distinct cells of ``qcodes``."""
    _, cells, of = distinct_cells(qcodes)
    return idx.cell_pairs(cells, of)


def _rows(idx):
    """The row runs :meth:`CellIndex.cell_pairs` searches per cell."""
    return ring_runs(idx._codes, np.zeros(1, dtype=np.int64), idx._radix,
                     cell_ring(idx.reach, idx.side))[0].shape[1]


def _assert_two_searches(idx, qcodes):
    """``idx.cell_pairs`` over the distinct cells of ``qcodes`` equals a
    left and a right search per neighbour cell of every query, order
    included; returns the pairs."""
    deltas = _deltas(idx)
    with np.errstate(over="ignore"):
        targets = (qcodes[:, None] + deltas[None, :]).ravel()
    lo = np.searchsorted(idx._codes, targets, side="left")
    hi = np.searchsorted(idx._codes, targets, side="right")
    want_q = np.repeat(np.arange(len(targets)) // len(deltas), hi - lo)
    want_ids = idx._ids[np.concatenate(
        [np.arange(a, b) for a, b in zip(lo, hi)] + [[]]).astype(int)]
    q, ids = _pairs(idx, qcodes)
    np.testing.assert_array_equal(q, want_q)
    np.testing.assert_array_equal(ids, want_ids)
    return q, ids


class TestCellIndex:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**16),
           reach=st.sampled_from([0.1, 0.3, 1.0]),
           scale=st.sampled_from([1.0, 1e3, 1e6]))
    def test_pairs_cover_every_neighbor(self, d, seed, reach, scale):
        rng = np.random.default_rng(seed)
        members = rng.normal(0, 1.0, (300, d)) * scale * reach
        queries = rng.normal(0, 1.0, (80, d)) * scale * reach
        queries[:20] = members[:20] + rng.uniform(-reach, reach, (20, d))
        idx = CellIndex(reach * (1 + 1e-6), d, reach)
        codes = idx.encode(members)
        if codes is None:  # the guard refused this scale
            return
        # grow in two batches: later additions keep earlier codes valid
        idx.add(codes[:150], np.arange(150))
        idx.add(codes[150:], np.arange(150, 300))
        qcodes = idx.encode(queries)
        if qcodes is None:
            return
        q, ids = _pairs(idx, qcodes)
        assert np.all(np.diff(q) >= 0)
        got = set(zip(q.tolist(), ids.tolist()))
        # L2 and L1 dominate Linf, so the Linf ball is the widest
        D = cdist(queries, members, "chebyshev")
        want = set(zip(*np.nonzero(D <= reach)))
        assert want <= got

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**16),
           members=st.integers(0, 200), spread=st.sampled_from([1, 4, 1e8]))
    def test_pairs_match_two_searches(self, d, seed, members, spread):
        # one search into the distinct cells == a left and a right search
        # over every member, order included: an empty index, many members
        # per cell (a small spread), and for d >= 3 wrapped codes (1e8
        # cells out, beyond the 2^(62/d) radix)
        rng = np.random.default_rng(seed)
        idx = CellIndex(1.0, d, 1.0)
        pts = rng.uniform(-spread, spread, (members, d))
        codes = idx.encode(pts)
        half = members // 2
        idx.add(codes[:half], np.arange(half))
        idx.add(codes[half:], np.arange(half, members))
        queries = np.concatenate([pts[:5], rng.uniform(-spread, spread,
                                                       (20, d))])
        _assert_two_searches(idx, idx.encode(queries))

    @pytest.mark.parametrize("d", [3, 4])
    def test_row_across_int64_max(self, d):
        # hand-built codes: the centre row of a query at or just below
        # int64 max runs past it and wraps to int64 min, so its run is
        # split into the members >= its first code, then those <= its last
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        idx = CellIndex(1.0, d, 1.0)  # side == reach: ring 2
        members = np.array([top - 1, bottom, top, bottom + 1, 0, top - 5,
                            bottom + 3, top, bottom + 1], dtype=np.int64)
        idx.add(members[:4], np.arange(4))
        idx.add(members[4:], np.arange(4, len(members)))
        queries = np.array([top, top - 1, bottom, top, 0, bottom + 1],
                           dtype=np.int64)
        q, ids = _assert_two_searches(idx, queries)
        assert ids[q == 0].tolist() == [0, 2, 7, 1, 3, 8]
        assert ids[q == 1].tolist() == [0, 2, 7, 1]
        assert q.tolist() == sorted(q.tolist())

    def test_one_dimension(self):
        rng = np.random.default_rng(1)
        idx = CellIndex(0.5, 1, 0.5)
        pts = rng.uniform(-20, 20, (300, 1))
        idx.add(idx.encode(pts), np.arange(300))
        assert _rows(idx) == 1
        _assert_two_searches(idx, idx.encode(rng.uniform(-22, 22, (60, 1))))

    def test_ring_two(self):
        # side < reach: five cells a row, five rows
        rng = np.random.default_rng(2)
        idx = CellIndex(0.6, 2, 1.0)
        assert len(_deltas(idx)) == 25 and _rows(idx) == 5
        pts = rng.uniform(-6, 6, (400, 2))
        idx.add(idx.encode(pts), np.arange(400))
        _assert_two_searches(idx, idx.encode(rng.uniform(-7, 7, (80, 2))))

    def test_repeated_query_codes(self):
        rng = np.random.default_rng(3)
        idx = CellIndex(1.0, 2, 1.0)
        pts = rng.uniform(-5, 5, (200, 2))
        idx.add(idx.encode(pts), np.arange(200))
        qcodes = idx.encode(rng.uniform(-5, 5, (6, 2)))[
            rng.integers(0, 6, 50)]
        q, ids = _assert_two_searches(idx, qcodes)
        # queries in one cell get the same candidates
        for a in range(50):
            first = int(np.flatnonzero(qcodes == qcodes[a])[0])
            assert ids[q == a].tolist() == ids[q == first].tolist()

    def test_empty_index_and_no_queries(self):
        idx = CellIndex(1.0, 3, 1.0)
        q, ids = _assert_two_searches(idx, idx.encode(np.ones((4, 3))))
        assert len(q) == len(ids) == 0
        assert q.dtype == ids.dtype == np.int64
        idx.add(idx.encode(np.ones((4, 3))), np.arange(4))
        q, ids = _assert_two_searches(idx, np.zeros(0, dtype=np.int64))
        assert len(q) == len(ids) == 0

    def test_encode_refuses_untrusted_coordinates(self):
        idx = CellIndex(0.1, 2, 0.1)
        assert idx.encode(np.array([[1e12, 0.0]])) is None
        assert idx.encode(np.array([[np.nan, 0.0]])) is None
        assert idx.encode(np.array([[1.0, -1.0]])) is not None


class TestPairDistancesOther:
    @pytest.mark.parametrize("metric", METRICS)
    def test_second_operand_bit_matches_cdist(self, metric):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(40, 3)), rng.normal(size=(25, 3))
        rows, cols = rng.integers(0, 40, 500), rng.integers(0, 25, 500)
        got = pair_distances(metric, a, rows, cols, other=b)
        want = cdist(a, b, _CDIST[metric])[rows, cols]
        np.testing.assert_array_equal(got, want)
