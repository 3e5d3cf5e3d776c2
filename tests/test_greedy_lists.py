"""Neighbour-list Charikar decisions: bit parity with the blocked scans
and the dense float64 decision.

A grid-pruned decision whose grid averages few candidate pairs per cell
enumerates every within-cutoff pair once: within :data:`_LIST_MAX_PAIRS`
it keeps them as lists (:func:`neighbour_lists`) and walks them for the
gain seed and every pick; over that budget the streamed pair blocks seed
the gains and the picks scan cells.  Denser grids keep the per-cell
blocked scans; within the same budget their seed keeps each cell's rows
and contribution, and the picks spend those instead of scanning again.
All compare the same pairs in float64 and integer weights make every
gain an exact integer, so the list path, the streamed seed, the blocked
path with or without its kept seed and the dense
:func:`_geometric_decision` must agree bit for bit: centres, uncovered
mask and feasibility.  The crossover constants and budgets are patched
to force each side.
"""

import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.greedy as greedy_mod
import repro.core.mbc as mbc_mod
import repro.core.metrics as metrics_mod
import repro.geometry.grid as grid_mod
from repro.core import WeightedPointSet, charikar_greedy
from _greedy_reference import (
    charikar_greedy_reference,
    greedy_absorb_reference,
)
from repro.core.greedy import (
    _LIST_BLOCK_PAIRS,
    _LIST_MAX_PAIRS,
    _geometric_decision,
    _grid_decision,
    _grid_for_guess,
    neighbour_lists,
)
from repro.core.metrics import get_metric
from repro.kernels import pairwise_kernel
from test_greedy_pruned import _assert_same_result

_subtract_kept = greedy_mod._GridCells._subtract_kept

METRICS = ("euclidean", "chebyshev", "manhattan")
#: per-cell crossovers that force the blocked path (0), the list path
#: (huge), or let a small threshold split the guesses between them
FORCE_BLOCKED, FORCE_LISTS = 0, 10**12


def _new_stats() -> dict:
    return {"decisions": 0, "list_decisions": 0}


def _decide(P, metric, k, g, per_cell):
    """One grid decision at crossover ``per_cell``: ``(result, listed)``."""
    grid = _grid_for_guess(P.points, g + 1e-9 * max(1.0, g))
    assert grid is not None
    stats = _new_stats()
    with mock.patch.object(greedy_mod, "_LIST_PAIRS_PER_CELL", per_cell):
        out = _grid_decision(P, metric, k, g, grid, stats=stats)
    assert stats["decisions"] == 1
    return out, stats["list_decisions"] == 1


def _assert_same_decision(a, b):
    assert list(a[0]) == list(b[0])
    np.testing.assert_array_equal(a[1], b[1])


def _stratified(n_side, seed):
    """One uniform point per cell of an ``a x b`` grid over [0, 100]^2,
    shuffled: the shape of one MPC machine's stratified sample."""
    a, b = n_side
    rng = np.random.default_rng(seed)
    ix, iy = np.meshgrid(np.arange(a), np.arange(b), indexing="ij")
    cells = np.stack([ix.ravel() / a, iy.ravel() / b], axis=1)
    pts = 100.0 * (cells + rng.random(cells.shape) / np.array([a, b]))
    return pts[rng.permutation(len(pts))]


# ---------------------------------------------------------------------------
# Decision-level parity: lists == blocked == dense float64
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 260),
    d=st.integers(1, 4),
    k=st.integers(1, 7),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    guess_frac=st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.2, 0.7]),
    dup=st.booleans(),
    max_w=st.sampled_from([1, 2, 9]),
    metric=st.sampled_from(METRICS),
)
def test_list_blocked_dense_decision_parity(seed, n, d, k, scale,
                                            guess_frac, dup, max_w, metric):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * scale
    if dup and n >= 4:  # fold in exact duplicates
        pts[: n // 2] = pts[n - n // 2:]
    P = WeightedPointSet(pts, rng.integers(1, max_w + 1, n))
    met = get_metric(metric)
    g = guess_frac * scale
    # an untrusted quantization (tiny side, wide extent) has no grid
    assume(_grid_for_guess(pts, g + 1e-9 * max(1.0, g)) is not None)
    listed, took_lists = _decide(P, met, k, g, FORCE_LISTS)
    blocked, took_blocked = _decide(P, met, k, g, FORCE_BLOCKED)
    assert took_lists and not took_blocked
    dense = _geometric_decision(P, met, k, g)
    _assert_same_decision(listed, blocked)
    _assert_same_decision(listed, dense)


class TestDecisionCases:
    @pytest.mark.parametrize("metric", METRICS)
    def test_guess_zero_with_duplicates(self, rng, metric):
        base = rng.uniform(0, 5, size=(12, 2))
        P = WeightedPointSet(np.repeat(base, 25, axis=0),
                             rng.integers(1, 4, 300))
        met = get_metric(metric)
        for k in (12, 5, 3):
            listed, took = _decide(P, met, k, 0.0, FORCE_LISTS)
            assert took
            _assert_same_decision(
                listed, _decide(P, met, k, 0.0, FORCE_BLOCKED)[0])
            _assert_same_decision(listed,
                                  _geometric_decision(P, met, k, 0.0))
        # k covers every location: guess 0 leaves nothing uncovered on
        # the list path
        assert not _decide(P, met, 12, 0.0, FORCE_LISTS)[0][1].any()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("metric", METRICS)
    def test_tiny_guess_every_point_its_own_cell(self, rng, d, metric):
        P = WeightedPointSet(rng.uniform(0, 50, size=(400, d)),
                             rng.integers(1, 6, 400))
        met = get_metric(metric)
        # as small as the grid's 2^62 code guard allows in dimension d
        g = 1e-6 if d <= 2 else 1e-2
        grid = _grid_for_guess(P.points, g)
        assert grid.num_cells == len(P)
        listed, took = _decide(P, met, 5, g, FORCE_LISTS)
        assert took
        _assert_same_decision(listed,
                              _decide(P, met, 5, g, FORCE_BLOCKED)[0])
        _assert_same_decision(listed, _geometric_decision(P, met, 5, g))

    def test_default_gate_splits_by_cell_density(self, rng):
        # the same points: a tiny guess is sparse (lists), a guess near
        # the diameter puts hundreds of points in each cell (blocked)
        P = WeightedPointSet(rng.uniform(0, 10, size=(900, 2)),
                             rng.integers(1, 4, 900))
        met = get_metric(None)
        grid = _grid_for_guess(P.points, 0.05)
        stats = _new_stats()
        _grid_decision(P, met, 4, 0.05, grid, stats=stats)
        assert stats["list_decisions"] == 1
        grid = _grid_for_guess(P.points, 4.0)
        stats = _new_stats()
        _grid_decision(P, met, 4, 4.0, grid, stats=stats)
        assert stats["list_decisions"] == 0

    def test_pair_budget_keeps_the_blocked_path(self, rng):
        # sparse but over the list budget: the streamed seed, then
        # blocked pick scans
        P = WeightedPointSet(rng.uniform(0, 10, size=(300, 2)),
                             rng.integers(1, 4, 300))
        met = get_metric(None)
        with mock.patch.object(greedy_mod, "_LIST_MAX_PAIRS", 10):
            out, took = _decide(P, met, 3, 0.3, FORCE_LISTS)
        assert not took
        _assert_same_decision(out, _geometric_decision(P, met, 3, 0.3))


# ---------------------------------------------------------------------------
# Streamed seeds: sparse grids over the list budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 400),
       k=st.integers(1, 6), z=st.integers(0, 12),
       list_frac=st.sampled_from([0, 1]),
       block_pairs=st.sampled_from([1, 64, _LIST_BLOCK_PAIRS]),
       match_targets=st.sampled_from([1, 100, grid_mod._MATCH_TARGETS]))
def test_streamed_seed_search_matches_reference(metric, d, seed, n, k, z,
                                                list_frac, block_pairs,
                                                match_targets):
    # every grid counts as sparse, and a list budget of 0 or n pairs
    # sends every guess, or all but the tiniest, to the streamed seed;
    # tiny blocks and run slices cut the streams and scans into
    # many pieces
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * 5.0
    if seed % 3 == 0:  # fold in duplicates
        pts[: n // 4] = pts[n // 4: 2 * (n // 4)]
    P = WeightedPointSet(pts, rng.integers(1, 6, n))
    with mock.patch.multiple(greedy_mod, _LIST_PAIRS_PER_CELL=FORCE_LISTS,
                             _LIST_MAX_PAIRS=list_frac * n,
                             _LIST_BLOCK_PAIRS=block_pairs), \
            mock.patch.object(grid_mod, "_MATCH_TARGETS", match_targets):
        res = charikar_greedy(P, k, z, metric, pairwise_limit=8)
    assert res.stats["list_decisions"] < res.stats["decisions"]
    _assert_same_result(
        res, charikar_greedy_reference(P, k, z, metric, pairwise_limit=8))


def _load_cdist():
    """Import ``cdist`` before a traced region: :func:`pairwise_kernel`
    imports it on its first call, and tracemalloc would count the
    import's ~11 MB as the traced code's."""
    pairwise_kernel("euclidean", np.zeros((1, 1)), np.zeros((1, 1)))


def test_streamed_seed_memory_is_bounded_on_a_sparse_d4_grid():
    # 3*10^4 points in [0, 10]^4 at guess 0.5: ~one point per cell,
    # 3*10^4 cells x 27 rows of 3 neighbour cells.  Searching every
    # cell's rows at once holds ~30 MB; the seed searches a slice of
    # cells and expands one block of pairs at a time
    rng = np.random.default_rng(0)
    P = WeightedPointSet(rng.uniform(0, 10, (30_000, 4)),
                         np.ones(30_000, dtype=np.int64))
    g = 0.5
    grid = _grid_for_guess(P.points, g + 1e-9)
    assert grid.num_cells > 25_000
    stats = _new_stats()
    _load_cdist()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with mock.patch.object(greedy_mod, "_LIST_MAX_PAIRS", 0):
            _grid_decision(P, get_metric(None), 1, g, grid, stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == {"decisions": 1, "list_decisions": 0}
    assert peak < _LIST_BLOCK_PAIRS * 64 + len(P) * 64


# ---------------------------------------------------------------------------
# Dense grids: the picks spend the cells the seed kept
# ---------------------------------------------------------------------------


def _kept_rows(grid, pts, g):
    """The candidate rows a dense-grid seed keeps at guess ``g``: the
    members of every cell's ring neighbourhood, summed over cells,
    counted by brute force over the quantized cell indices."""
    ring = grid.ring(g + 1e-9 * max(1.0, g))
    q = grid_mod.quantize(pts, grid.side)
    return sum(int(np.sum(np.abs(q - cell).max(axis=1) <= ring))
               for cell in np.unique(q, axis=0))


class _PickSpy:
    """Wraps :meth:`_GridCells._subtract_kept` (patched onto the class,
    so it binds like the method) and sorts each pick's source cells:
    ``whole`` (every member covered by this pick), ``completing`` (the
    last uncovered members, after earlier picks) or ``partial``.

    After every pick it also recomputes each gain from scratch, the
    uncovered weight within the cutoff over a full distance matrix, and
    asserts the maintained gains equal it exactly."""

    def __init__(self):
        self.kinds = Counter()
        self._kept = None

    def __get__(self, source, owner=None):
        return self if source is None else partial(self, source)

    def __call__(self, source, idx):
        grid, pts, kept = source.grid, source.pts, source.kept
        left = kept[3]
        cells, counts = np.unique(grid.point_cell[idx], return_counts=True)
        size = grid.cell_counts[cells]
        self.kinds["whole"] += int(np.sum(counts == size))
        self.kinds["completing"] += int(
            np.sum((counts == left[cells]) & (counts < size)))
        self.kinds["partial"] += int(np.sum(counts < left[cells]))
        if kept is not self._kept:  # a new decision
            self._kept, self._uncovered = kept, np.ones(len(pts), dtype=bool)
        self._uncovered[idx] = False
        _subtract_kept(source, idx)
        within = pairwise_kernel(source.metric.name, pts, pts) \
            <= source.cutoff
        np.testing.assert_array_equal(
            source.gain, within @ (source.w64 * self._uncovered))


def _layout(kind, rng, n, d):
    """Points for one of the three pick patterns at guesses near their
    optimum: ``clusters`` (tight, far apart: a pick's 3g-ball swallows
    whole cells), ``uniform`` (many overlapping 3g-balls complete cells
    over several picks) and ``spread`` (heavy tails: a few picks leave
    cells partly covered)."""
    if kind == "clusters":
        centres = rng.uniform(0, 1000, (max(2, n // 40), d))
        return centres[rng.integers(0, len(centres), n)] \
            + rng.normal(0, 0.3, (n, d))
    if kind == "uniform":
        return rng.uniform(0, 10, (n, d))
    return rng.standard_t(2, (n, d)) * 3.0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["clusters", "uniform", "spread"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 260),
    d=st.integers(1, 4),
    z=st.integers(0, 12),
    dup=st.booleans(),
    giant=st.booleans(),
    max_w=st.sampled_from([1, 2, 9]),
    metric=st.sampled_from(METRICS),
)
def test_kept_seed_search_matches_reference_and_rescans(kind, seed, n, d, z,
                                                        dup, giant, max_w,
                                                        metric):
    # every grid is dense, and tiny distance blocks chunk the rows of any
    # cell with more than 64 candidate pairs; the seed keeps its cells
    # (default row budget) or keeps nothing (budget 0, today's rescans)
    rng = np.random.default_rng(seed)
    pts = _layout(kind, rng, n, d)
    if dup:  # fold in exact duplicates
        pts[: n // 4] = pts[n // 4: 2 * (n // 4)]
    if giant:  # one blob far denser than the rest: a giant cell
        pts[n - n // 3:] = pts[0] + rng.uniform(0, 1e-4, (n // 3, d))
    P = WeightedPointSet(pts, rng.integers(1, max_w + 1, n))
    k = {"clusters": max(2, n // 40), "uniform": 12, "spread": 2}[kind]
    spy = _PickSpy()
    with mock.patch.multiple(greedy_mod, _LIST_PAIRS_PER_CELL=FORCE_BLOCKED,
                             _GRID_PAIR_CHUNK=64), \
            mock.patch.object(greedy_mod._GridCells, "_subtract_kept", spy):
        kept = charikar_greedy(P, k, z, metric, pairwise_limit=8)
        with mock.patch.object(greedy_mod, "_LIST_MAX_PAIRS", 0):
            rescanned = charikar_greedy(P, k, z, metric, pairwise_limit=8)
    assert kept.stats["list_decisions"] == 0
    _assert_same_result(kept, rescanned)
    _assert_same_result(
        kept, charikar_greedy_reference(P, k, z, metric, pairwise_limit=8))
    if kept.path == "grid":
        assert sum(spy.kinds.values()) > 0


class TestKeptSeed:
    @pytest.mark.parametrize("metric", METRICS)
    def test_picks_meet_whole_completing_and_partial_cells(self, rng,
                                                           metric):
        P = WeightedPointSet(rng.uniform(0, 10, (2000, 2)),
                             rng.integers(1, 10, 2000))
        met = get_metric(metric)
        g = 0.5
        spy = _PickSpy()
        with mock.patch.object(greedy_mod._GridCells, "_subtract_kept", spy):
            kept, _ = _decide(P, met, 30, g, FORCE_BLOCKED)
        assert spy.kinds["whole"] > 0
        assert spy.kinds["completing"] > 0
        assert spy.kinds["partial"] > 0
        with mock.patch.object(greedy_mod, "_LIST_MAX_PAIRS", 0):
            rescanned, _ = _decide(P, met, 30, g, FORCE_BLOCKED)
        _assert_same_decision(kept, rescanned)
        _assert_same_decision(kept, _geometric_decision(P, met, 30, g))

    def test_whole_cell_picks_compute_no_distance_block(self, rng):
        # six tight clusters 100+ apart: each pick's 3g-ball takes a
        # whole cluster, so every cell it touches is covered whole.  The
        # seed makes one distance block per cell; the picks add only
        # their 3g coverage queries, one call each
        centres = np.arange(6)[:, None] * np.array([150.0, 40.0])
        pts = np.repeat(centres, 300, axis=0) \
            + rng.normal(0, 0.5, (1800, 2))
        P = WeightedPointSet(pts, rng.integers(1, 10, 1800))
        met = get_metric(None)
        g = 5.0
        grid = _grid_for_guess(P.points, g + 1e-9 * g)
        calls = []

        def counted(kind, a, b):
            calls.append(len(a))
            return pairwise_kernel(kind, a, b)

        spy = _PickSpy()
        with mock.patch.object(metrics_mod, "pairwise_kernel", counted), \
                mock.patch.object(greedy_mod._GridCells, "_subtract_kept",
                                  spy):
            centers, uncovered = _decide(P, met, 6, g, FORCE_BLOCKED)[0]
        assert len(centers) == 6 and not uncovered.any()
        assert spy.kinds["whole"] == grid.num_cells
        assert spy.kinds["completing"] == spy.kinds["partial"] == 0
        assert len(calls) == grid.num_cells + len(centers)
        assert calls[grid.num_cells:] == [1] * len(centers)
        _assert_same_decision((centers, uncovered),
                              _geometric_decision(P, met, 6, g))

    def test_over_the_row_budget_the_picks_rescan(self, rng):
        # one row over the budget: the seed keeps nothing, each pick
        # rescans its cells, and the decision is the same bit for bit
        P = WeightedPointSet(rng.uniform(0, 10, (1500, 2)),
                             rng.integers(1, 10, 1500))
        met = get_metric(None)
        g = 0.8
        rows = _kept_rows(_grid_for_guess(P.points, g + 1e-9), P.points, g)
        out = {}
        for budget in (rows, rows - 1):
            spy = _PickSpy()
            with mock.patch.object(greedy_mod, "_LIST_MAX_PAIRS", budget), \
                    mock.patch.object(greedy_mod._GridCells,
                                      "_subtract_kept", spy):
                out[budget] = _decide(P, met, 12, g, FORCE_BLOCKED)[0]
            assert (sum(spy.kinds.values()) > 0) == (budget == rows)
        _assert_same_decision(out[rows], out[rows - 1])
        _assert_same_decision(out[rows], _geometric_decision(P, met, 12, g))

    def test_kept_arrays_are_bounded_by_the_row_budget(self):
        # offline-search's 2*10^4 stratified points at a guess near
        # their optimum (~17 points per cell): a budget of exactly the
        # seed's rows keeps them, 16 B per row (index and contribution)
        # over what the same decision takes when it keeps nothing
        pts = _stratified((160, 125), 0)
        P = WeightedPointSet(pts, np.ones(len(pts), dtype=np.int64))
        met = get_metric(None)
        g = 3.0
        grid = _grid_for_guess(pts, g + 1e-9 * g)
        rows = _kept_rows(grid, pts, g)
        assert rows <= 9 * len(P)
        peak, out = {}, {}
        _load_cdist()
        for budget in (rows, rows - 1):
            stats = _new_stats()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                with mock.patch.multiple(greedy_mod, _LIST_MAX_PAIRS=budget,
                                         _LIST_PAIRS_PER_CELL=FORCE_BLOCKED):
                    out[budget] = _grid_decision(P, met, 64, g, grid,
                                                 stats=stats)
                peak[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        _assert_same_decision(out[rows], out[rows - 1])
        assert 8 * rows < peak[rows] - peak[rows - 1] < 16 * rows + 16 * len(P)


# ---------------------------------------------------------------------------
# Whole radius searches
# ---------------------------------------------------------------------------


class TestSearches:
    def test_mpc_shaped_search_uses_lists(self):
        # one machine of a two-machine stratified split: the guesses
        # below the certified floor are skipped, and with 15 or more
        # outliers the floor is low enough that a probe at ~3.4 points
        # per cell is decided, on neighbour lists
        pts = _stratified((70, 30), 3)
        P = WeightedPointSet(pts, np.ones(len(pts), dtype=np.int64))
        assert len(P) == 2100
        for z in (15, 31):
            res = charikar_greedy(P, 8, z)
            assert res.path == "grid"
            assert res.stats["list_decisions"] > 0
            assert res.stats["list_decisions"] < res.stats["decisions"]
            _assert_same_result(res, charikar_greedy_reference(P, 8, z))

    def test_clustered_dense_cells_stay_blocked(self, rng):
        # five tight clusters of 600: at guesses above the cluster spread
        # each cluster is one cell of ~360k candidate pairs
        centres = rng.uniform(0, 1000, size=(5, 2))
        pts = np.repeat(centres, 600, axis=0) \
            + rng.normal(0, 0.5, size=(3000, 2))
        P = WeightedPointSet(pts, rng.integers(1, 3, 3000))
        met = get_metric(None)
        for g in (5.0, 20.0):
            grid = _grid_for_guess(P.points, g)
            assert grid.num_cells <= 20
            stats = _new_stats()
            out = _grid_decision(P, met, 5, g, grid, stats=stats)
            assert stats["list_decisions"] == 0
            _assert_same_decision(out, _geometric_decision(P, met, 5, g))

    @pytest.mark.parametrize("metric", METRICS)
    # 320 candidate pairs per cell splits every metric's decided guesses
    # between the two sources
    @pytest.mark.parametrize("per_cell", [FORCE_BLOCKED, 320, FORCE_LISTS])
    def test_search_parity_on_both_sides(self, rng, metric, per_cell):
        pts = rng.uniform(0, 20, size=(500, 3))
        pts[:60] = pts[60:120]
        P = WeightedPointSet(pts, rng.integers(1, 5, 500))
        with mock.patch.object(greedy_mod, "_LIST_PAIRS_PER_CELL", per_cell):
            res = charikar_greedy(P, 4, 12, metric, pairwise_limit=8)
        if per_cell == FORCE_BLOCKED:
            assert res.stats["list_decisions"] == 0
        else:
            assert res.stats["list_decisions"] > 0
        if per_cell == 320:
            assert res.stats["list_decisions"] < res.stats["decisions"]
        _assert_same_result(
            res, charikar_greedy_reference(P, 4, 12, metric, pairwise_limit=8))


# ---------------------------------------------------------------------------
# The shared builder
# ---------------------------------------------------------------------------


class TestNeighbourLists:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 200),
           d=st.integers(1, 4), cutoff=st.sampled_from([0.0, 0.1, 0.6, 2.0]),
           metric=st.sampled_from(METRICS),
           block_pairs=st.sampled_from([1, 50, _LIST_BLOCK_PAIRS]))
    def test_lists_are_exactly_the_within_cutoff_pairs(self, seed, n, d,
                                                      cutoff, metric,
                                                      block_pairs):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-6, 6, (n, d)) * 0.25 \
            + (rng.random((n, d)) < 0.5) * rng.normal(0, 0.3, (n, d))
        met = get_metric(metric)
        grid = _grid_for_guess(pts, cutoff)
        assume(grid is not None)
        lists = neighbour_lists(grid, pts, metric, cutoff, 10**9,
                                block_pairs=block_pairs)
        ptr, nbrs, row_of = lists
        for i in range(n):
            r = row_of[i]
            got = np.sort(nbrs[ptr[r]:ptr[r + 1]])
            want = np.flatnonzero(met.to_set(pts[i], pts) <= cutoff)
            np.testing.assert_array_equal(got, want)
        # the block size never moves a pair: same lists, same order
        whole = neighbour_lists(grid, pts, metric, cutoff, 10**9,
                                block_pairs=10**9)
        for got, want in zip(lists, whole):
            np.testing.assert_array_equal(got, want)

    def test_expansion_memory_is_bounded_by_one_block(self):
        # offline-search's absorb: 2*10^4 stratified points at its
        # absorption cutoff (eps 0.5, greedy radius ~9.18) leave ~824k
        # candidate pairs, ~290k within the cutoff
        pts = _stratified((160, 125), 0)
        cutoff = 1.5306
        grid = _grid_for_guess(pts, cutoff)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ptr, nbrs, _ = neighbour_lists(grid, pts, "euclidean", cutoff,
                                           _LIST_MAX_PAIRS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the lists, plus one block's ~56 B per candidate pair of
        # temporaries, never every candidate at once
        assert peak < len(nbrs) * 24 + _LIST_BLOCK_PAIRS * 64
        cands = sum(len(pos) for pos, _, _ in
                    grid.candidate_pairs(cutoff, _LIST_MAX_PAIRS)[1])
        assert cands > 3 * _LIST_BLOCK_PAIRS
        assert len(nbrs) == ptr[-1] < cands // 2

    def test_over_budget_returns_none(self, rng):
        pts = rng.uniform(0, 1, (100, 2))
        grid = _grid_for_guess(pts, 5.0)
        assert neighbour_lists(grid, pts, "euclidean", 5.0, 9_999) is None
        assert neighbour_lists(grid, pts, "euclidean", 5.0, 10_000) \
            is not None

    @pytest.mark.parametrize("metric", METRICS)
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(192, 700), d=st.integers(1, 4),
           delta=st.sampled_from([0.1, 0.5, 1.5]),
           seed=st.integers(0, 2**16))
    def test_absorb_through_the_builder_matches_reference(self, metric, n,
                                                          d, delta, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 2.0, (n, d))
        pts[: n // 5] = pts[n // 5: 2 * (n // 5)]
        P = WeightedPointSet(pts, rng.integers(1, 6, n))
        met = get_metric(metric)
        order = rng.permutation(n)
        built = []

        def spy(*args, **kwargs):
            out = neighbour_lists(*args, **kwargs)
            built.append(out is not None)
            return out

        with mock.patch.object(mbc_mod, "neighbour_lists", spy):
            c_a, as_a = mbc_mod._greedy_absorb(P, delta, met, order)
        assert built == [True]
        c_b, as_b = greedy_absorb_reference(P, delta, met, order)
        np.testing.assert_array_equal(c_a.points, c_b.points)
        np.testing.assert_array_equal(c_a.weights, c_b.weights)
        np.testing.assert_array_equal(as_a, as_b)
