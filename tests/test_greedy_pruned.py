"""The grid-pruned candidate scans: PointGrid correctness, the sparse
pair-distance kernel, and bit-for-bit parity of the pruned geometric
search against the frozen dense reference
(``tests/_greedy_reference.py``) on adversarial layouts.

Parity here is *identity*, not closeness: integer weights are exact in
float64 (sums are order-independent), and :func:`pair_distances`
reproduces the corresponding ``cdist`` entries bit for bit, so every
argmax pick of the pruned decision procedure must equal the dense one.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.greedy as greedy_mod
import repro.geometry.grid as grid_mod
from repro.core import WeightedPointSet, charikar_greedy
from _greedy_reference import charikar_greedy_reference
from repro.core.greedy import _grid_decision, _grid_for_guess
from repro.core.metrics import get_metric
from repro.geometry import PointGrid
from repro.kernels import pair_distances, pairwise_kernel

METRICS = ("euclidean", "chebyshev", "manhattan")


# ---------------------------------------------------------------------------
# PointGrid
# ---------------------------------------------------------------------------


class TestPointGrid:
    def test_partitions_all_points(self, rng):
        pts = rng.uniform(-5, 5, size=(200, 3))
        grid = PointGrid.build(pts, 0.7)
        assert grid is not None
        assert int(grid.cell_counts.sum()) == len(pts)
        # order is a permutation and point_cell matches the sorted layout
        assert np.array_equal(np.sort(grid.order), np.arange(len(pts)))
        for c in range(grid.num_cells):
            members = grid.order[
                grid.cell_starts[c] : grid.cell_starts[c] + grid.cell_counts[c]
            ]
            assert np.all(grid.point_cell[members] == c)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_query_point_is_a_candidate_superset(self, rng, d):
        pts = rng.uniform(-3, 3, size=(150, d))
        for dist in (0.2, 0.9, 2.5):
            grid = PointGrid.build(pts, dist * (1 + 1e-6), max_ring=1)
            assert grid is not None
            for i in (0, 7, 149):
                cand = set(grid.query_point(i, dist).tolist())
                true = np.nonzero(
                    np.linalg.norm(pts - pts[i], axis=1) <= dist
                )[0]
                assert set(true.tolist()) <= cand
                assert i in cand

    def test_ring_rule(self):
        pts = np.zeros((1, 2))
        grid = PointGrid.build(pts, 1.0, max_ring=3)
        assert grid.ring(0.0) == 1
        assert grid.ring(0.999999) == 1
        assert grid.ring(1.5) == 2
        assert grid.ring(2.999) == 3
        with pytest.raises(ValueError):
            grid.ring(3.5)

    def test_build_rejects_untrustworthy_quantization(self):
        pts = np.array([[0.0, 0.0], [1e12, 1e12]])
        assert PointGrid.build(pts, 1e-3) is None  # |cell index| >= 2^30
        assert PointGrid.build(pts, 0.0) is None
        assert PointGrid.build(pts, float("nan")) is None
        assert PointGrid.build(np.array([[np.inf, 0.0]]), 1.0) is None

    @pytest.mark.parametrize("targets", [1, 50, grid_mod._MATCH_TARGETS])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_runs_match_brute_force(self, rng, d, targets):
        # every slicing of the cells, down to one cell a slice
        pts = rng.uniform(-3, 3, size=(150, d))
        grid = PointGrid.build(pts, 0.7, max_ring=3)
        with mock.patch.object(grid_mod, "_MATCH_TARGETS", targets):
            _assert_runs(grid, pts)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_runs_borrow_into_the_padding(self, d):
        # points on the extent's first and last cells of every axis: their
        # rows start below the first code or end past the extent, in the
        # padding between the occupied rows
        corners = np.array(list(itertools.product([0.1, 4.9], repeat=d)))
        pts = np.concatenate([corners, np.full((1, d), 2.5), corners[:2]])
        grid = PointGrid.build(pts, 1.0, max_ring=3)
        assert grid.num_cells == 2**d + 1
        _assert_runs(grid, pts)


def _assert_runs(grid, pts):
    """For every cell and ring 1..3, the members of :meth:`PointGrid.runs`
    are the points whose quantized indices differ from the cell's by at
    most the ring on every axis, by cell index (axis 0 slowest), then
    point index: the ascending code order."""
    q = grid_mod.quantize(pts, grid.side)
    by_code = np.lexsort((np.arange(len(pts)),) + tuple(q.T[::-1]))
    cells = np.arange(grid.num_cells)
    for R in (1, 2, 3):
        got = [grid.order[grid_mod.ranges(lo[s], cnt[s])]
               for _, lo, cnt in grid.runs(cells, R)
               for s in range(len(lo))]
        assert len(got) == grid.num_cells
        for c in cells:
            cell = q[grid.order[grid.cell_starts[c]]]
            near = np.abs(q[by_code] - cell).max(axis=1) <= R
            assert got[c].tolist() == by_code[near].tolist()


def _true_ball(pts, i, dist):
    """Indices within Euclidean ``dist`` of point ``i`` (the tightest of
    the supported metrics' balls; cells are Chebyshev boxes, so the
    superset contract is metric-independent)."""
    return set(np.nonzero(
        np.linalg.norm(pts - pts[i], axis=1) <= dist
    )[0].tolist())


class TestGuessGrid:
    """The per-guess grid a decision builds (:func:`_grid_for_guess`)
    must contain both balls the decision queries: the ``g``-ball of the
    gains and the expanded ``3g``-ball of each pick."""

    def test_all_points_in_one_cell(self, rng):
        # a tight cluster far from the origin: above the spread there is
        # one non-empty cell, and the superset still covers the cluster
        pts = 1000.0 + rng.uniform(0, 1e-3, size=(200, 2))
        for cutoff in (0.01, 0.5, 30.0):
            grid = _grid_for_guess(pts, cutoff)
            assert grid is not None
            for i in (0, 50, 199):
                cand = set(grid.query_point(i, cutoff).tolist())
                assert _true_ball(pts, i, cutoff) <= cand
        assert _grid_for_guess(pts, 30.0).num_cells == 1

    def test_one_point_per_cell(self):
        # a spread lattice at a fine cutoff: every point is alone in its
        # cell and the candidate superset still contains each g-ball
        pts = np.array([[float(i), float(j)]
                        for i in range(16) for j in range(16)])
        grid = _grid_for_guess(pts, 0.4)
        assert grid is not None
        assert grid.num_cells == len(pts)
        for i in (0, 17, 255):
            cand = set(grid.query_point(i, 0.4).tolist())
            assert _true_ball(pts, i, 0.4) <= cand

    def test_huge_coordinates_clamp_the_side(self):
        # a cutoff too fine for the coordinates: the side is clamped so
        # the cell indices stay trusted — a coarser, still sound grid
        pts = np.array([[0.0, 0.0], [1e12, 1e12]])
        assert PointGrid.build(pts, 1e-3) is None
        grid = _grid_for_guess(pts, 1e-3)
        assert grid is not None and grid.side > 1e-3
        cand = set(grid.query_point(0, 1e-3).tolist())
        assert _true_ball(pts, 0, 1e-3) <= cand


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 120),
    d=st.integers(1, 4),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    cutoff_mult=st.floats(1e-4, 50.0),
)
def test_guess_grid_superset_property(seed, n, d, scale, cutoff_mult):
    """For any dataset and any guess cutoff, the per-guess grid's
    ``query_point`` superset contains the true ``cutoff``-ball and the
    expanded ``3 * cutoff``-ball, within the grid's ring budget."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * scale
    spread = float(np.max(np.abs(pts))) or 1.0
    cutoff = spread * 1e-4 * cutoff_mult
    grid = _grid_for_guess(pts, cutoff)
    if grid is None:  # refusing is allowed, serving corrupt cells is not
        return
    assert grid.ring(cutoff) == 1
    assert grid.ring(3.0 * cutoff) <= 3
    for i in (0, n // 2, n - 1):
        cand = set(grid.query_point(i, cutoff).tolist())
        assert _true_ball(pts, i, cutoff) <= cand
        cand3 = set(grid.query_point(i, 3.0 * cutoff).tolist())
        assert _true_ball(pts, i, 3.0 * cutoff) <= cand3


# ---------------------------------------------------------------------------
# pair_distances — the sparse kernel must bit-match cdist
# ---------------------------------------------------------------------------


class TestPairDistances:
    @pytest.mark.parametrize("kind", METRICS)
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bit_matches_cdist(self, rng, kind, d):
        pts = rng.normal(size=(60, d)) * rng.choice([1e-3, 1.0, 1e6])
        rows = rng.integers(0, 60, size=300)
        cols = rng.integers(0, 60, size=300)
        D = pairwise_kernel(kind, pts, pts)  # the cdist reference path
        got = pair_distances(kind, pts, rows, cols)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, D[rows, cols])

    @pytest.mark.parametrize("kind", METRICS)
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", ["other_rows", "fortran", "strided"])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_bit_matches_cdist_on_every_caller_layout(self, rng, kind, d,
                                                      layout, index_dtype):
        # the layouts callers pass: Algorithm 3's ``other=`` is a row
        # slice of its larger representative buffer; points may arrive
        # Fortran-ordered or as a strided view; the grid paths index
        # with int64 and may pass int32; rows come unsorted and repeated
        scale = rng.choice([1e-3, 1.0, 1e6])
        pts = rng.normal(size=(50, d)) * scale
        other = None
        if layout == "other_rows":
            buf = rng.normal(size=(90, d)) * scale
            other = buf[7:77]
        elif layout == "fortran":
            pts = np.asfortranarray(pts)
        else:
            wide = rng.normal(size=(100, 2 * d)) * scale
            pts = wide[::2, ::2]
            assert not pts.flags.c_contiguous
        m = len(pts if other is None else other)
        rows = rng.integers(0, len(pts), size=400).astype(index_dtype)
        rows[:40] = rows[0]  # a repeated row
        cols = rng.integers(0, m, size=400).astype(index_dtype)
        cols[40:80] = cols[40]
        D = pairwise_kernel(kind, pts, pts if other is None else other)
        got = pair_distances(kind, pts, rows, cols, other=other)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, D[rows, cols])
        # the grid paths' order: rows sorted, each with a run of columns
        order = np.argsort(rows, kind="stable")
        np.testing.assert_array_equal(
            pair_distances(kind, pts, rows[order], cols[order], other=other),
            D[rows[order], cols[order]])

    def test_empty_pairs(self):
        pts = np.zeros((3, 2))
        out = pair_distances(
            "euclidean", pts, np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        )
        assert out.shape == (0,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            pair_distances("cosine", np.zeros((2, 2)), [0], [1])


# ---------------------------------------------------------------------------
# Pruned-vs-dense parity on adversarial layouts
# ---------------------------------------------------------------------------


def _assert_same_result(a, b):
    assert a.radius == b.radius
    assert a.guess == b.guess
    np.testing.assert_array_equal(a.centers_idx, b.centers_idx)
    np.testing.assert_array_equal(a.uncovered, b.uncovered)


def _reference(P, k, z, metric=None, pairwise_limit=8):
    """The frozen dense reference search (no grid anywhere)."""
    return charikar_greedy_reference(P, k, z, get_metric(metric),
                                     pairwise_limit=pairwise_limit)


def _check_parity(P, k, z, metric=None, pairwise_limit=8):
    """The production search vs the frozen reference, bit for bit.

    A tiny ``pairwise_limit`` forces the geometric search where the grid
    pruning lives.
    """
    met = get_metric(metric)
    pruned = charikar_greedy(P, k, z, met, pairwise_limit=pairwise_limit)
    _assert_same_result(pruned, _reference(P, k, z, met, pairwise_limit))
    return pruned


class TestAdversarialParity:
    @pytest.mark.parametrize("metric", METRICS)
    def test_all_points_in_one_cell(self, rng, metric):
        # a tight cluster far from the origin: every radius guess above
        # the spread buckets the whole input into a single giant cell
        pts = 1000.0 + rng.uniform(0, 1e-3, size=(300, 2))
        P = WeightedPointSet(pts, rng.integers(1, 4, 300))
        _check_parity(P, 2, 5, metric)

    @pytest.mark.parametrize("metric", METRICS)
    def test_exact_cell_boundary_coordinates(self, rng, metric):
        # lattice points at exact integer multiples of plausible cell
        # sides: floor(p/side) sits on the rounding knife-edge the ring
        # slack must absorb
        lattice = rng.integers(0, 12, size=(256, 2)).astype(float)
        lattice *= rng.choice([0.25, 0.5, 1.0])
        P = WeightedPointSet(lattice, rng.integers(1, 5, 256))
        _check_parity(P, 3, 8, metric)

    @pytest.mark.parametrize("metric", METRICS)
    def test_duplicate_flood(self, rng, metric):
        # 10 distinct locations, 30 copies each: radius-0 guesses, zero
        # candidate distances and heavy per-cell multiplicity
        base = rng.uniform(0, 5, size=(10, 2))
        pts = np.repeat(base, 30, axis=0)
        P = WeightedPointSet(pts, rng.integers(1, 3, 300))
        _check_parity(P, 4, 12, metric)

    def test_duplicate_flood_radius_zero(self, rng):
        # k >= distinct locations: the optimal radius is exactly 0 and
        # decide(0.0) must succeed on the grid path
        base = rng.uniform(0, 5, size=(4, 2))
        pts = np.repeat(base, 60, axis=0)
        P = WeightedPointSet(pts, np.ones(240, dtype=np.int64))
        res = _check_parity(P, 4, 0)
        assert res.radius == 0.0

    def test_coo_and_oversized_pair_machinery(self, rng, monkeypatch):
        # a tiny pair budget makes the blocked kernel chunk the candidate
        # rows of the one oversized cell; the scans stay bit-identical
        monkeypatch.setattr(greedy_mod, "_LIST_PAIRS_PER_CELL", 0)
        monkeypatch.setattr(greedy_mod, "_GRID_PAIR_CHUNK", 64)
        pts = rng.uniform(0, 10, size=(400, 2))
        # one dense blob => one cell with >> 64 pairs (oversized)
        pts[:150] = 5.0 + rng.uniform(0, 1e-4, size=(150, 2))
        P = WeightedPointSet(pts, rng.integers(1, 6, 400))
        _check_parity(P, 3, 10)

    def test_one_dimensional_input(self, rng):
        pts = np.sort(rng.normal(size=100)).reshape(-1, 1) * 50.0
        P = WeightedPointSet(pts, rng.integers(1, 4, 100))
        _check_parity(P, 3, 6)

    def test_huge_coordinates_fall_back_dense(self, rng):
        # coordinates too large for trustworthy cell indices at small
        # guesses: the grid build refuses and the dense path answers
        pts = rng.uniform(0, 1, size=(120, 2)) * 1e14
        pts[0] = 0.0
        P = WeightedPointSet(pts, np.ones(120, dtype=np.int64))
        _check_parity(P, 3, 4)


class TestPruneKnob:
    def test_path_provenance(self, rng):
        pts = rng.uniform(0, 10, size=(300, 2))
        P = WeightedPointSet(pts, np.ones(300, dtype=np.int64))
        assert charikar_greedy(P, 3, 5).path == "pairwise"
        geo = charikar_greedy(P, 3, 5, pairwise_limit=8)
        assert geo.path in ("grid", "mixed")
        # dimension 6 is above the grid gate: the dense path answers
        high = WeightedPointSet(rng.uniform(0, 10, size=(64, 6)),
                                np.ones(64, dtype=np.int64))
        assert charikar_greedy(high, 3, 2, pairwise_limit=8).path == "dense"

    def test_high_dimension_stays_dense(self, rng):
        pts = rng.uniform(0, 10, size=(64, 6))
        P = WeightedPointSet(pts, np.ones(64, dtype=np.int64))
        assert charikar_greedy(P, 3, 2, pairwise_limit=8).path == "dense"


class TestGridDecisionDirect:
    def test_matches_dense_decision_across_guesses(self, rng):
        from _greedy_reference import geometric_decision_reference

        pts = rng.uniform(0, 8, size=(220, 2))
        P = WeightedPointSet(pts, rng.integers(1, 5, 220))
        met = get_metric(None)
        for g in (0.0, 0.1, 0.7, 3.0):
            grid = _grid_for_guess(P.points, g + 1e-9 * max(1.0, g))
            assert grid is not None
            c_a, u_a = _grid_decision(P, met, 4, g, grid)
            _, c_b, u_b = geometric_decision_reference(P, met, 4, 6, g)
            assert list(c_a) == list(c_b)
            np.testing.assert_array_equal(u_a, u_b)


# ---------------------------------------------------------------------------
# Property: pruned-vs-reference bit parity on random low-dim instances
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 220),
    d=st.integers(1, 4),
    k=st.integers(1, 6),
    z=st.integers(0, 10),
    scale=st.sampled_from([1e-3, 1.0, 1e4]),
    metric=st.sampled_from(METRICS),
)
def test_pruned_dense_bit_parity_property(seed, n, d, k, z, scale, metric):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * scale
    if n > 4 and seed % 3 == 0:  # fold in duplicates
        pts[: n // 4] = pts[n // 4 : 2 * (n // 4)]
    P = WeightedPointSet(pts, rng.integers(1, 7, n))
    met = get_metric(metric)
    pruned = charikar_greedy(P, k, z, met, pairwise_limit=8)
    _assert_same_result(pruned, _reference(P, k, z, met))
