"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.geometry import GridHierarchy, GridLevel


class TestGridLevel:
    def test_side_and_counts(self):
        g = GridLevel(level=3, delta=100, dim=2)
        assert g.side == 8
        assert g.cells_per_axis == 13
        assert g.num_cells == 169

    def test_finest_grid_isolates_points(self):
        g = GridLevel(level=0, delta=16, dim=2)
        pts = np.array([[1, 1], [1, 2], [16, 16]])
        ids = g.cell_ids(pts)
        assert len(set(ids.tolist())) == 3

    def test_coarsest_grid_single_cell(self):
        g = GridLevel(level=4, delta=16, dim=2)
        pts = np.array([[1, 1], [16, 16]])
        assert len(set(g.cell_ids(pts).tolist())) == 1

    def test_cell_ids_in_range(self, rng):
        g = GridLevel(level=2, delta=64, dim=3)
        pts = rng.integers(1, 65, size=(50, 3))
        ids = g.cell_ids(pts)
        assert (ids >= 0).all() and (ids < g.num_cells).all()

    def test_same_cell_same_id(self):
        g = GridLevel(level=2, delta=64, dim=2)
        assert g.cell_id([1, 1]) == g.cell_id([4, 4])
        assert g.cell_id([1, 1]) != g.cell_id([5, 1])

    def test_cell_center_contains_points(self, rng):
        g = GridLevel(level=3, delta=64, dim=2)
        pts = rng.integers(1, 65, size=(30, 2))
        for p in pts:
            cid = g.cell_id(p)
            c = g.cell_center(cid)
            assert np.abs(p - c).max() <= g.side / 2.0

    def test_cell_center_roundtrip(self):
        g = GridLevel(level=1, delta=8, dim=2)
        for p in [[1, 1], [8, 8], [3, 6]]:
            cid = g.cell_id(p)
            c = g.cell_center(cid)
            # centre maps back to the same cell
            assert g.cell_id(np.clip(np.round(c), 1, 8).astype(int)) == cid

    def test_out_of_universe_rejected(self):
        g = GridLevel(level=0, delta=8, dim=1)
        with pytest.raises(ValueError):
            g.cell_ids(np.array([[0]]))
        with pytest.raises(ValueError):
            g.cell_ids(np.array([[9]]))

    def test_wrong_dim_rejected(self):
        g = GridLevel(level=0, delta=8, dim=2)
        with pytest.raises(ValueError):
            g.cell_ids(np.array([[1, 1, 1]]))

    def test_cell_id_out_of_range(self):
        g = GridLevel(level=0, delta=4, dim=1)
        with pytest.raises(ValueError):
            g.cell_center(100)

    @pytest.mark.parametrize("level,delta,dim", [(0, 8, 1), (1, 9, 2), (3, 64, 3)])
    def test_cell_centers_match_per_cell(self, level, delta, dim):
        g = GridLevel(level=level, delta=delta, dim=dim)
        ids = np.arange(g.num_cells)
        got = g.cell_centers(ids)
        assert got.shape == (g.num_cells, dim)
        for cid in ids.tolist():
            assert np.array_equal(got[cid], g.cell_center(cid))
        assert g.cell_centers([]).shape == (0, dim)

    def test_cell_centers_out_of_range(self):
        g = GridLevel(level=0, delta=4, dim=1)
        with pytest.raises(ValueError, match="cell id 4"):
            g.cell_centers([0, 4])
        with pytest.raises(ValueError, match="cell id -1"):
            g.cell_centers([-1])


class TestGridHierarchy:
    def test_num_levels(self):
        assert GridHierarchy(delta=1024, dim=2).num_levels == 11
        assert GridHierarchy(delta=1000, dim=2).num_levels == 11

    def test_level_accessor(self):
        h = GridHierarchy(delta=64, dim=2)
        assert h.level(0).side == 1
        assert h.level(6).side == 64
        with pytest.raises(ValueError):
            h.level(7)

    def test_levels_list(self):
        h = GridHierarchy(delta=16, dim=1)
        lv = h.levels()
        assert [g.level for g in lv] == list(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridHierarchy(delta=1, dim=2)
        with pytest.raises(ValueError):
            GridHierarchy(delta=8, dim=0)

    def test_finest_level_for_radius(self):
        h = GridHierarchy(delta=1024, dim=2)
        # Lemma 25: 2^j <= (eps/sqrt(d)) r < 2^{j+1}
        j = h.finest_level_for_radius(100.0, 0.5)
        lo = 2**j
        assert lo <= 0.5 * 100.0 / np.sqrt(2) < 2 * lo

    def test_finest_level_clamped(self):
        h = GridHierarchy(delta=64, dim=2)
        assert h.finest_level_for_radius(0.0, 0.5) == 0
        assert h.finest_level_for_radius(1e-9, 0.5) == 0
        assert h.finest_level_for_radius(1e9, 0.5) == h.num_levels - 1
