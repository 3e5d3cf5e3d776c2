"""Tests for Algorithm 5 (fully dynamic streaming coreset)."""

import numpy as np
import pytest

from repro.core import WeightedPointSet, charikar_greedy
from repro.streaming import DeterministicDynamicCoreset, DynamicCoreset, DynamicKCenter
from repro.workloads import integer_workload


@pytest.fixture
def dyn(rng):
    return DynamicCoreset(2, 3, 1.0, delta_universe=64, dim=2,
                          rng=np.random.default_rng(7))


class TestDynamicCoreset:
    def test_insert_only_recovers_weight(self, dyn, rng):
        pts = rng.integers(1, 65, size=(40, 2))
        for p in pts:
            dyn.insert(p)
        cs = dyn.coreset()
        assert cs.total_weight == 40

    def test_deletions_cancel(self, dyn, rng):
        pts = rng.integers(1, 65, size=(40, 2))
        for p in pts:
            dyn.insert(p)
        for p in pts:
            dyn.delete(p)
        cs = dyn.coreset()
        assert len(cs) == 0 and cs.total_weight == 0

    def test_partial_deletion(self, dyn, rng):
        pts = rng.integers(1, 65, size=(60, 2))
        for p in pts:
            dyn.insert(p)
        for p in pts[:25]:
            dyn.delete(p)
        assert dyn.coreset().total_weight == 35

    def test_relaxed_coreset_near_points(self, dyn, rng):
        """Cell-centre representatives are within the selected cell size of
        live points."""
        pts = rng.integers(1, 65, size=(30, 2))
        for p in pts:
            dyn.insert(p)
        lvl = dyn.selected_level()
        side = dyn.hier.level(lvl).side
        cs = dyn.coreset()
        from scipy.spatial.distance import cdist
        d = cdist(cs.points, pts.astype(float)).min(axis=1)
        assert d.max() <= side * np.sqrt(2) / 2 + 1e-9

    def test_finest_grid_when_sparse(self, dyn):
        for x in [(1, 1), (10, 10), (30, 30)]:
            dyn.insert(x)
        assert dyn.selected_level() == 0  # 3 cells <= s at level 0

    def test_coarser_grid_when_dense(self, rng):
        dc = DynamicCoreset(1, 0, 1.0, delta_universe=256, dim=2,
                            rng=np.random.default_rng(3), s_override=8)
        pts = rng.integers(1, 257, size=(120, 2))
        for p in pts:
            dc.insert(p)
        assert dc.selected_level() > 0

    def test_radius_quality_end_to_end(self, rng):
        wl = integer_workload(120, 2, 4, 128, 2, rng=rng)
        dc = DynamicCoreset(2, 4, 1.0, 128, 2, rng=np.random.default_rng(5))
        for p in wl.points:
            dc.insert(p)
        P = WeightedPointSet.from_points(wl.points.astype(float))
        r_full = charikar_greedy(P, 2, 4).radius
        r_core = charikar_greedy(dc.coreset(), 2, 4).radius
        # relaxed (eps,k,z)-coreset: radii within a small constant factor
        assert r_core <= 3.5 * r_full + 1e-9
        assert r_full <= 3.5 * r_core + dc.hier.level(dc.selected_level()).side * 2

    def test_no_f0_ablation_matches(self, rng):
        pts = rng.integers(1, 65, size=(30, 2))
        a = DynamicCoreset(2, 3, 1.0, 64, 2, rng=np.random.default_rng(1), use_f0=True)
        b = DynamicCoreset(2, 3, 1.0, 64, 2, rng=np.random.default_rng(1), use_f0=False)
        for p in pts:
            a.insert(p)
            b.insert(p)
        ca, cb = a.coreset(), b.coreset()
        assert ca.total_weight == cb.total_weight

    def test_storage_grows_with_delta(self):
        small = DynamicCoreset(2, 3, 1.0, 16, 1, rng=np.random.default_rng(1))
        big = DynamicCoreset(2, 3, 1.0, 4096, 1, rng=np.random.default_rng(1))
        assert big.storage_cells > small.storage_cells
        # polylog growth: far less than the universe ratio
        assert big.storage_cells / small.storage_cells < 4096 / 16

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            DynamicCoreset(1, 0, 0.0, 16, 1)

    def test_updates_counted(self, dyn):
        dyn.insert((1, 1))
        dyn.delete((1, 1))
        assert dyn.updates_seen == 2


@pytest.mark.parametrize("cls", [DynamicCoreset, DeterministicDynamicCoreset])
def test_fractional_coordinates_rejected(cls):
    """Both sketches index [Delta]^d by integers: a fractional point
    raises instead of truncating, so a delete of (3.5, 4.0) can not
    cancel the insert of (3, 4)."""
    sketch = cls(2, 1, 1.0, 16, 2)
    for bad in ([3.7, 4.2], [3.0, np.nan], [np.inf, 4.0]):
        with pytest.raises(ValueError, match="integers"):
            sketch.insert(bad)
    sketch.extend(np.array([[3, 4]]))
    with pytest.raises(ValueError, match="integers"):
        sketch.delete_many([[3.5, 4.0]])
    sketch.delete_many([[3.0, 4.0]])  # integral floats are fine
    assert sketch.updates_seen == 2
    assert sketch.coreset().total_weight == 0


class TestDynamicKCenter:
    def test_radius_zero_cases(self):
        algo = DynamicKCenter(2, 3, 1.0, 64, 2, rng=np.random.default_rng(2))
        assert algo.radius() == 0.0  # empty
        algo.insert((5, 5))
        assert algo.radius() == 0.0  # weight <= z

    def test_radius_tracks_live_set(self, rng):
        algo = DynamicKCenter(2, 2, 1.0, 128, 2, rng=np.random.default_rng(2))
        wl = integer_workload(80, 2, 2, 128, 2, rng=rng)
        for p in wl.points:
            algo.insert(p)
        r1 = algo.radius()
        assert r1 > 0
        # delete everything but ~k+z points: radius collapses
        for p in wl.points[: len(wl.points) - 4]:
            algo.delete(p)
        r2 = algo.radius()
        assert r2 <= r1 + 1e-9

    def test_centers_shape(self, rng):
        algo = DynamicKCenter(2, 2, 1.0, 64, 2, rng=np.random.default_rng(2))
        wl = integer_workload(40, 2, 2, 64, 2, rng=rng)
        for p in wl.points:
            algo.insert(p)
        c = algo.centers()
        assert c.shape[1] == 2 and 1 <= len(c) <= 2
