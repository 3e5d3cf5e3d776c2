"""Tests for the scenario registry, the built-in catalogue and the
real-dataset loader."""

import numpy as np
import pytest

from repro.api import get_backend
from repro.scenarios import (
    DuplicateScenarioError,
    ScenarioInstance,
    UnknownScenarioError,
    available_scenarios,
    get_scenario,
    load_dataset,
    register_scenario,
    scenario_table,
    unregister_scenario,
)
from repro.scenarios.datasets import DatasetUnavailableError


def _nonreal_names():
    return [n for n in available_scenarios()
            if "real" not in get_scenario(n).tags]


class TestRegistry:
    def test_builtins_registered(self):
        names = available_scenarios()
        assert len(names) >= 10
        for expected in ("clustered-baseline", "concentric-drift",
                         "adversarial-insertion", "duplicate-flood",
                         "outlier-burst", "sliding-churn", "high-dim",
                         "integer-grid", "real-iris"):
            assert expected in names

    def test_round_trip(self):
        sc = get_scenario("outlier-burst")

        register_scenario("_test-sc", sc.factory, tags=("testing",),
                          description="round trip")
        try:
            got = get_scenario("_test-sc")
            assert got.name == "_test-sc"
            assert got.tags == ("testing",)
            assert got.description == "round trip"
            assert "_test-sc" in available_scenarios()
            assert "_test-sc" in available_scenarios(tag="testing")
            with pytest.raises(DuplicateScenarioError):
                register_scenario("_test-sc", sc.factory)
            register_scenario("_test-sc", sc.factory, overwrite=True)
        finally:
            unregister_scenario("_test-sc")
        assert "_test-sc" not in available_scenarios()

    def test_unknown_raises_with_listing(self):
        with pytest.raises(UnknownScenarioError) as ei:
            get_scenario("no-such-scenario")
        assert "no-such-scenario" in str(ei.value)
        assert "outlier-burst" in str(ei.value)
        with pytest.raises(UnknownScenarioError):
            unregister_scenario("no-such-scenario")

    def test_tag_filter(self):
        assert len(available_scenarios(tag="drift")) >= 2
        assert len(available_scenarios(tag="adversarial")) >= 2
        assert available_scenarios(tag="no-such-tag") == []

    def test_table_sorted_and_described(self):
        table = scenario_table()
        assert [sc.name for sc in table] == available_scenarios()
        for sc in table:
            assert sc.description, sc.name
            assert sc.tags, sc.name


class TestBuiltinInstances:
    @pytest.mark.parametrize("name", [
        n for n in ("clustered-baseline", "concentric-drift",
                    "drifting-clusters", "adversarial-insertion",
                    "adversarial-sorted", "duplicate-flood", "outlier-burst",
                    "sliding-churn", "high-dim", "integer-grid")
    ])
    def test_deterministic_and_well_formed(self, name):
        sc = get_scenario(name)
        a = sc.make(quick=True, seed=3)
        b = sc.make(quick=True, seed=3)
        c = sc.make(quick=True, seed=4)
        assert isinstance(a, ScenarioInstance)
        assert np.array_equal(a.points, b.points), "same seed must reproduce"
        assert not np.array_equal(a.points, c.points), "seed must matter"
        # batches partition the stream, in order
        assert np.array_equal(np.concatenate(a.batches), a.points)
        assert a.dim == a.spec.dim
        assert a.spec.z < a.n
        assert a.reference() > 0
        assert a.reference() == a.reference()  # cached, stable

    def test_outlier_burst_is_at_the_tail(self):
        inst = get_scenario("outlier-burst").make(quick=True, seed=0)
        z = inst.spec.z
        tail_norms = np.linalg.norm(inst.points[-z:], axis=1)
        head_norms = np.linalg.norm(inst.points[:-z], axis=1)
        assert tail_norms.min() > head_norms.max()

    def test_duplicate_flood_is_duplicate_heavy(self):
        inst = get_scenario("duplicate-flood").make(quick=True, seed=0)
        distinct = len(np.unique(inst.points, axis=0))
        assert distinct <= 3 * inst.spec.k + inst.spec.z
        assert inst.n >= 10 * distinct

    def test_adversarial_insertion_outliers_first(self):
        inst = get_scenario("adversarial-insertion").make(quick=True, seed=0)
        z = inst.spec.z
        # the Lemma 12 outliers sit on the negative first axis, before any
        # cluster point arrives
        assert (inst.points[:z, 0] < 0).all()
        assert (inst.points[z:, 0] >= 0).all()

    def test_integer_grid_enables_dynamic(self):
        inst = get_scenario("integer-grid").make(quick=True, seed=0)
        assert inst.delta_universe is not None
        assert np.array_equal(inst.points, np.round(inst.points))
        assert inst.points.min() >= 1
        assert inst.points.max() <= inst.delta_universe
        assert inst.compatible(get_backend("dynamic"))

    def test_float_streams_skip_dynamic(self):
        inst = get_scenario("clustered-baseline").make(quick=True, seed=0)
        assert not inst.compatible(get_backend("dynamic"))
        assert inst.compatible(get_backend("insertion-only"))
        assert inst.compatible(get_backend("mpc-two-round"))

    def test_sliding_window_options_derived(self):
        inst = get_scenario("sliding-churn").make(quick=True, seed=0)
        assert inst.window is not None and inst.window < inst.n
        opts = inst.session_options(get_backend("sliding-window"))
        assert opts["window"] == inst.window
        assert 0 < opts["r_min"] < opts["r_max"]
        # non-window scenarios default to full coverage
        base = get_scenario("clustered-baseline").make(quick=True, seed=0)
        assert base.session_options(get_backend("sliding-window"))["window"] \
            == base.n

    def test_quick_is_smaller_than_full(self):
        sc = get_scenario("clustered-baseline")
        assert sc.make(quick=True, seed=0).n < sc.make(quick=False, seed=0).n


class TestDatasets:
    def test_offline_without_files_is_unavailable(self, tmp_path):
        # nothing is fetched: the error names the csv to drop
        with pytest.raises(DatasetUnavailableError, match=r"iris\.csv"):
            load_dataset("iris", data_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(DatasetUnavailableError):
            load_dataset("no-such-dataset", data_dir=str(tmp_path))

    def test_user_dropped_csv_is_parsed_and_cached(self, tmp_path):
        rows = ["5.1,3.5,1.4,0.2,Iris-setosa",
                "4.9,3.0,1.4,0.2,Iris-setosa",
                "6.3,3.3,6.0,2.5,Iris-virginica",
                "",  # blank + junk lines are skipped
                "sepal,width,petal,length,label"]
        (tmp_path / "iris.csv").write_text("\n".join(rows))
        pts = load_dataset("iris", data_dir=str(tmp_path))
        assert pts.shape == (3, 4)
        assert pts[0, 0] == 5.1
        # cached as npy + provenance sidecar; reload hits the cache
        assert (tmp_path / "iris.npy").exists()
        assert (tmp_path / "iris.json").exists()
        (tmp_path / "iris.csv").unlink()
        again = load_dataset("iris", data_dir=str(tmp_path))
        assert np.array_equal(pts, again)

    def test_real_scenario_reports_unavailable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        from repro.scenarios import run_cell

        cell = run_cell("real-iris", "offline", quick=True)
        assert cell.status == "unavailable"
        assert cell.radius is None
