"""Tests for the cross-backend evaluation matrix and its CLI."""

import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.scenarios import get_scenario, replicate_seeds, run_cell, run_matrix
from repro.scenarios.matrix import (
    DEFAULT_BACKENDS,
    default_scenario_names,
    resolve_scenario_names,
)
from repro.scenarios.registry import UnknownScenarioError

SMOKE_SCENARIOS = ["clustered-baseline", "outlier-burst", "duplicate-flood"]
SMOKE_BACKENDS = ["offline", "insertion-only"]

CELL_KEYS = {
    "scenario", "backend", "status", "radius", "reference_radius",
    "radius_ratio", "coreset_size", "peak_storage", "updates",
    "wall_time", "note", "seed", "replicate",
}


@pytest.fixture(scope="module")
def smoke():
    """The 2-backends x 3-scenarios smoke matrix (computed once)."""
    return run_matrix(SMOKE_SCENARIOS, SMOKE_BACKENDS, quick=True, seed=0)


class TestMatrix:
    def test_smoke_all_ok(self, smoke):
        assert len(smoke.cells) == 6
        for cell in smoke.cells:
            assert cell.status == "ok", (cell.scenario, cell.backend, cell.note)
            assert cell.radius >= 0
            assert cell.reference_radius > 0
            assert 0 <= cell.radius_ratio < 10
            assert cell.coreset_size > 0
            assert cell.peak_storage >= 1
            inst = get_scenario(cell.scenario).make(quick=True, seed=0)
            assert cell.updates == inst.n
            assert cell.wall_time >= 0

    def test_sweep_order_and_lookup(self, smoke):
        assert smoke.scenarios == SMOKE_SCENARIOS
        assert smoke.backends == SMOKE_BACKENDS
        pairs = [(c.scenario, c.backend) for c in smoke.cells]
        assert pairs == [(s, b) for s in SMOKE_SCENARIOS for b in SMOKE_BACKENDS]
        assert smoke.cell("outlier-burst", "offline").scenario == "outlier-burst"
        assert smoke.cell("outlier-burst", "no-such") is None

    def test_json_schema(self, smoke):
        doc = smoke.to_json_dict()
        assert doc["suite"] == "scenario-matrix"
        assert doc["quick"] is True and doc["seed"] == 0
        assert doc["scenarios"] == SMOKE_SCENARIOS
        assert doc["backends"] == SMOKE_BACKENDS
        assert {"version", "generated_at", "cells"} <= set(doc)
        assert len(doc["cells"]) == 6
        for cell in doc["cells"]:
            assert set(cell) == CELL_KEYS
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_markdown(self, smoke):
        md = smoke.to_markdown()
        assert "Radius ratio vs reference" in md
        assert "### Full matrix" in md
        for name in SMOKE_SCENARIOS + SMOKE_BACKENDS:
            assert name in md

    def test_incompatible_cell_is_skipped(self):
        cell = run_cell("clustered-baseline", "dynamic", quick=True)
        assert cell.status == "skipped"
        assert cell.radius is None
        assert "incompatible" in cell.note

    def test_dynamic_runs_on_integer_grid(self):
        cell = run_cell("integer-grid", "dynamic", quick=True)
        assert cell.status == "ok", cell.note
        assert cell.radius_ratio < 3

    def test_unknown_names_raise_before_work(self):
        with pytest.raises(UnknownScenarioError):
            run_matrix(["no-such-scenario"], SMOKE_BACKENDS, quick=True)
        with pytest.raises(KeyError):
            run_matrix(SMOKE_SCENARIOS[:1], ["no-such-backend"], quick=True)

    def test_defaults_meet_the_acceptance_floor(self):
        assert len(default_scenario_names()) >= 5
        assert len(DEFAULT_BACKENDS) >= 3
        for name in default_scenario_names():
            assert "real" not in get_scenario(name).tags

    def test_cells_cached_and_reused(self, tmp_path):
        first = run_matrix(SMOKE_SCENARIOS[:1], SMOKE_BACKENDS, quick=True,
                           cache_root=str(tmp_path))
        assert list(tmp_path.glob("matrix-cell-*.pkl"))
        # the scenario reference is cached once, shared by all its cells
        assert len(list(tmp_path.glob("matrix-ref-*.pkl"))) == 1
        again = run_matrix(SMOKE_SCENARIOS[:1], SMOKE_BACKENDS, quick=True,
                           cache_root=str(tmp_path))
        assert again.cells == first.cells
        forced = run_matrix(SMOKE_SCENARIOS[:1], SMOKE_BACKENDS, quick=True,
                            cache_root=str(tmp_path), force=True)
        assert [c.scenario for c in forced.cells] == \
            [c.scenario for c in first.cells]

    def test_transient_failures_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "data"))
        result = run_matrix(["real-iris"], ["offline"], quick=True,
                            cache_root=str(tmp_path))
        assert result.cells[0].status == "unavailable"
        assert not list(tmp_path.glob("matrix-cell-*.pkl"))

    def test_stale_cache_schema_is_a_miss(self, tmp_path):
        from repro.engine import ResultsCache

        cache = ResultsCache(str(tmp_path))
        params = {"scenario": SMOKE_SCENARIOS[0], "backend": "offline",
                  "quick": True, "seed": 0}
        cache.put("matrix-cell", params,
                  {"status": "ok", "some_old_field": 1})
        result = run_matrix(SMOKE_SCENARIOS[:1], ["offline"], quick=True,
                            cache_root=str(tmp_path))
        assert result.cells[0].status == "ok"
        assert result.cells[0].radius is not None

    def test_precomputed_reference_is_used(self):
        cell = run_cell("clustered-baseline", "offline", quick=True,
                        reference=123.0)
        assert cell.reference_radius == 123.0


class TestCacheKeyResolution:
    def test_cache_params_include_full_spec_and_options(self):
        from repro.api import get_backend
        from repro.scenarios import cell_cache_params

        inst = get_scenario("clustered-baseline").make(quick=True, seed=0)
        info = get_backend("insertion-only")
        params = cell_cache_params("clustered-baseline", "insertion-only",
                                   True, 0, inst.spec,
                                   inst.session_options(info))
        assert params["spec"] == inst.spec.as_dict()
        assert "options" in params

    def test_unavailable_dataset_serves_last_known_good_cell(self, tmp_path):
        from repro.scenarios import register_scenario, unregister_scenario
        from repro.scenarios.datasets import DatasetUnavailableError

        base_factory = get_scenario("clustered-baseline").factory
        down = {"flag": False}

        def factory(quick=False, seed=0):
            if down["flag"]:
                raise DatasetUnavailableError("dataset offline")
            return base_factory(quick=quick, seed=seed)

        register_scenario("_lkg-sc", factory, tags=("real", "testing"))
        try:
            first = run_matrix(["_lkg-sc"], ["offline"], quick=True,
                               cache_root=str(tmp_path))
            assert first.cells[0].status == "ok"
            down["flag"] = True
            # simulate a fresh process: the per-process instance memo
            # would otherwise keep serving the materialized dataset
            from repro.scenarios.matrix import _INSTANCES
            _INSTANCES.clear()
            # the dataset going away must not lose the cached ok cell
            again = run_matrix(["_lkg-sc"], ["offline"], quick=True,
                               cache_root=str(tmp_path))
            assert again.cells[0].status == "ok"
            assert again.cells[0].radius == first.cells[0].radius
            # without a cache the honest status comes back
            cold = run_matrix(["_lkg-sc"], ["offline"], quick=True)
            assert cold.cells[0].status == "unavailable"
        finally:
            unregister_scenario("_lkg-sc")

    def test_backend_options_are_part_of_the_key(self):
        from repro.api import get_backend
        from repro.engine import ResultsCache
        from repro.scenarios import cell_cache_params

        inst = get_scenario("clustered-baseline").make(quick=True, seed=0)
        info = get_backend("sliding-window")
        opts = inst.session_options(info)
        a = cell_cache_params("clustered-baseline", "sliding-window", True, 0,
                              inst.spec, opts)
        b = cell_cache_params("clustered-baseline", "sliding-window", True, 0,
                              inst.spec, {**opts, "window": 17})
        assert ResultsCache.key("matrix-cell", a) != \
            ResultsCache.key("matrix-cell", b)


class TestCheckpointResume:
    SCENARIOS = ["clustered-baseline", "outlier-burst"]
    BACKENDS = ["insertion-only", "sliding-window"]

    def _strip_wall(self, cells):
        return [{k: v for k, v in c.__dict__.items() if k != "wall_time"}
                for c in cells]

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path,
                                                   monkeypatch):
        import repro.scenarios.matrix as matrix_mod

        base = run_matrix(self.SCENARIOS, self.BACKENDS, quick=True, seed=0)
        ckpt_dir = str(tmp_path / "ckpts")

        monkeypatch.setenv("REPRO_MATRIX_KILL_AFTER", "5")
        monkeypatch.setattr(matrix_mod, "_ckpt_writes", 0)
        with pytest.raises(SystemExit, match="simulated kill"):
            run_matrix(self.SCENARIOS, self.BACKENDS, quick=True, seed=0,
                       checkpoint_dir=ckpt_dir)
        # the killed sweep left a mid-stream checkpoint behind
        leftover = list((tmp_path / "ckpts").glob("matrix-ckpt-*.ckpt"))
        assert leftover

        monkeypatch.delenv("REPRO_MATRIX_KILL_AFTER")
        resumed = run_matrix(self.SCENARIOS, self.BACKENDS, quick=True,
                             seed=0, checkpoint_dir=ckpt_dir)
        # bit-identical to the uninterrupted sweep (wall time is the only
        # run-dependent provenance)
        assert self._strip_wall(resumed.cells) == self._strip_wall(base.cells)
        # completed cells removed their checkpoints
        assert not list((tmp_path / "ckpts").glob("*.ckpt"))

    def test_checkpoints_removed_after_clean_run(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        result = run_matrix(["clustered-baseline"], ["insertion-only"],
                            quick=True, seed=0, checkpoint_dir=ckpt_dir)
        assert result.cells[0].status == "ok"
        assert not list((tmp_path / "ckpts").glob("*.ckpt"))

    def test_buffered_backends_thin_their_checkpoint_cadence(
        self, tmp_path, monkeypatch
    ):
        import repro.scenarios.matrix as matrix_mod
        from repro.scenarios.matrix import run_cell as run_cell_fn

        n_batches = len(get_scenario("clustered-baseline")
                        .make(quick=True, seed=0).batches)
        monkeypatch.delenv("REPRO_MATRIX_KILL_AFTER", raising=False)

        def writes_for(backend):
            monkeypatch.setattr(matrix_mod, "_ckpt_writes", 0)
            cell = run_cell_fn("clustered-baseline", backend, quick=True,
                               seed=0, checkpoint_dir=str(tmp_path / backend))
            assert cell.status == "ok"
            return matrix_mod._ckpt_writes

        # streaming backends checkpoint every batch; buffered backends
        # (whole-prefix snapshots) use the power-of-two cadence
        assert writes_for("insertion-only") == n_batches
        if n_batches > 2:
            assert writes_for("offline") < n_batches

    def test_stale_checkpoint_from_other_cell_is_ignored(self, tmp_path):
        from repro.scenarios.matrix import run_cell as run_cell_fn

        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        # unreadable garbage under a name the cell will probe
        baseline = run_cell_fn("clustered-baseline", "insertion-only",
                               quick=True, seed=0)
        for name in ("matrix-ckpt-deadbeef0000.ckpt",):
            (ckpt_dir / name).write_bytes(b"garbage")
        cell = run_cell_fn("clustered-baseline", "insertion-only", quick=True,
                           seed=0, checkpoint_dir=str(ckpt_dir))
        assert cell.status == "ok"
        assert cell.radius == baseline.radius


class TestScenarioSelection:
    def test_names_pass_through(self):
        assert resolve_scenario_names(["outlier-burst"]) == ["outlier-burst"]

    def test_tags_expand(self):
        drift = resolve_scenario_names(["drift"])
        assert len(drift) >= 2
        mixed = resolve_scenario_names(["drift", "adversarial"])
        assert set(drift) < set(mixed)

    def test_all_and_dedup(self):
        everything = resolve_scenario_names(["all", "outlier-burst"])
        assert everything.count("outlier-burst") == 1
        assert len(everything) >= 10

    def test_unknown_token(self):
        with pytest.raises(UnknownScenarioError) as ei:
            resolve_scenario_names(["no-such-token"])
        assert "tags" in str(ei.value)


class TestCLI:
    def test_matrix_subcommand_writes_outputs(self, tmp_path, capsys):
        rc = experiments_main([
            "matrix", "--quick", "--no-cache",
            "--scenarios", "outlier-burst,duplicate-flood",
            "--backends", "offline,insertion-only",
            "--results-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Radius ratio vs reference" in out
        doc = json.loads((tmp_path / "matrix.json").read_text())
        assert doc["suite"] == "scenario-matrix"
        assert len(doc["cells"]) == 4
        assert "outlier-burst" in (tmp_path / "matrix.md").read_text()

    def test_matrix_tag_selection(self, tmp_path, capsys):
        rc = experiments_main([
            "matrix", "--quick", "--no-cache", "--scenarios", "adversarial",
            "--backends", "offline", "--results-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adversarial-insertion" in out
        assert "adversarial-sorted" in out

    def test_matrix_list(self, capsys):
        rc = experiments_main(["matrix", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outlier-burst" in out and "adversarial" in out

    def test_matrix_unknown_scenario_exits_2(self, capsys):
        rc = experiments_main(["matrix", "--scenarios", "nope"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_matrix_unknown_backend_exits_2(self, capsys):
        rc = experiments_main(["matrix", "--backends", "nope"])
        assert rc == 2
        assert "unknown backend" in capsys.readouterr().out

    def test_matrix_bad_jobs_exits_2(self, capsys):
        assert experiments_main(["matrix", "--jobs", "0"]) == 2

    def test_matrix_checkpoint_dir_flag(self, tmp_path, capsys):
        rc = experiments_main([
            "matrix", "--quick", "--no-cache",
            "--scenarios", "outlier-burst", "--backends", "offline",
            "--results-dir", str(tmp_path),
            "--checkpoint-dir", str(tmp_path / "ckpts"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "matrix.json").read_text())
        assert doc["cells"][0]["status"] == "ok"
        # the clean run leaves no checkpoints behind
        assert not list((tmp_path / "ckpts").glob("*.ckpt"))

    def test_matrix_empty_selection_exits_2(self, capsys):
        assert experiments_main(["matrix", "--backends", ","]) == 2
        assert "selected nothing" in capsys.readouterr().out

    def test_instance_memo_reuses_materializations(self):
        from repro.scenarios.matrix import _INSTANCES, _scenario_instance

        a = _scenario_instance("clustered-baseline", True, 0)
        b = _scenario_instance("clustered-baseline", True, 0)
        assert a is b
        assert ("clustered-baseline", True, 0) in _INSTANCES

    def test_reregistration_invalidates_reference_memo(self):
        from repro.scenarios import register_scenario, unregister_scenario
        from repro.scenarios.matrix import _REFERENCES, _scenario_reference

        factory = get_scenario("outlier-burst").factory
        register_scenario("_memo-sc", factory, tags=("testing",))
        try:
            ref = _scenario_reference("_memo-sc", True, 0, None, False)
            assert ("_memo-sc", True, 0) in _REFERENCES
            register_scenario("_memo-sc", factory, overwrite=True)
            assert ("_memo-sc", True, 0) not in _REFERENCES
            assert _scenario_reference("_memo-sc", True, 0, None, False) == ref
        finally:
            unregister_scenario("_memo-sc")
        assert ("_memo-sc", True, 0) not in _REFERENCES

    def test_legacy_cli_still_dispatches(self, capsys):
        rc = experiments_main(["--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E1" in out


def _normalized_doc(result):
    """A replicated sweep's JSON doc with the run-dependent parts
    (timestamps, wall times and their aggregates) stripped — the same
    normalization the CI byte-parity steps apply."""
    doc = result.to_json_dict()
    doc.pop("generated_at", None)
    for cell in doc["cells"]:
        cell.pop("wall_time", None)
    if "summary" in doc:
        doc["summary"] = [r for r in doc["summary"]
                          if r["metric"] != "wall_time"]
    if "significance" in doc:
        doc["significance"]["metrics"].pop("wall_time", None)
    return json.dumps(doc, sort_keys=True, indent=2)


class TestReplicates:
    SCENARIOS = ["clustered-baseline", "outlier-burst"]
    BACKENDS = ["offline", "insertion-only"]

    @pytest.fixture(scope="class")
    def replicated(self):
        """The 2x2x3-replicate sweep (computed once)."""
        return run_matrix(self.SCENARIOS, self.BACKENDS, quick=True, seed=0,
                          replicates=3)

    def test_replicate_seeds_spawn_discipline(self):
        # one replicate keeps the root seed (plain sweeps stay
        # byte-identical); widening N never changes earlier seeds
        assert replicate_seeds(7, 1) == [7]
        assert replicate_seeds(0, 5)[:3] == replicate_seeds(0, 3)
        assert len(set(replicate_seeds(0, 5))) == 5
        with pytest.raises(ValueError):
            replicate_seeds(0, 0)

    def test_replicated_sweep_shape(self, replicated):
        assert len(replicated.cells) == 2 * 2 * 3
        seeds = replicate_seeds(0, 3)
        for s in self.SCENARIOS:
            for b in self.BACKENDS:
                reps = replicated.replicate_cells(s, b)
                assert [c.replicate for c in reps] == [0, 1, 2]
                assert [c.seed for c in reps] == seeds
                assert all(c.status == "ok" for c in reps)

    def test_json_doc_carries_summary_and_significance(self, replicated):
        doc = replicated.to_json_dict()
        assert doc["replicates"] == 3
        assert {"summary", "significance"} <= set(doc)
        json.dumps(doc)  # JSON-serializable as-is
        for row in doc["summary"]:
            assert row["n"] == 3
            assert row["ci_lo"] <= row["mean"] <= row["ci_hi"]
        sig = doc["significance"]
        assert sig["alpha"] == 0.05
        for comparisons in sig["metrics"].values():
            for c in comparisons:
                assert c["n_pairs"] == 6  # 2 scenarios x 3 replicates

    def test_single_sweep_doc_has_no_aggregates(self, smoke):
        doc = smoke.to_json_dict()
        assert doc["replicates"] == 1
        assert "summary" not in doc and "significance" not in doc

    def test_replicated_markdown(self, replicated):
        md = replicated.to_markdown()
        assert "over 3 replicates" in md
        assert "### Statistical summary" in md
        assert "### Pairwise significance" in md
        # the pivot shows mean [lo, hi], not a bare point estimate
        first_pivot_row = md.split("\n")[4]
        assert "[" in first_pivot_row and "]" in first_pivot_row

    def test_jobs_parity_is_byte_identical(self, replicated):
        threaded = run_matrix(self.SCENARIOS, self.BACKENDS, quick=True,
                              seed=0, replicates=3, executor="thread", jobs=2)
        assert _normalized_doc(threaded) == _normalized_doc(replicated)

    def test_replicate_cells_hit_the_cache(self, tmp_path):
        first = run_matrix(self.SCENARIOS[:1], self.BACKENDS[:1], quick=True,
                           seed=0, replicates=3, cache_root=str(tmp_path))
        n_entries = len(list(tmp_path.glob("matrix-cell-*.pkl")))
        assert n_entries == 3  # one cached cell per replicate
        again = run_matrix(self.SCENARIOS[:1], self.BACKENDS[:1], quick=True,
                           seed=0, replicates=3, cache_root=str(tmp_path))
        assert again.cells == first.cells
        assert len(list(tmp_path.glob("matrix-cell-*.pkl"))) == n_entries

    def test_replicated_kill_and_resume_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        import repro.scenarios.matrix as matrix_mod

        base = run_matrix(self.SCENARIOS[:1], self.BACKENDS, quick=True,
                          seed=0, replicates=2)
        ckpt_dir = str(tmp_path / "ckpts")
        monkeypatch.setenv("REPRO_MATRIX_KILL_AFTER", "5")
        monkeypatch.setattr(matrix_mod, "_ckpt_writes", 0)
        with pytest.raises(SystemExit, match="simulated kill"):
            run_matrix(self.SCENARIOS[:1], self.BACKENDS, quick=True, seed=0,
                       replicates=2, checkpoint_dir=ckpt_dir)
        monkeypatch.delenv("REPRO_MATRIX_KILL_AFTER")
        resumed = run_matrix(self.SCENARIOS[:1], self.BACKENDS, quick=True,
                             seed=0, replicates=2, checkpoint_dir=ckpt_dir)
        assert _normalized_doc(resumed) == _normalized_doc(base)
        assert not list((tmp_path / "ckpts").glob("*.ckpt"))


class TestReplicatesCLI:
    def test_replicated_sweep_writes_aggregated_outputs(self, tmp_path,
                                                        capsys):
        rc = experiments_main([
            "matrix", "--quick", "--no-cache", "--seed", "0",
            "--scenarios", "outlier-burst,duplicate-flood",
            "--backends", "offline,insertion-only",
            "--replicates", "2", "--results-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "Pairwise significance" in capsys.readouterr().out
        doc = json.loads((tmp_path / "matrix.json").read_text())
        assert doc["replicates"] == 2
        assert len(doc["cells"]) == 2 * 2 * 2
        assert {"summary", "significance"} <= set(doc)
        assert "Statistical summary" in (tmp_path / "matrix.md").read_text()

    def test_bad_replicates_exits_2(self, capsys):
        assert experiments_main(["matrix", "--replicates", "0"]) == 2
        assert "--replicates" in capsys.readouterr().out

    def test_bad_alpha_exits_2(self, capsys):
        assert experiments_main(["matrix", "--alpha", "1.5"]) == 2
        assert "--alpha" in capsys.readouterr().out
