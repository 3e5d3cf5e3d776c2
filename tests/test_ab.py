"""Tests for ``benchmarks/ab.py``: pair order, summary and verdicts.

The summaries are built from synthetic runs through ``ab.collect`` with a
fake run function, so no benchmark process is started.  ``benchmarks/``
is a script directory, not a package, so the module is loaded by file
path.
"""

import importlib.util
import json
import os
import textwrap

import numpy as np
import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(_ROOT, "benchmarks", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

with open(os.path.join(_ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

#: one offline-search-like run's end-to-end metrics
BASE = {"setup_s": 0.5, "ingest_points_per_s": 1.0e6, "coreset_s": 1.2,
        "solve_s": 0.09, "coreset_size": 2457.0, "radius": 3.1,
        "peak_rss_mb": 120.0, "success_frac": 1.0, "extend_p50_ms": 0.0}
TIMED = ("setup_s", "ingest_points_per_s", "coreset_s", "solve_s",
         "peak_rss_mb")


def _noisy(rng, scale=None):
    """BASE with +-3% noise on the timed metrics (times ``scale``)."""
    scale = scale or {}
    return {name: value * scale.get(name, 1.0)
            * (1.0 + rng.uniform(-0.03, 0.03) if name in TIMED else 1.0)
            for name, value in BASE.items()}


def _fake_run(metrics, failed=None):
    """A run function serving ``metrics[side]`` one run at a time."""
    its = {side: iter(values) for side, values in metrics.items()}
    failed = failed or {}
    calls = []

    def run(side, workload):
        calls.append(side)
        return {"exit": 0, "correct": True, "attempted": 100,
                "failed": failed.get(side, 0), "metrics": next(its[side]),
                "runner": {"source_sha256": "abc"}, "wall_s": 1.0}

    run.calls = calls
    return run


def _summary(parent, change, pairs=10, **kw):
    runs = ab.collect(_fake_run({"parent": parent, "change": change}, **kw),
                      ["offline-search"], pairs)
    return ab.summarize(runs, BENCH)["offline-search"]


def _coreset_s(parent_values, change_values):
    def rows(values):
        return [dict(BASE, coreset_s=v) for v in values]
    return _summary(rows(parent_values), rows(change_values),
                    pairs=len(parent_values))["coreset_s"]


def test_pairs_alternate_which_side_runs_first():
    run = _fake_run({side: [BASE] * 4 for side in ab.SIDES})
    runs = ab.collect(run, ["mpc-two-round"], 4)
    assert run.calls == ["parent", "change", "change", "parent",
                         "parent", "change", "change", "parent"]
    assert [(r["pair"], r["side"], r["order"]) for r in runs] == [
        (1, "parent", 1), (1, "change", 2), (2, "change", 1),
        (2, "parent", 2), (3, "parent", 1), (3, "change", 2),
        (4, "change", 1), (4, "parent", 2)]
    assert {r["workload"] for r in runs} == {"mpc-two-round"}


def test_self_against_self_is_within_everywhere():
    rng = np.random.default_rng(0)
    runs = [_noisy(rng) for _ in range(20)]
    summary = _summary(runs[::2], runs[1::2])
    assert set(summary) == {m["name"] for m in BENCH["end_to_end"]} \
        | {"failed_share"}
    assert {name: row["verdict"] for name, row in summary.items()} == \
        dict.fromkeys(summary, "within")
    row = summary["coreset_s"]
    assert row["pairs"] == 10 and row["bound"] == 0.25
    assert row["parent_q1"] <= row["parent_median"] <= row["parent_q3"]
    assert summary["radius"]["ties"] == 10
    assert summary["radius"]["sign_p"] == 1.0


def test_a_change_half_again_slower_on_coreset_s_is_worse():
    rng = np.random.default_rng(1)
    parent = [_noisy(rng) for _ in range(10)]
    change = [_noisy(rng, {"coreset_s": 1.5}) for _ in range(10)]
    summary = _summary(parent, change)
    row = summary["coreset_s"]
    assert row["verdict"] == "worse"
    assert row["change_wins"] == 0 and row["pairs"] == 10
    assert row["sign_p"] < 0.01
    assert row["boot_ci"][0] > 0.0  # change - parent, in seconds
    assert [name for name, r in summary.items()
            if r["verdict"] != "within"] == ["coreset_s"]


def test_lower_throughput_is_worse():
    rng = np.random.default_rng(2)
    parent = [_noisy(rng) for _ in range(10)]
    change = [_noisy(rng, {"ingest_points_per_s": 0.7}) for _ in range(10)]
    assert _summary(parent, change)["ingest_points_per_s"]["verdict"] \
        == "worse"


def test_ten_wins_beyond_the_parent_iqr_is_better_eight_is_not():
    parent = [1.0 + 0.004 * i for i in range(10)]
    row = _coreset_s(parent, [0.9] * 10)
    assert (row["change_wins"], row["verdict"]) == (10, "better")
    row = _coreset_s(parent, [0.9] * 8 + [1.1] * 2)
    assert (row["change_wins"], row["verdict"]) == (8, "within")
    # fewer than ten pairs never read better, however clear
    row = _coreset_s(parent[:9], [0.9] * 9)
    assert (row["change_wins"], row["verdict"]) == (9, "within")


def test_a_gain_under_one_percent_is_not_better():
    # peak_rss_mb 96.47 -> 96.35 MB: 10/10 wins and a gap above the
    # parent's ~0.11 MB interquartile range, but 0.12% of the median
    parent = [96.36, 96.39, 96.41, 96.44, 96.46, 96.48, 96.50, 96.53,
              96.55, 96.58]
    rows = [dict(BASE, peak_rss_mb=v) for v in parent]
    row = _summary(rows, [dict(r, peak_rss_mb=r["peak_rss_mb"] - 0.12)
                          for r in rows])["peak_rss_mb"]
    assert row["parent_median"] == pytest.approx(96.47)
    assert row["change_median"] == pytest.approx(96.35)
    assert row["parent_q3"] - row["parent_q1"] == pytest.approx(0.11,
                                                                abs=0.01)
    assert (row["change_wins"], row["verdict"]) == (10, "within")
    # the same runs 2% lower read better
    row = _summary(rows, [dict(r, peak_rss_mb=0.98 * r["peak_rss_mb"])
                          for r in rows])["peak_rss_mb"]
    assert (row["change_wins"], row["verdict"]) == (10, "better")


def test_wins_inside_the_parent_iqr_are_not_better():
    parent = [1.0, 1.1] * 5
    row = _coreset_s(parent, [v - 0.01 for v in parent])
    assert (row["change_wins"], row["verdict"]) == (10, "within")


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.5, 1.5] * 5
    assert _coreset_s(parent, [1.0] * 10)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert _coreset_s(parent, [0.45] * 10)["verdict"] == "within"


def test_a_larger_failed_share_on_the_change_side_is_reported():
    runs = [BASE] * 3
    share = _summary(runs, runs, pairs=3,
                     failed={"change": 5})["failed_share"]
    assert share == {"parent": 0.0, "change": 0.05, "verdict": "worse"}
    share = _summary(runs, runs, pairs=3,
                     failed={"parent": 5})["failed_share"]
    assert share["verdict"] == "within"


def test_a_run_without_metrics_drops_its_pair():
    run = _fake_run({"parent": [BASE, {}, BASE], "change": [BASE] * 3})
    runs = ab.collect(run, ["stream-ingest"], 3)
    assert ab.summarize(runs, BENCH)["stream-ingest"]["coreset_s"]["pairs"] \
        == 2


def test_run_once_keeps_the_result_and_runner_lines(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent("""
        import json, sys
        print("workload", sys.argv[2])
        print("runner " + json.dumps({"source_sha256": "f00"}))
        print(json.dumps({"correct": True, "attempted": 3, "failed": 1,
                          "metrics": {"radius": {"value": 2.5,
                                                 "unit": "dist"}}}))
    """))
    rec = ab.run_once(str(tmp_path), "offline-search", 0, 1.0)
    assert rec["exit"] == 0 and rec["correct"] is True
    assert (rec["attempted"], rec["failed"]) == (3, 1)
    assert rec["metrics"] == {"radius": 2.5}
    assert rec["runner"] == {"source_sha256": "f00"}
    info = ab.side_info("HEAD", "c0ffee", [{**rec, "side": "change"}],
                        "change")
    assert info == {"rev": "HEAD", "commit": "c0ffee",
                    "source_sha256": "f00"}


def test_extra_runs_from_the_tree_root_and_keeps_its_last_line(tmp_path):
    (tmp_path / "marker").write_text("7")
    cmd = ("python -c \"import json; print('noise'); print(json.dumps("
           "{'marker': int(open('marker').read()), 'new_s': 1.5}))\"")
    rec = ab.run_extra(str(tmp_path), cmd)
    assert rec["exit"] == 0 and rec["correct"] is True
    assert rec["metrics"] == {"marker": 7, "new_s": 1.5}
    # a last line that is not a JSON object of numbers is no result
    for bad in ("print('done')", "print('{\\\"a\\\": \\\"x\\\"}')",
                "print('[1, 2]')", "import sys; sys.exit(3)"):
        rec = ab.run_extra(str(tmp_path), f"python -c \"{bad}\"")
        assert rec["correct"] is False and rec["metrics"] == {}


def test_extra_summary_is_report_only():
    parent = [{"new_s": 9.0 + 0.1 * i, "coreset": 7711} for i in range(5)]
    change = [{"new_s": 6.0 + 0.1 * i, "coreset": 7711} for i in range(4)] \
        + [{"new_s": 9.9, "coreset": 7711}]
    run = _fake_run({"parent": parent, "change": change})
    runs = ab.collect(run, ["scale_10m"], 5)
    assert run.calls[:4] == ["parent", "change", "change", "parent"]
    summary = ab.summarize_extra(runs)["scale_10m"]
    assert summary["new_s"] == {
        "parent_median": pytest.approx(9.2),
        "change_median": pytest.approx(6.2),
        "parent_q1": pytest.approx(9.1), "parent_q3": pytest.approx(9.3),
        "change_lower": 4, "pairs": 5, "ties": 0}
    assert summary["coreset"]["ties"] == 5
    assert summary["coreset"]["change_lower"] == 0
    assert all("verdict" not in row and "bound" not in row
               for row in summary.values())


def test_main_alternates_an_extra_between_the_trees(tmp_path, monkeypatch):
    # only the extra runs when no workload is named; the parent tree
    # holds only perfbench's runner, so a marker file tells the change's
    # root from it, and its empty src/ hashes apart from the change's
    with open(os.path.join(_ROOT, "perfbench", "run.py")) as fh:
        runner = fh.read()

    def export(rev, dest):
        os.makedirs(os.path.join(dest, "perfbench"))
        with open(os.path.join(dest, "perfbench", "run.py"), "w") as fh:
            fh.write(runner)
        return "c0ffee"

    change = tmp_path / "change"
    change.mkdir()
    (change / "ab-marker").write_text("")
    (change / "BENCHMARK.json").write_text(json.dumps(BENCH))
    export("HEAD", str(change))
    (change / "src" / "repro").mkdir(parents=True)
    (change / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.setattr(ab, "ROOT", str(change))
    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "_git", lambda *args: "f00")
    cmd = ("python -c \"import json, os; print(json.dumps("
           "{'change': int(os.path.exists('ab-marker'))}))\"")
    out = tmp_path / "ab.json"
    assert ab.main(["--pairs", "2", "--extra", f"probe={cmd}",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["extras"] == {"probe": cmd}
    assert [(r["workload"], r["side"], r["metrics"]["change"])
            for r in doc["runs"]] == [
        ("probe", "parent", 0), ("probe", "change", 1),
        ("probe", "change", 1), ("probe", "parent", 0)]
    row = doc["summary"]["probe"]["change"]
    assert (row["parent_median"], row["change_median"]) == (0.0, 1.0)
    assert set(doc["summary"]) == {"probe"}
    # no runner line: each side's hash comes from its own tree
    shas = [doc[side]["source_sha256"] for side in ("parent", "change")]
    assert None not in shas and shas[0] != shas[1]
    assert shas[1] == ab.source_sha256(str(change))


@pytest.mark.parametrize("specs", [["noequals"], ["=true"], ["name="],
                                   ["stream-ingest=true"],
                                   ["a=true", "a=false"]])
def test_malformed_extras_are_usage_errors(specs):
    with pytest.raises(SystemExit) as exc:
        ab.main([arg for spec in specs for arg in ("--extra", spec)])
    assert exc.value.code == 2
