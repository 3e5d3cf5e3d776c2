"""Tests for ``benchmarks/check_bench_schema.py``, the bench-document schema diff.

``benchmarks/`` is a script directory, not a package, so the module is
loaded by file path.  The reference is the committed ``BENCH_PR18.json``
that CI diffs every quick run against.
"""

import copy
import importlib.util
import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "check_bench_schema",
    os.path.join(_ROOT, "benchmarks", "check_bench_schema.py"))
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

with open(os.path.join(_ROOT, "BENCH_PR18.json")) as _fh:
    REFERENCE = json.load(_fh)

REQUIRED = ("charikar_greedy_scale_100k,charikar_greedy_scale_1m,"
            "mbc_construction_scale_100k,mbc_construction_scale_1m,"
            "mbc_scale_10m")


def _run(tmp_path, candidate, *extra):
    ref, cand = tmp_path / "ref.json", tmp_path / "cand.json"
    ref.write_text(json.dumps(REFERENCE))
    cand.write_text(json.dumps(candidate))
    return check.main([*extra, str(ref), str(cand)])


def _entry(doc, eid):
    return next(e for e in doc["entries"] if e["id"] == eid)


def test_identical_documents_pass(tmp_path, capsys):
    assert _run(tmp_path, REFERENCE, "--require", REQUIRED) == 0
    assert "bench schema OK" in capsys.readouterr().out


def test_drifting_timings_and_versions_pass(tmp_path):
    cand = copy.deepcopy(REFERENCE)
    cand["timestamp"] = "2000-01-01T00:00:00+0000"
    for entry in cand["entries"]:
        entry["new_s"] *= 3.0
    assert _run(tmp_path, cand) == 0


def test_dropped_entry_fails(tmp_path, capsys):
    cand = copy.deepcopy(REFERENCE)
    cand["entries"] = [e for e in cand["entries"] if e["id"] != "serve_replay"]
    assert _run(tmp_path, cand) == 1
    assert "entry ids differ" in capsys.readouterr().err


def test_renamed_entry_fails(tmp_path, capsys):
    cand = copy.deepcopy(REFERENCE)
    _entry(cand, "mbc_scale_10m")["id"] = "mbc_scale_10m_v2"
    assert _run(tmp_path, cand) == 1
    assert "entry ids differ" in capsys.readouterr().err


@pytest.mark.parametrize("eid, key, value", [
    ("mbc_scale_10m", "peak_rss_mb", "268.7"),        # number -> string
    ("charikar_greedy_scale_1m", "path", None),       # string -> null
    ("mbc_scale_10m", "params", [1, 2]),              # object -> array
])
def test_changed_value_type_fails(tmp_path, capsys, eid, key, value):
    cand = copy.deepcopy(REFERENCE)
    _entry(cand, eid)[key] = value
    assert _run(tmp_path, cand) == 1
    assert "changed type" in capsys.readouterr().err


def test_null_for_number_passes(tmp_path):
    # an entry with no reference timing reports old_s: null
    cand = copy.deepcopy(REFERENCE)
    _entry(cand, "charikar_greedy")["old_s"] = None
    assert _run(tmp_path, cand) == 0


def test_changed_top_level_keys_fail(tmp_path, capsys):
    cand = copy.deepcopy(REFERENCE)
    cand["runner"] = "extra"
    del cand["numpy"]
    assert _run(tmp_path, cand) == 1
    err = capsys.readouterr().err
    assert "top-level keys differ" in err
    assert "'numpy'" in err and "'runner'" in err


def test_missing_required_id_fails(tmp_path, capsys):
    ref_only = copy.deepcopy(REFERENCE)
    ref_only["entries"] = [e for e in ref_only["entries"]
                           if e["id"] != "mbc_scale_10m"]
    ref, cand = tmp_path / "ref.json", tmp_path / "cand.json"
    ref.write_text(json.dumps(ref_only))
    cand.write_text(json.dumps(ref_only))
    # the two documents agree, but the pinned id is gone from both
    assert check.main(["--require", REQUIRED, str(ref), str(cand)]) == 1
    assert "required entry id 'mbc_scale_10m' missing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["only.json"], ["a", "b", "c"],
                                  ["--require"]])
def test_bad_usage_exits_2(argv):
    assert check.main(argv) == 2
