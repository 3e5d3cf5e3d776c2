"""Diff two benchmark JSON documents by schema, not by timing.

CI regenerates the quick benchmark document on every run and compares it
against the committed reference (``BENCH_PR18.json``)::

    PYTHONPATH=src python benchmarks/run_all.py --quick --json /tmp/bench.json
    python benchmarks/check_bench_schema.py BENCH_PR18.json /tmp/bench.json

``--require id1,id2`` additionally asserts that the named entry ids are
present in the candidate document (CI pins the PR's new scaling-curve
entries so a future edit can't silently drop them).

The comparison is structural: top-level key sets, the suite name, the
ordered list of entry ids, each entry's key set, and each value's JSON
type must match.  Timings, throughputs, versions and timestamps are
expected to drift run-to-run and are deliberately NOT compared — the
check catches a bench being dropped, renamed, or silently changing its
report shape, without making CI flaky on runner speed.
"""

from __future__ import annotations

import json
import sys

def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _compatible(a, b) -> bool:
    """Whether two values agree in JSON type (null matches number: a
    bench with no reference timing reports ``old_s: null``)."""
    ta, tb = _json_type(a), _json_type(b)
    return ta == tb or {ta, tb} == {"null", "number"}


def compare(reference: dict, candidate: dict) -> "list[str]":
    """Structural differences between two bench documents (empty = OK)."""
    problems = []
    ref_keys, cand_keys = set(reference), set(candidate)
    if ref_keys != cand_keys:
        problems.append(
            f"top-level keys differ: missing={sorted(ref_keys - cand_keys)} "
            f"extra={sorted(cand_keys - ref_keys)}")
    if reference.get("suite") != candidate.get("suite"):
        problems.append(
            f"suite differs: {reference.get('suite')!r} != "
            f"{candidate.get('suite')!r}")
    ref_entries = reference.get("entries") or []
    cand_entries = candidate.get("entries") or []
    ref_ids = [e.get("id") for e in ref_entries]
    cand_ids = [e.get("id") for e in cand_entries]
    if ref_ids != cand_ids:
        problems.append(f"entry ids differ: {ref_ids} != {cand_ids}")
        return problems
    for ref, cand in zip(ref_entries, cand_entries):
        eid = ref.get("id")
        rk, ck = set(ref), set(cand)
        if rk != ck:
            problems.append(
                f"entry {eid!r}: keys differ: missing={sorted(rk - ck)} "
                f"extra={sorted(ck - rk)}")
            continue
        for key in sorted(rk):
            if not _compatible(ref[key], cand[key]):
                problems.append(
                    f"entry {eid!r}: {key!r} changed type "
                    f"{_json_type(ref[key])} -> {_json_type(cand[key])}")
        if ref.get("params") and set(ref["params"]) != set(cand["params"]):
            problems.append(
                f"entry {eid!r}: params keys differ: "
                f"{sorted(ref['params'])} != {sorted(cand['params'])}")
    return problems


def main(argv: "list[str]") -> int:
    require: "list[str]" = []
    paths: "list[str]" = []
    it = iter(argv)
    for arg in it:
        if arg == "--require":
            value = next(it, None)
            if value is None:
                print("--require needs a comma-separated id list",
                      file=sys.stderr)
                return 2
            require.extend(x for x in value.split(",") if x)
        else:
            paths.append(arg)
    if len(paths) != 2:
        print("usage: python benchmarks/check_bench_schema.py "
              "[--require id1,id2] REFERENCE.json CANDIDATE.json",
              file=sys.stderr)
        return 2
    with open(paths[0]) as fh:
        reference = json.load(fh)
    with open(paths[1]) as fh:
        candidate = json.load(fh)
    problems = compare(reference, candidate)
    cand_ids = {e.get("id") for e in candidate.get("entries") or []}
    for rid in require:
        if rid not in cand_ids:
            problems.append(f"required entry id {rid!r} missing")
    for p in problems:
        print(f"SCHEMA DIFF: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"bench schema OK: {len(reference.get('entries') or [])} entries, "
          f"suite {reference.get('suite')!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
