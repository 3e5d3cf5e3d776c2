"""A/B record of the working tree against a parent commit, on perfbench.

    python benchmarks/ab.py --parent HEAD --pairs 10 --out AB_PR<n>.json
    python benchmarks/ab.py --pairs 3 --seconds 8 offline-search mpc-two-round
    python benchmarks/ab.py --pairs 3 --extra scale_10m="python x.py"

The parent is extracted with ``git archive REV | tar -x`` into a
temporary directory; the change is the working tree.  For each workload
it runs ``--pairs`` pairs of ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0``, one run per side in its own tree; odd
pairs run the parent first, even pairs the change.  Each run keeps the
result line perfbench prints last and its ``runner`` line.

The record written to ``--out`` holds both sides' rev, commit and
``source_sha256`` (from the runs' ``runner`` lines, or else hashed from
the tree by its own ``perfbench/run.py`` recipe), every run, and
``summary[workload][metric]`` for each end-to-end metric: medians, the
parent's quartiles, wins, the ``repro.verify`` sign test and paired
bootstrap of change − parent, the metric's ``BENCHMARK.json`` bound and
a verdict (layout in ``docs/benchmarks.md``):

* ``better``: of at least ten pairs, the change wins >= 9/10 of the
  untied ones, and its median beats the parent's by more than the
  parent's interquartile range and by more than ``MIN_GAIN`` (1%) of
  the parent median;
* ``worse``: the change median is worse than the parent median by more
  than the bound (a fraction of the parent median);
* ``unresolved``: the parent's interquartile range is wider than the
  bound, and not every change run beats every parent run;
* ``within``: anything else.

``summary[workload]["failed_share"]`` holds each side's share of
attempted operations that failed; it reads ``worse`` when the change's
share is larger.  Verdicts are reported, not gated: the exit status is 1
only when some run exits non-zero or reports an incorrect result.

``--extra NAME=CMD`` (repeatable) adds a shell command that runs from
the root of each tree in the same alternation, after the workloads.  Its
last stdout line must be a JSON object of numbers; ``summary[NAME]``
reports each field's medians, the parent's quartiles, and the pairs in
which the change is lower (``change_lower``), with no bound and no
verdict.  With extras and no workloads named, only the extras run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
#: the smallest median gain, as a fraction of the parent median, that
#: reads ``better``: a tightly repeating metric (peak RSS) can beat the
#: parent's interquartile range by a negligible amount
MIN_GAIN = 0.01


def pair_order(pair: int) -> "tuple[str, str]":
    """The sides of pair ``pair`` (from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    """Extract ``rev`` into ``dest`` with ``git archive | tar -x``; return
    its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise RuntimeError(f"git archive {commit} | tar -x failed")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``, reduced to its record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    runner = next((json.loads(line[len("runner "):]) for line in lines
                   if line.startswith("runner ")), None)
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    result = result if isinstance(result, dict) else {}
    if proc.returncode:
        sys.stderr.write(proc.stderr[-4000:])
    return {"exit": proc.returncode, "correct": result.get("correct") is True,
            "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0),
            "metrics": {name: m["value"]
                        for name, m in result.get("metrics", {}).items()},
            "runner": runner, "wall_s": round(wall, 3)}


def run_extra(tree: str, cmd: str) -> dict:
    """One run of the shell command ``cmd`` from the root of ``tree``;
    ``metrics`` is its last stdout line, a JSON object of numbers
    (``correct`` is false when it is not)."""
    start = time.monotonic()
    proc = subprocess.run(cmd, shell=True, cwd=tree, capture_output=True,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    try:
        metrics = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        metrics = None
    numeric = isinstance(metrics, dict) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in metrics.values())
    if proc.returncode or not numeric:
        sys.stderr.write(proc.stderr[-4000:])
    return {"exit": proc.returncode,
            "correct": proc.returncode == 0 and numeric,
            "metrics": metrics if numeric else {},
            "wall_s": round(wall, 3)}


def collect(run, workloads, pairs: int) -> "list[dict]":
    """Every run in execution order; ``run(side, workload)`` makes one."""
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            for order, side in enumerate(pair_order(pair), start=1):
                entry = {"workload": workload, "pair": pair, "side": side,
                         "order": order, **run(side, workload)}
                runs.append(entry)
                print(f"{workload} pair {pair} {side}: exit {entry['exit']}, "
                      f"correct {entry['correct']}, {entry['wall_s']:.1f} s",
                      file=sys.stderr)
    return runs


def verdict(row: dict, parent, change) -> str:
    """One metric's verdict from its summary row and paired values (see
    the module doc)."""
    lower = row["better"] == "lower"
    gain = row["parent_median"] - row["change_median"]
    gain = gain if lower else -gain
    iqr = row["parent_q3"] - row["parent_q1"]
    allowed = row["bound"] * abs(row["parent_median"])
    untied = row["pairs"] - row["ties"]
    if row["pairs"] >= 10 and untied \
            and 10 * row["change_wins"] >= 9 * untied and gain > iqr \
            and gain > MIN_GAIN * abs(row["parent_median"]):
        return "better"
    if -gain > allowed:
        return "worse"
    beats_all = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    if iqr > allowed and not beats_all:
        return "unresolved"
    return "within"


def paired(runs, workload: str, field: str):
    """``(parent, change)`` arrays of ``field`` over the pairs of
    ``workload`` in which both runs reported it, or ``None``."""
    by_key = {(r["pair"], r["side"]): r["metrics"] for r in runs
              if r["workload"] == workload}
    pairs = [(by_key[p, "parent"][field], by_key[p, "change"][field])
             for p in sorted({p for p, _ in by_key})
             if all(field in by_key.get((p, side), {}) for side in SIDES)]
    if not pairs:
        return None
    return tuple(np.array(side, dtype=float) for side in zip(*pairs))


def spread(parent, change) -> dict:
    """Both medians and the parent's quartiles."""
    q1, q3 = np.quantile(parent, [0.25, 0.75])
    return {"parent_median": float(np.median(parent)),
            "change_median": float(np.median(change)),
            "parent_q1": float(q1), "parent_q3": float(q3)}


def summarize(runs, bench: dict) -> dict:
    """``summary[workload][metric]`` over the paired runs, plus each
    workload's ``failed_share``."""
    from repro.verify import paired_bootstrap, sign_test

    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = summary[workload] = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            found = paired(runs, workload, name)
            if found is None:
                continue
            parent, change = found
            diffs = change - parent
            sign = sign_test(diffs)
            mean, lo, hi, boot_p = paired_bootstrap(diffs,
                                                    key=(workload, name))
            row = rows[name] = {
                **spread(parent, change),
                "change_wins": (sign.n_neg if m["better"] == "lower"
                                else sign.n_pos),
                "pairs": len(diffs), "ties": sign.n_ties, "sign_p": sign.p,
                "boot_mean": mean, "boot_ci": [lo, hi], "boot_p": boot_p,
                "better": m["better"], "bound": m["bound"],
            }
            row["verdict"] = verdict(row, parent, change)
        share = {}
        for side in SIDES:
            mine = [r for r in runs
                    if r["workload"] == workload and r["side"] == side]
            attempted = sum(r["attempted"] for r in mine)
            share[side] = (sum(r["failed"] for r in mine) / attempted
                           if attempted else 0.0)
        share["verdict"] = ("worse" if share["change"] > share["parent"]
                            else "within")
        rows["failed_share"] = share
    return summary


def summarize_extra(runs) -> dict:
    """``summary[name][field]`` for the ``--extra`` runs: medians, the
    parent's quartiles and the pairs in which the change is lower,
    reported without a bound or a verdict."""
    summary = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        rows = summary[name] = {}
        for field in dict.fromkeys(f for r in runs if r["workload"] == name
                                   for f in r["metrics"]):
            found = paired(runs, name, field)
            if found is None:
                continue
            parent, change = found
            rows[field] = {**spread(parent, change),
                           "change_lower": int((change < parent).sum()),
                           "pairs": len(parent),
                           "ties": int((change == parent).sum())}
    return summary


def source_sha256(tree: str) -> "str | None":
    """The ``source_sha256`` of ``tree``'s ``src/``, by the fingerprint of
    the tree's own ``perfbench/run.py`` (the one its runner lines print);
    ``None`` when the tree has no such file."""
    path = os.path.join(tree, "perfbench", "run.py")
    if not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.fingerprint({})["source_sha256"]


def side_info(rev: str, commit: "str | None", runs, side: str,
              tree_sha256: "str | None" = None) -> dict:
    """Rev, commit and the ``source_sha256`` every run of ``side``
    reported (null unless they all agree), or ``tree_sha256`` when no run
    reported one (extras print no runner line)."""
    shas = {r["runner"]["source_sha256"] for r in runs
            if r["side"] == side and r.get("runner")}
    sha = (shas.pop() if len(shas) == 1 else None) if shas else tree_sha256
    return {"rev": rev, "commit": commit, "source_sha256": sha}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(prog="python benchmarks/ab.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"workloads to run (default: all of {names})")
    ap.add_argument("--parent", default="HEAD", help="rev to compare with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="ab.json", metavar="PATH")
    ap.add_argument("--extra", action="append", default=[],
                    metavar="NAME=CMD",
                    help="also run shell command CMD from each tree's "
                         "root; its last stdout line is a JSON object "
                         "of numbers (repeatable)")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {names}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    extras = dict(spec.partition("=")[::2] for spec in args.extra)
    if any(not name or not cmd for name, cmd in extras.items()) \
            or len(extras) < len(args.extra) or set(extras) & set(names):
        ap.error("--extra takes NAME=CMD, with distinct names that are "
                 "not workloads")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workloads = args.workloads or ([] if extras else names)
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree:
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = collect(lambda side, workload: run_once(
            trees[side], workload, args.seed, args.seconds),
            workloads, args.pairs)
        extra_runs = collect(lambda side, name: run_extra(
            trees[side], extras[name]), extras, args.pairs)
        hashes = {side: source_sha256(tree) for side, tree in trees.items()}
    summary = {**summarize(runs, bench), **summarize_extra(extra_runs)}
    runs += extra_runs
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds:g} --trace 0",
        "extras": extras,
        "pairs": args.pairs,
        "parent": side_info(args.parent, commit, runs, "parent",
                            hashes["parent"]),
        "change": side_info("working tree", _git("rev-parse", "HEAD"),
                            runs, "change", hashes["change"]),
        "runs": runs,
        "summary": summary,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    for workload, rows in summary.items():
        for name, row in rows.items():
            parent, change = (row.get(f"{side}_median", row.get(side))
                              for side in SIDES)
            wins = (f"wins {row['change_wins']}/{row['pairs'] - row['ties']}"
                    if "change_wins" in row else
                    f"lower {row['change_lower']}/{row['pairs']}"
                    if "pairs" in row else "")
            print(f"{workload:<15} {name:<20} {parent:>12.6g} "
                  f"{change:>12.6g} {wins:<11} {row.get('verdict', '')}")
    print(f"wrote {args.out}")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
