"""Benchmark entry point: one workload, checked, every metric printed.

    python3 perfbench/run.py --workload stream-ingest --seed 0 \
        --seconds 20 --trace 0

Run from the root of a source checkout (no install needed).  The
workloads, metrics and bounds are declared in ``BENCHMARK.json``; what
each measures is in ``perfbench/README.md``.

``--trace 0`` runs the workload once, untraced, in a fresh process and
prints every end-to-end metric.  ``--trace 1`` runs it twice for half the
time each, untraced and then with every layer's entry points wrapped by
``perfbench/tracer.py``; it prints the span tree with self times and
every per-layer metric, including the tracing overhead (traced against
untraced time) and the share of wall time no layer span covers.

Before the metrics the report shows the runner fingerprint and every
output check.  The last stdout line is the JSON result.  The exit status
is non-zero when a check fails, and when the checkout holds no
``src/repro`` package to measure.  Full records are kept under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

#: the whole invocation must end well inside three minutes
DEADLINE_S = 170.0

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fingerprint(versions: dict) -> dict:
    """CPU, cores and affinity, BLAS threads, versions, source commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        **versions,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              tmp: str, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process group; return its record."""
    tag = "traced" if traced else "plain"
    out = os.path.join(tmp, f"{tag}.json")
    child_tmp = os.path.join(tmp, tag)
    os.makedirs(child_tmp)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out, "--tmp", child_tmp]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, REPRO_DATA_DIR=os.path.join(child_tmp, "data"))
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} ({tag}) ran past the deadline")
    finally:
        try:  # the server a serve child started shares its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"{workload} ({tag}) exited with status {code}")
    with open(out) as fh:
        return json.load(fh)


def end_to_end(res: dict) -> dict:
    return {**res["e2e"], "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer figures of a traced run (per pass for the library
    workloads, per run for serve-mixed)."""
    sys.path.insert(0, HERE)
    import tracer

    root = tracer.Node.from_dict(traced["tree"])
    spans = tracer.by_name(root)
    passes = traced["passes"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_pass(*names, key="total"):
        return sum(get(n, key) for n in names) / passes

    extras = traced["extras"]
    out = {
        "api.extend_s": per_pass("api.extend"),
        "store.read_s": per_pass("store.read"),
        "store.chunks": per_pass("store.read", key="calls"),
        "streaming.extend_s": per_pass("streaming.extend",
                                       "streaming.window_extend"),
        "streaming.scalar_inserts": per_pass("streaming.insert", key="calls"),
        "streaming.scalar_frac": (get("streaming.insert", "calls")
                                  / max(get("streaming.extend", "work"), 1)),
        "streaming.doublings": per_pass("core.mbc.recompress", key="calls"),
        "kernels.pairwise_calls": per_pass("kernels.pairwise", "kernels.pairs",
                                           key="calls"),
        "kernels.pairwise_s": per_pass("kernels.pairwise", "kernels.pairs"),
        "kernels.pairs": per_pass("kernels.pairwise", "kernels.pairs",
                                  key="work"),
        "core.mbc.recompress_calls": per_pass("core.mbc.recompress",
                                              key="calls"),
        "core.mbc.recompress_s": per_pass("core.mbc.recompress"),
        "core.mbc.absorb_s": (
            get("core.mbc.recompress", "total")
            + tracer.total_without(root, "core.mbc.construct",
                                   "core.greedy.search")) / passes,
        "core.greedy.calls": per_pass("core.greedy.search", key="calls"),
        "core.greedy.search_s": per_pass("core.greedy.search"),
        "core.greedy.decisions": per_pass("core.greedy.decision", key="calls"),
        "core.greedy.gonzalez_s": per_pass("core.greedy.gonzalez"),
        "geometry.grid_build_s": per_pass("geometry.grid_build"),
        "geometry.grid_builds": per_pass("geometry.grid_build", key="calls"),
        "mpc.round1_s": per_pass("mpc.round:radius_vector_task"),
        "mpc.round2_s": per_pass("mpc.round:mbc_task"),
        "mpc.compress_s": per_pass("mpc.compress"),
        "engine.map_s": per_pass("engine.map"),
        "engine.task_s": per_pass("engine.task"),
        "sketches.extend_s": per_pass("sketches.extend"),
        "sketches.delete_s": per_pass("sketches.delete"),
    }
    jobs = extras.get("engine.jobs", 1)
    out["engine.parallel_eff"] = (out["engine.task_s"]
                                  / (out["engine.map_s"] * jobs)
                                  if out["engine.map_s"] else 0.0)
    # overhead from the calibrated end-to-end figures of both runs
    if "serve.http" in spans:
        # server side: the share of request handling no lower layer covers,
        # and the server's CPU time against the untraced server's
        out["trace.uncovered_frac"] = (get("serve.http", "self")
                                       / get("serve.http", "total"))
        out["trace.overhead_frac"] = (traced["e2e"]["coreset_s"]
                                      / plain["e2e"]["coreset_s"] - 1.0)
    else:
        wall = sum(traced["pass_walls"])
        covered = sum(n.total for n in root.children.values())
        out["trace.uncovered_frac"] = max(0.0, 1.0 - covered / wall)

        def work(r):
            return r["e2e"]["coreset_s"] + r["e2e"]["solve_s"]

        out["trace.overhead_frac"] = work(traced) / work(plain) - 1.0
    for key, value in extras.items():
        if key != "engine.jobs":
            out[key] = value
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    # one BLAS thread per process unless the caller chose otherwise: the
    # MPC workload runs one worker process per core, and two BLAS threads
    # in each made its pass times swing by 40% within a run
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp = os.path.join(STATE, "tmp", f"{args.workload}-{args.seed}-"
                                     f"{args.trace}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = run_child(args.workload, args.seed, half, False, tmp,
                              deadline)
            traced = run_child(args.workload, args.seed, half, True, tmp,
                               deadline)
            runs = [plain, traced]
        else:
            plain = run_child(args.workload, args.seed, args.seconds, False,
                              tmp, deadline)
            runs = [plain]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        checks = [[f"{tag}: {name}", ok, detail]
                  for tag, r in (("untraced", plain), ("traced", traced))
                  for name, ok, detail in r["checks"]]
    else:
        checks = list(plain["checks"])
    if args.trace:
        same = plain["outputs"] == traced["outputs"]
        checks.append(["timed and traced runs give the same radius and "
                       "coreset size", same,
                       f"{plain['outputs']} vs {traced['outputs']}"])
        values = per_layer(traced, plain)
        declared = bench["per_layer"]
    else:
        values = end_to_end(plain)
        declared = bench["end_to_end"]
    metrics = {}
    for m in declared:
        # a layer the workload never enters reports 0
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    fp = fingerprint(plain["versions"])
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("runner " + json.dumps(fp, sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    if args.trace:
        sys.path.insert(0, HERE)
        import tracer

        print(f"span tree of the traced run ({traced['passes']} pass(es), "
              f"{sum(traced['pass_walls']):.3f} s wall)")
        for line in tracer.render(tracer.Node.from_dict(traced["tree"]),
                                  sum(traced["pass_walls"])):
            print("  " + line)
    for name, m in metrics.items():
        print(f"metric {name:<36} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    record = os.path.join(STATE, "results", f"{args.workload}-s{args.seed}-"
                                            f"t{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"result": result, "runner": fp, "checks": checks,
                   "runs": runs}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
