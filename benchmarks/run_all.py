"""Machine-readable core-kernel benchmark runner.

Times the three operations the kernels refactor targets — the Charikar
radius search, ``mbc_construction``, and one end-to-end two-round MPC
run — at fixed seeds, against the frozen pre-refactor reference
implementations where one exists (``tests/_greedy_reference.py``, loaded
by path), and writes a JSON document whose schema CI checks against the
committed ``BENCH_PR18.json``::

    PYTHONPATH=src python benchmarks/run_all.py --json BENCH_core.json
    PYTHONPATH=src python benchmarks/run_all.py --quick --json BENCH_core.json

Each entry records ``{id, params, new_s, old_s, speedup}`` (``old_s`` /
``speedup`` are null for the MPC end-to-end run: the pre-refactor driver
is minutes-slow at benchmark sizes, so only the current timing is
tracked).  The float64 outputs of old and new paths are asserted
bit-identical before any timing is reported.  The two reference
comparisons also assert their speedup bars: ``charikar_greedy`` runs at
its full size (n=2048) under ``--quick`` too and asserts >= 3x on every
run; ``mbc_construction`` asserts >= 2x at its full size (n=50k) only,
``--quick`` reporting its reduced-size ratio.  Each entry runs in its
own freshly spawned process, so its timings and peak RSS are its own; an
entry that fails fails the run.

The ``*_scale_*`` entries form the scaling curve for the grid-pruned
candidate scans (n=10^5 and n=10^6);
``--quick`` keeps every entry id (so CI can diff the schema) at reduced
sizes (``charikar_greedy`` excepted), and ``--assert-pruned`` fails the
run unless the 10^5-scale greedy actually took the pruned path and beat
the dense decision procedure by >= 2x.  ``mbc_scale_10m`` ingests the out-of-core
``ooc-clustered-10m`` store (n=10^7 at full size) through the
insertion-only session chunk by chunk and records throughput plus its
peak RSS;
``--store-dir`` points the store cache at a persistent directory so
the generated stream is reused across runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import importlib.util
import json
import multiprocessing
import os
import platform
import sys
import time

import numpy as np
# repro imports SciPy's cdist on its first dense block; load it with
# the module so that no entry's timed region pays the ~0.3 s import
import scipy.spatial.distance  # noqa: F401


def _instance(n: int, d: int = 2, seed: int = 0, wmax: int = 5):
    from repro.core.points import WeightedPointSet

    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)) * 10.0
    return WeightedPointSet(pts, rng.integers(1, wmax, n))


def _reference():
    """The frozen pre-refactor oracle: ``tests/`` is not a package, so
    ``tests/_greedy_reference.py`` is loaded by file path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "tests", "_greedy_reference.py")
    spec = importlib.util.spec_from_file_location("_greedy_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(fn) -> "tuple[float, object]":
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_charikar(quick: bool) -> dict:
    """Greedy(P, k, z) on the exact-candidate (pairwise) path, at
    n=2048 with or without ``quick``: the search takes ~0.2 s and the
    reference ~2 s."""
    from repro.core.greedy import charikar_greedy

    n = 2048
    k, z = 16, 64
    P = _instance(n)
    ref = _reference()
    # the reference runs first, as when the 3x bar was set.  The first
    # search in a process is not measurably slower than a second one
    # (AB_PR33_layers.json, ``first_vs_warm``: 0.185-0.211 s against
    # 0.173-0.217 s over ten fresh processes)
    old_s, old_res = _timed(lambda: ref.charikar_greedy_reference(P, k, z))
    new_s, new_res = _timed(lambda: charikar_greedy(P, k, z))
    assert new_res.radius == old_res.radius, "charikar parity violated"
    assert new_res.guess == old_res.guess
    assert np.array_equal(new_res.centers_idx, old_res.centers_idx)
    assert np.array_equal(new_res.uncovered, old_res.uncovered)
    assert old_s / new_s >= 3.0, (
        f"expected >= 3x on charikar_greedy at n=2048, got {old_s / new_s:.2f}x"
    )
    return {
        "id": "charikar_greedy",
        "params": {"n": n, "k": k, "z": z, "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": old_s,
        "speedup": old_s / new_s,
    }


def bench_mbc(quick: bool) -> dict:
    """MBCConstruction with a supplied Greedy radius (isolates the
    absorption loop both implementations share the radius for)."""
    from repro.core.mbc import mbc_construction
    from repro.core.metrics import get_metric

    n = 8000 if quick else 50000
    k, z, eps, radius = 8, 32, 0.1, 0.6
    P = _instance(n, wmax=2)
    met = get_metric(None)
    ref = _reference()
    new_s, mbc = _timed(
        lambda: mbc_construction(P, k, z, eps, met, radius=radius)
    )
    old_s, old = _timed(
        lambda: ref.greedy_absorb_reference(P, eps * radius / 3.0, met)
    )
    assert np.array_equal(mbc.coreset.points, old[0].points), "mbc parity violated"
    assert np.array_equal(mbc.coreset.weights, old[0].weights)
    assert np.array_equal(mbc.assignment, old[1])
    assert quick or old_s / new_s >= 2.0, (
        f"expected >= 2x on mbc_construction at n=50k, got {old_s / new_s:.2f}x"
    )
    return {
        "id": "mbc_construction",
        "params": {"n": n, "k": k, "z": z, "eps": eps, "radius": radius,
                   "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": old_s,
        "speedup": old_s / new_s,
    }


def bench_mpc_two_round(quick: bool) -> dict:
    """End-to-end Algorithm 2 (outlier guessing + local MBCs + final
    compression) on contiguously partitioned input."""
    from repro.mpc.partition import partition_contiguous
    from repro.mpc.two_round import two_round_coreset

    n, m = (2500, 5) if quick else (10000, 10)
    k, z, eps = 4, 8, 0.5
    P = _instance(n, wmax=2)
    parts = partition_contiguous(P, m)
    new_s, res = _timed(lambda: two_round_coreset(parts, k, z, eps))
    return {
        "id": "mpc_two_round",
        "params": {"n": n, "m": m, "k": k, "z": z, "eps": eps,
                   "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": None,
        "speedup": None,
        "coreset": len(res.coreset),
    }


def bench_serve_replay(quick: bool) -> dict:
    """Sustained point-update throughput through the session server.

    Self-hosts a `repro.serve` server and replays the clustered-baseline
    scenario over 32 concurrent sessions (insertion-only backend, binary
    wire, batched extends) — the serving acceptance number.  Always 32
    sessions, even under ``--quick``; only the stream length shrinks.
    """
    from repro.serve.replay import replay

    sessions, passes = 32, 4
    batch = 400 if quick else 2000
    report = replay(scenario="clustered-baseline", quick=quick, seed=0,
                    sessions=sessions, batch=batch, passes=passes,
                    backend="insertion-only", solve=False, reference=False)
    return {
        "id": "serve_replay",
        "params": {"scenario": "clustered-baseline", "sessions": sessions,
                   "threads": report["threads"], "batch": batch,
                   "passes": passes, "backend": "insertion-only",
                   "wire": report["wire"], "seed": 0},
        "new_s": report["stream_wall_s"],
        "old_s": None,
        "speedup": None,
        "total_points": report["total_points"],
        "points_per_s": report["points_per_s"],
        "extend_p95_s": report["latency"]["extend"]["p95_s"],
    }


#: points of the ``--quick`` per-decision comparison in
#: :func:`bench_charikar_scale_100k` (a prefix of its instance)
QUICK_DECISION_N = 12_500


def bench_charikar_scale_100k(quick: bool) -> dict:
    """Grid-pruned Greedy(P, k, z) at coreset-construction scale.

    ``new_s`` is the full pruned radius search.  A full *dense* search at
    these sizes is minutes-to-hours (``old_s`` is null); instead the
    dense-vs-pruned ratio is measured honestly on ONE decision at the
    winning guess — the guess the search actually pays for — with the
    two decision procedures asserted bit-identical first.  ``speedup``
    reports that per-decision ratio.  ``--quick`` runs that comparison on
    the instance's first :data:`QUICK_DECISION_N` points (a dense
    decision over all 50,000 costs ~18 s), still at the whole search's
    ``decision_guess``.
    """
    from repro.core.greedy import (
        _geometric_decision,
        _grid_decision,
        _grid_for_guess,
        charikar_greedy,
    )
    from repro.core.metrics import get_metric

    n = 50_000 if quick else 100_000
    k, z = 16, 100 if quick else 200
    P = _instance(n, wmax=3)
    met = get_metric(None)
    new_s, res = _timed(lambda: charikar_greedy(P, k, z, met))
    g = float(res.guess)
    Q = P.subset(np.arange(QUICK_DECISION_N)) if quick else P
    grid = _grid_for_guess(Q.points, g + 1e-9 * max(1.0, g))
    assert grid is not None, "grid must apply at benchmark sizes"
    pruned_s, pruned = _timed(lambda: _grid_decision(Q, met, k, g, grid))
    dense_s, dense = _timed(lambda: _geometric_decision(Q, met, k, g))
    assert pruned[0] == dense[0], "pruned/dense decision parity violated"
    assert np.array_equal(pruned[1], dense[1])
    return {
        "id": "charikar_greedy_scale_100k",
        "params": {"n": n, "k": k, "z": z, "d": 2, "seed": 0,
                   "mode": "single-decision-comparator"},
        "new_s": new_s,
        "old_s": None,
        "speedup": dense_s / pruned_s,
        "decision_dense_s": dense_s,
        "decision_pruned_s": pruned_s,
        "decision_guess": g,
        "path": res.path,
    }


def bench_charikar_scale_1m(quick: bool) -> dict:
    """Grid-pruned Greedy(P, k, z) at n=10^6 (the headline scale).

    No dense comparator at all: one dense decision alone is ~10^12
    distance evaluations (half a day on one core).  Records the pruned
    search wall time and the path provenance; ``--quick`` keeps the id
    with a reduced instance so CI can diff the schema.
    """
    from repro.core.greedy import charikar_greedy
    from repro.core.metrics import get_metric

    n, k, z = (50_000, 256, 1_000) if quick else (1_000_000, 1_024, 10_000)
    P = _instance(n, wmax=2)
    met = get_metric(None)
    new_s, res = _timed(lambda: charikar_greedy(P, k, z, met))
    return {
        "id": "charikar_greedy_scale_1m",
        "params": {"n": n, "k": k, "z": z, "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": None,
        "speedup": None,
        "radius": float(res.radius),
        "path": res.path,
    }


def bench_mbc_scale_100k(quick: bool) -> dict:
    """MBCConstruction (supplied radius) at 10^5 points — the gridded
    absorption loop against the frozen pre-refactor reference."""
    from repro.core.mbc import mbc_construction
    from repro.core.metrics import get_metric

    n = 20_000 if quick else 100_000
    k, z, eps, radius = 8, 32, 0.3, 2.0
    P = _instance(n, wmax=2)
    met = get_metric(None)
    ref = _reference()
    new_s, mbc = _timed(
        lambda: mbc_construction(P, k, z, eps, met, radius=radius)
    )
    old_s, old = _timed(
        lambda: ref.greedy_absorb_reference(P, eps * radius / 3.0, met)
    )
    assert np.array_equal(mbc.coreset.points, old[0].points), "mbc parity violated"
    assert np.array_equal(mbc.coreset.weights, old[0].weights)
    return {
        "id": "mbc_construction_scale_100k",
        "params": {"n": n, "k": k, "z": z, "eps": eps, "radius": radius,
                   "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": old_s,
        "speedup": old_s / new_s,
    }


def bench_mbc_scale_1m(quick: bool) -> dict:
    """MBCConstruction (supplied radius) at n=10^6 — absorption must
    stay interactive at a million points (no reference timing: the
    pre-refactor loop is O(reps * n) full scans, minutes at this n)."""
    from repro.core.mbc import mbc_construction
    from repro.core.metrics import get_metric

    n = 50_000 if quick else 1_000_000
    k, z, eps, radius = 8, 32, 0.3, 2.0
    P = _instance(n, wmax=2)
    met = get_metric(None)
    new_s, mbc = _timed(
        lambda: mbc_construction(P, k, z, eps, met, radius=radius)
    )
    return {
        "id": "mbc_construction_scale_1m",
        "params": {"n": n, "k": k, "z": z, "eps": eps, "radius": radius,
                   "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": None,
        "speedup": None,
        "coreset": len(mbc.coreset),
    }


def bench_mbc_scale_10m(quick: bool) -> dict:
    """Out-of-core ingest at n=10^7: the ``ooc-clustered-10m`` stream
    served from its memory-mapped on-disk :class:`~repro.store.PointStore`
    into the insertion-only session, one 65536-row chunk resident at a
    time (the PR-10 headline — ingest never materializes the stream).

    ``peak_rss_mb`` is the ``ru_maxrss`` of this entry's own process
    (:func:`run_isolated`); the strict <2 GB out-of-core guard lives in
    ``tests/test_out_of_core.py``.  The cached
    store under ``--store-dir`` (default ``$REPRO_DATA_DIR``) is
    generated chunk-wise on first use and reused after.  ``--quick``
    keeps the id at the scenario's quick size (n=4*10^4).
    """
    import resource

    from repro.api import KCenterSession
    from repro.scenarios import get_scenario

    inst = get_scenario("ooc-clustered-10m").make(quick=quick, seed=0)
    sess = KCenterSession(inst.spec, backend="insertion-only")
    n = inst.n
    new_s, _ = _timed(lambda: sess.extend(inst.source))
    sol = sess.solve()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "id": "mbc_scale_10m",
        "params": {"scenario": "ooc-clustered-10m", "n": n,
                   "chunk_rows": inst.chunk_rows,
                   "backend": "insertion-only", "d": 2, "seed": 0},
        "new_s": new_s,
        "old_s": None,
        "speedup": None,
        "points_per_s": n / new_s,
        "coreset": sol.coreset_size,
        "radius": float(sol.radius),
        "peak_rss_mb": peak_mb,
    }


def run_isolated(bench, quick: bool) -> dict:
    """Run one entry in a freshly spawned process and return its entry;
    an exception raised by the entry is raised here."""
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(bench, quick).result()


BENCHES = (bench_charikar, bench_mbc, bench_mpc_two_round,
           bench_serve_replay, bench_charikar_scale_100k,
           bench_charikar_scale_1m, bench_mbc_scale_100k,
           bench_mbc_scale_1m, bench_mbc_scale_10m)


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/run_all.py",
        description="Time the core kernels against the frozen pre-refactor "
                    "reference and emit machine-readable JSON.",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the results document to PATH")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke; seconds not minutes)")
    parser.add_argument("--assert-pruned", action="store_true",
                        help="fail unless the scaling bench took the "
                             "grid-pruned path and its measured "
                             "per-decision dense/pruned ratio is >= 2x")
    parser.add_argument("--store-dir", metavar="DIR", default=None,
                        help="directory for cached on-disk point stores "
                             "(sets REPRO_DATA_DIR for the out-of-core "
                             "benches; default: ./.repro-data)")
    args = parser.parse_args(argv)

    if args.store_dir:
        os.environ["REPRO_DATA_DIR"] = args.store_dir

    import repro

    entries = []
    for bench in BENCHES:
        entry = run_isolated(bench, args.quick)
        entries.append(entry)
        speed = (
            f"{entry['speedup']:.2f}x vs pre-refactor"
            if entry["speedup"] is not None
            else "(no reference timing)"
        )
        if "points_per_s" in entry:
            speed = f"{entry['points_per_s']:,.0f} points/s"
        if "decision_dense_s" in entry:
            speed = f"{entry['speedup']:.2f}x per-decision vs dense"
        print(f"{entry['id']:<20} new={entry['new_s']:.3f}s  {speed}")

    if args.assert_pruned:
        scale = next(e for e in entries
                     if e["id"] == "charikar_greedy_scale_100k")
        if scale["path"] != "grid":
            print(f"ASSERT-PRUNED: path={scale['path']!r}, expected 'grid'",
                  file=sys.stderr)
            return 1
        if scale["speedup"] < 2.0:
            print(f"ASSERT-PRUNED: dense/pruned per-decision ratio "
                  f"{scale['speedup']:.2f}x < 2x", file=sys.stderr)
            return 1
        print(f"assert-pruned OK: path=grid, "
              f"decision speedup {scale['speedup']:.1f}x")

    doc = {
        "suite": "core-kernels",
        "quick": bool(args.quick),
        "version": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "entries": entries,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
