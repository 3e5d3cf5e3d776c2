"""Engine scaling: serial vs thread vs process executors on 2-round MPC.

One partitioned n >= 50k instance, three executors, identical outputs by
the engine's determinism contract — the only thing that may differ is
wall time.  On a multi-core machine (>= 4 cores) the process pool must
beat serial execution, since the machine-local greedy/MBC work is
embarrassingly parallel across the ``m`` simulated machines; on smaller
runners the numbers are still recorded but the speedup assertion is
skipped (there is nothing to win on one core).

Scale with ``REPRO_BENCH_N`` (default 50000).  A plain pytest file, run
by name (``bench_*.py`` is outside pytest's default pattern)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_engine_scaling.py
"""

import os
import time

import numpy as np

from repro.engine import get_executor
from repro.experiments import Row, format_table
from repro.mpc import (
    partition_contiguous,
    recommended_num_machines,
    two_round_coreset,
)
from repro.workloads import clustered_with_outliers

N = int(os.environ.get("REPRO_BENCH_N", 50_000))
K, Z, EPS, D = 4, 32, 0.5, 2
JOBS = max(1, min(4, os.cpu_count() or 1))


def _run(executors=("serial", f"thread:{JOBS}", f"process:{JOBS}")):
    rng = np.random.default_rng(0)
    wl = clustered_with_outliers(N, K, Z, D, rng=rng)
    P = wl.point_set()
    m = recommended_num_machines(N, K, Z, EPS, D)
    parts = partition_contiguous(P, m)
    rows = []
    results = {}
    for name in executors:
        t0 = time.perf_counter()
        res = two_round_coreset(parts, K, Z, EPS, executor=get_executor(name))
        wall = time.perf_counter() - t0
        results[name] = res
        rows.append(Row(
            "E21", name, {"n": N, "m": m, "z": Z, "cores": os.cpu_count()},
            {
                "wall_s": round(wall, 3),
                "coreset": len(res.coreset),
                "worker_peak": res.stats.worker_peak,
            },
        ))
    return rows, results


def test_engine_scaling_two_round():
    rows, results = _run()
    print()
    print(format_table(rows, f"E21: executor scaling, 2-round MPC at n={N}"))

    # bit-identical outputs under every executor
    base = results["serial"]
    for name, res in results.items():
        assert np.array_equal(base.coreset.points, res.coreset.points), name
        assert np.array_equal(base.coreset.weights, res.coreset.weights), name
        assert base.stats == res.stats, name

    walls = {r.algorithm: r.metrics["wall_s"] for r in rows}
    cores = os.cpu_count() or 1
    if cores >= 4:
        # the acceptance bar: the process pool beats serial on real cores
        assert walls[f"process:{JOBS}"] < walls["serial"], walls
    else:
        print(f"(speedup assertion skipped: only {cores} core(s) available)")
