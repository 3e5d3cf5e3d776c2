"""Time the layers of grid-pruned Charikar decisions and whole radius
searches, in one process.

    PYTHONPATH=src python benchmarks/decision_layers.py

Prints one flat JSON object of numbers on its last line, so
``benchmarks/ab.py --extra`` can alternate it between two trees.  Every
time is the minimum over its repetitions.

* ``offline_seed_us_per_cell`` and ``offline_decision_ms``: the blocked
  seed of one dense-grid decision (``core.greedy._GridCells``, which
  seeds on construction), per cell, and the whole ``_grid_decision``,
  on offline-search's 20,000 stratified points (k = 64) at its guess
  3.2726 (961 cells).
* ``stream_seed_us_per_cell`` and ``stream_decision_ms``: the same on
  the stream-ingest coreset (the 4,239 weighted representatives its
  Algorithm 3 ingest leaves, k = 8) at its guess 1.2959 (269 cells).
* ``pair_ns``: ``kernels.pair_distances`` per pair, 5·10^5 Euclidean
  pairs among 20,000 2-D points, rows sorted and columns random.
* ``xover_<case>_lists_ms``, ``xover_<case>_cells_ms`` and
  ``xover_<case>_pairs_per_cell``: one decision forced onto neighbour
  lists and onto cell blocks (by patching
  ``core.greedy._LIST_PAIRS_PER_CELL``), with the grid's candidate pairs
  per cell, the figure that constant gates on.  Cases: 4,000 uniform
  points in [0, 100]^2 with weights 1..3 at about 125, 250, 500, 1,000,
  2,000 and 4,000 pairs per cell, for k = 8 and k = 64
  (``u<pairs>_k<k>``), and the stream-ingest coreset at its guess 0.8771
  (``stream0877``).
* ``search_<case>_ms``, ``search_<case>_decisions`` and
  ``search_<case>_skipped``: one whole ``charikar_greedy`` call, its
  time, its decisions and the guesses its certified floor settled
  without one (``GreedyResult.stats``; 0 in trees without the floor).
  Cases: offline-search's 20,000 points (k = 64, z = 200, ``offline``),
  the stream-ingest coreset (k = 8, z = 64, ``stream``), one
  mpc-two-round machine (its 2,100 checkerboard points, k = 8, budgets
  0, 1, 3, ..., 31 in one call, ``mpc``) and two searches whose budget
  is too large for the floor's traversal to pay: 20,000 and 5,000
  uniform points in [0, 100]^2 with weights 1..2 (k = 8, z = 2,000,
  ``z2000``; k = 4, z = 1,000, ``z1000``).  :func:`large_budget_searches`
  times those two alone, at any number of repetitions.
* ``search_pw<n>_ms`` and ``search_pw<n>_decisions``: two searches on
  the exact-candidate (pairwise) path, ``n <= PAIRWISE_LIMIT``: the
  228-point coreset mpc-two-round's solves search (k = 8, z = 16,
  ``pw228``) and ``benchmarks/run_all.py``'s ``charikar_greedy``
  instance, 2,048 uniform points in [0, 10]^2 with weights 1..4
  (k = 16, z = 64, ``pw2048``).  :func:`pairwise_searches` times those
  two alone, at any number of repetitions.

The inputs come from the measured tree's own ``perfbench/workload.py``
(found next to the imported ``repro`` package) and the names used exist
in trees since the blocked decisions kept their seed, so the same
script times any tree given by ``PYTHONPATH``.  Takes ~16 s.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from unittest import mock

import numpy as np

REPEATS = 15
XOVER_REPEATS = 3
SEARCH_REPEATS = 7

#: offline-search's and the stream-ingest coreset's guesses, exactly as
#: their radius searches decide them
OFFLINE_GUESS = 3.2725527814004765
STREAM_GUESS = 1.295863093409801
STREAM_LIST_GUESS = 0.8770911494200104


def _min_time(fn, repeats: int = REPEATS) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workload():
    """The measured tree's ``perfbench/workload.py`` (it puts that tree's
    ``src`` first on ``sys.path``, the tree already imported)."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workload

    return workload


def _inputs():
    """``(offline, stream)`` weighted point sets."""
    from repro.api import KCenterSession, ProblemSpec
    from repro.core import WeightedPointSet

    w = _workload()
    pts = w._stratified_square((160, 125), 0)
    offline = WeightedPointSet(pts, np.ones(len(pts), dtype=np.int64))
    spec = ProblemSpec(k=w.STREAM_K, z=w.STREAM_Z, eps=0.5, dim=2,
                       seed=w.SPEC_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        source = w._write_stream_store(os.path.join(tmp, "store"), 0)
        sess = KCenterSession(spec, backend="insertion-only")
        sess.extend(source)
        stream = sess.coreset()
    return offline, stream


def _grid(P, guess):
    import repro.core.greedy as greedy

    return greedy._grid_for_guess(P.points, greedy._cutoffs(guess)[0])


def _decide(P, k, guess, grid, per_cell=None):
    import repro.core.greedy as greedy
    from repro.core.metrics import get_metric

    stats = {"decisions": 0, "list_decisions": 0}
    met = get_metric(None)
    if per_cell is None:
        return greedy._grid_decision(P, met, k, guess, grid, stats)
    with mock.patch.object(greedy, "_LIST_PAIRS_PER_CELL", per_cell):
        return greedy._grid_decision(P, met, k, guess, grid, stats)


def seed_and_decision(name: str, P, k: int, guess: float) -> dict:
    import repro.core.greedy as greedy
    from repro.core.metrics import get_metric

    grid = _grid(P, guess)
    met = get_metric(None)
    _decide(P, k, guess, grid)  # warm
    seed = _min_time(lambda: greedy._GridCells(grid, P, met, guess))
    decision = _min_time(lambda: _decide(P, k, guess, grid))
    return {f"{name}_cells": grid.num_cells,
            f"{name}_seed_us_per_cell": 1e6 * seed / grid.num_cells,
            f"{name}_decision_ms": 1e3 * decision}


def pair_ns() -> dict:
    from repro.kernels import pair_distances

    rng = np.random.default_rng(0)
    n, m = 20_000, 500_000
    pts = rng.random((n, 2))
    rows = np.sort(rng.integers(0, n, m))
    cols = rng.integers(0, n, m)
    t = _min_time(lambda: pair_distances("euclidean", pts, rows, cols))
    return {"pair_ns": 1e9 * t / m}


def crossover(name: str, P, k: int, guess: float) -> dict:
    import repro.core.greedy as greedy

    grid = _grid(P, guess)
    total = grid.candidate_pairs(greedy._cutoffs(guess)[0], 1 << 62)[0]
    out = {f"xover_{name}_pairs_per_cell": total / grid.num_cells}
    results = []
    for path, per_cell in (("lists", 1 << 62), ("cells", 0)):
        results.append(_decide(P, k, guess, grid, per_cell))
        out[f"xover_{name}_{path}_ms"] = 1e3 * _min_time(
            lambda: _decide(P, k, guess, grid, per_cell), XOVER_REPEATS)
    assert results[0][0] == results[1][0], "lists and cells disagree"
    return out


def _mpc_machine(w):
    """mpc-two-round's first machine: the stratified points whose
    ``MPC_GRID`` cell has an even coordinate sum."""
    from repro.core import WeightedPointSet

    pts = w._stratified_square(w.MPC_GRID, 0)
    cells = np.floor(pts * np.array(w.MPC_GRID) / 100.0).astype(np.int64)
    part = pts[(cells[:, 0] + cells[:, 1]) % 2 == 0]
    return WeightedPointSet(part, np.ones(len(part), dtype=np.int64))


def search(name: str, P, k: int, z, repeats: int = SEARCH_REPEATS) -> dict:
    from repro.core import charikar_greedy

    res = charikar_greedy(P, k, z)  # warm
    stats = (res[0] if isinstance(res, list) else res).stats
    t = _min_time(lambda: charikar_greedy(P, k, z), repeats)
    return {f"search_{name}_ms": 1e3 * t,
            f"search_{name}_decisions": stats["decisions"],
            f"search_{name}_skipped": stats.get("skipped", 0)}


def large_budget_searches(repeats: int = SEARCH_REPEATS) -> dict:
    """The ``z2000`` and ``z1000`` searches, whose budgets are too large
    for the certified floor's traversal to pay."""
    from repro.core import WeightedPointSet

    out = {}
    for n, k, z in ((20_000, 8, 2_000), (5_000, 4, 1_000)):
        rng = np.random.default_rng(0)
        P = WeightedPointSet(rng.uniform(0, 100, (n, 2)),
                             rng.integers(1, 3, n))
        out.update(search(f"z{z}", P, k, z, repeats))
    return out


def _mpc_coreset(w):
    """The coreset mpc-two-round's solves search: Algorithm 2 over its
    two machines, run in this process."""
    from repro.api import KCenterSession, ProblemSpec

    spec = ProblemSpec(k=w.MPC_K, z=w.MPC_Z, eps=0.5, dim=2,
                       seed=w.SPEC_SEED)
    sess = KCenterSession(spec, backend="mpc-two-round",
                          num_machines=w.MPC_MACHINES)
    sess.extend(w._machine_blocks(w._stratified_square(w.MPC_GRID, 0)))
    return sess.coreset()


def pairwise_searches(repeats: int = SEARCH_REPEATS) -> dict:
    """The ``pw228`` and ``pw2048`` searches, both on the pairwise path
    (``search_<case>_skipped`` left out: the pairwise floor settles
    only the radius-0 test there)."""
    from repro.core import WeightedPointSet

    w = _workload()
    rng = np.random.default_rng(0)
    n = 2048
    uniform = WeightedPointSet(rng.random((n, 2)) * 10.0,
                               rng.integers(1, 5, n))
    out = {}
    for name, P, k, z in (("pw228", _mpc_coreset(w), w.MPC_K, w.MPC_Z),
                          ("pw2048", uniform, 16, 64)):
        got = search(name, P, k, z, repeats)
        out.update({key: got[key] for key in
                    (f"search_{name}_ms", f"search_{name}_decisions")})
    return out


def main() -> int:
    from repro.core import WeightedPointSet

    offline, stream = _inputs()
    out = {}
    out.update(seed_and_decision("offline", offline, 64, OFFLINE_GUESS))
    out.update(seed_and_decision("stream", stream, 8, STREAM_GUESS))
    out.update(pair_ns())
    rng = np.random.default_rng(0)
    n = 4000
    uniform = WeightedPointSet(rng.uniform(0, 100, (n, 2)),
                               rng.integers(1, 4, n))
    for pairs in (125, 250, 500, 1000, 2000, 4000):
        # ~9 m^2 candidate pairs per cell of m points, m = n (g/100)^2
        guess = 100.0 * np.sqrt(np.sqrt(pairs / 9.0) / n)
        for k in (8, 64):
            out.update(crossover(f"u{pairs}_k{k}", uniform, k, guess))
    out.update(crossover("stream0877", stream, 8, STREAM_LIST_GUESS))
    out.update(search("offline", offline, 64, 200))
    out.update(search("stream", stream, 8, 64))
    out.update(search("mpc", _mpc_machine(_workload()), 8,
                      [0, 1, 3, 7, 15, 31]))
    out.update(large_budget_searches())
    out.update(pairwise_searches())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
