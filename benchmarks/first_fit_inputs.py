"""Time the inputs that decide how first-fit runs, and which path
Algorithm 3's extend takes, in one process.

    PYTHONPATH=src python benchmarks/first_fit_inputs.py line
    PYTHONPATH=src python benchmarks/first_fit_inputs.py drifting
    PYTHONPATH=src python benchmarks/first_fit_inputs.py density
    PYTHONPATH=src python benchmarks/first_fit_inputs.py index-threshold
    PYTHONPATH=src python benchmarks/first_fit_inputs.py dense-openers

Prints one JSON line.

* ``line``: Algorithm 4 (``update_coreset``) on 8,000 points of a line
  at spacing 0.6 delta, absorbed in order: every first-fit round settles
  two points, so the rounds hand over to the in-order walk at once.
* ``drifting``: Algorithm 3 (``InsertionOnlyCoreset.extend``, k=8,
  z=64, eps=0.5) over 65,536 points of 8 clusters that arrive in
  spatial order (sorted by x), so a chunk's openers form long chains.
* ``density``: Algorithm 4 on 8,000 uniform points in [0, 100]^2 at
  absorb radii whose neighbour lists average about 1, 7, 9, 16, 32 and
  59 points, once with the rounds and once with the walk (needs
  ``repro.core.mbc._ROUNDS_MAX_MEAN_LIST``).
* ``index-threshold``: one ``InsertionOnlyCoreset.extend`` of 16 to
  256 rows against ``|P*|`` of about 200 to 16,000 representatives,
  through the dense block and through the cell index (needs
  ``repro.streaming.insertion_only._INDEX_MIN_PAIRS``).  ``P*`` is
  Algorithm 4 over the first 2^16 of 2^17 points of the 8-cluster
  stream ``drifting`` sorts, in arrival order, at the radius that
  leaves about that many representatives; the extended rows are the
  next points, so most of them are absorbed, as in a stream's steady
  state.  Each repetition extends a fresh copy of one structure whose
  index is already built; ``same`` says whether both paths left the
  same representatives and weights.

* ``dense-openers``: Algorithm 3 chunks that take the dense block and
  open representatives: ``serve32`` extends 8,192 points of
  :func:`cluster_stream` 32 rows at a time (``eps=1``,
  ``size_cap=256``, as a serve tenant does), ``rows1`` the first 2,048
  of them one row at a time, and ``d5`` 16,384 points of 8 clusters in
  ``R^5`` in one extend, so every chunk is 256 rows against ``P*``
  (``eps=0.5``, ``size_cap=1024``).  ``calls_3000``, ``calls_256`` and
  ``calls_32`` count the distance evaluations of a
  :class:`~repro.core.metrics.CallableMetric` over 3,000 points of the
  2-D stream (``size_cap=64``) extended that many rows at a time.  The
  line is a flat JSON object of numbers (``benchmarks/ab.py --extra``
  reads it): each timed case's per-repetition seconds ``<case>_s<i>``
  and their minimum, and every case's output digest as an integer.

``line``, ``drifting`` and ``dense-openers`` use public entry points
only, so the same
script times any tree given by ``PYTHONPATH``.  Each reports every
repetition's seconds and the output that must not change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

REPEATS = 5


def _timed(fn) -> "tuple[list[float], object]":
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def _digest(points: np.ndarray, weights: np.ndarray) -> str:
    blob = np.ascontiguousarray(points).tobytes() + weights.tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def line() -> dict:
    from repro.core import WeightedPointSet
    from repro.core.mbc import update_coreset

    n, delta = 8000, 1.0
    P = WeightedPointSet((0.6 * delta * np.arange(float(n)))[:, None],
                         np.ones(n, dtype=np.int64))
    times, mbc = _timed(lambda: update_coreset(P, delta))
    return {"input": "line", "n": n, "times_s": times, "size": mbc.size,
            "digest": _digest(mbc.coreset.points, mbc.coreset.weights)}


def cluster_stream(n: int = 1 << 16) -> np.ndarray:
    """8 clusters (sd 0.8) on a ring of radius 30, in arrival order."""
    rng = np.random.default_rng(0)
    angles = 2 * np.pi * np.arange(8) / 8
    centers = 30.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers[rng.integers(0, 8, n)] + rng.normal(0, 0.8, (n, 2))


def drifting_stream(n: int = 1 << 16) -> np.ndarray:
    """:func:`cluster_stream` sorted by x."""
    pts = cluster_stream(n)
    return pts[np.argsort(pts[:, 0], kind="stable")]


def drifting() -> dict:
    from repro.streaming import InsertionOnlyCoreset

    pts = drifting_stream()

    def ingest():
        s = InsertionOnlyCoreset(8, 64, 0.5, 2)
        s.extend(pts)
        return s

    times, s = _timed(ingest)
    cs = s.coreset()
    return {"input": "drifting", "n": len(pts), "times_s": times,
            "size": s.size, "r": s.r, "doublings": s.doublings,
            "digest": _digest(cs.points, cs.weights)}


def density() -> dict:
    import repro.core.mbc as mbc
    from repro.core import WeightedPointSet
    from repro.core.greedy import neighbour_lists
    from repro.geometry.grid import PointGrid, cutoff_side

    rng = np.random.default_rng(0)
    P = WeightedPointSet(rng.uniform(0, 100, (8000, 2)),
                         np.ones(8000, dtype=np.int64))
    rows = []
    for delta in (0.25, 1.55, 1.8, 2.5, 3.5, 4.9):
        cutoff = delta + 1e-9 * max(1.0, delta)
        grid = PointGrid.build(P.points, cutoff_side(cutoff, P.points),
                               max_ring=1)
        ptr, nbrs, _ = neighbour_lists(grid, P.points, "euclidean", cutoff,
                                       mbc._ABSORB_MAX_PAIRS)
        row = {"delta": delta, "mean_list": len(nbrs) / len(P)}
        for name, limit in (("rounds", np.inf), ("walk", 0)):
            saved = mbc._ROUNDS_MAX_MEAN_LIST
            mbc._ROUNDS_MAX_MEAN_LIST = limit
            try:
                times, out = _timed(lambda: mbc.update_coreset(P, delta))
            finally:
                mbc._ROUNDS_MAX_MEAN_LIST = saved
            row[f"{name}_s"] = times
            row["size"] = out.size
        rows.append(row)
    return {"input": "density", "n": len(P), "rows": rows}


#: index-threshold shapes: representatives wanted, and the extend rows
THRESHOLD_REPS = (200, 700, 1800, 4000, 16000)
THRESHOLD_ROWS = (16, 32, 64, 128, 256)
THRESHOLD_REPEATS = 40


def _structure_with_reps(pts: np.ndarray, want: int):
    """An ``InsertionOnlyCoreset(8, 64, 0.5, 2)`` holding Algorithm 4's
    representatives of ``pts`` at the radius (bisected in log scale)
    that leaves ``want`` of them within 5%, its cell index built by an
    extend of the last point of ``pts``."""
    import repro.streaming.insertion_only as io
    from repro.core import WeightedPointSet
    from repro.core.mbc import update_coreset

    P = WeightedPointSet(pts, np.ones(len(pts), dtype=np.int64))
    lo, hi = -8.0, 6.0  # log2 of r
    for _ in range(40):
        r = 2.0 ** ((lo + hi) / 2)
        cs = update_coreset(P, 0.25 * r).coreset
        if abs(len(cs) - want) <= 0.05 * want:
            break
        lo, hi = (lo, (lo + hi) / 2) if len(cs) < want else ((lo + hi) / 2, hi)
    s = io.InsertionOnlyCoreset(8, 64, 0.5, 2, size_cap=1 << 30)
    s.restore({"n": len(pts), "r": r, "doublings": 0,
               "threshold": s.threshold, "dim": 2,
               "points": cs.points, "weights": cs.weights})
    saved, io._INDEX_MIN_PAIRS = io._INDEX_MIN_PAIRS, 0
    try:
        s.extend(pts[-1:])
    finally:
        io._INDEX_MIN_PAIRS = saved
    assert s._index is not None
    return s


def index_threshold() -> dict:
    import copy

    import repro.streaming.insertion_only as io

    stream = cluster_stream(1 << 17)
    prefix, rest = stream[: 1 << 16], stream[1 << 16:]
    saved = io._INDEX_MIN_PAIRS
    rows = []
    try:
        for want in THRESHOLD_REPS:
            base = _structure_with_reps(prefix, want)
            for m in THRESHOLD_ROWS:
                chunk = rest[:m]
                row = {"rows": m, "reps": base.size, "r": base.r}
                outs = []
                for name, limit in (("dense", np.inf), ("index", 0)):
                    io._INDEX_MIN_PAIRS = limit
                    times = []
                    for _ in range(THRESHOLD_REPEATS):
                        s = copy.deepcopy(base)
                        t0 = time.perf_counter()
                        s.extend(chunk)
                        times.append(time.perf_counter() - t0)
                    row[f"{name}_us"] = 1e6 * float(np.median(times))
                    cs = s.coreset()
                    outs.append(_digest(cs.points, cs.weights))
                row["opened"] = s.size - base.size
                row["same"] = outs[0] == outs[1]
                rows.append(row)
    finally:
        io._INDEX_MIN_PAIRS = saved
    return {"input": "index-threshold", "min_pairs": saved,
            "repeats": THRESHOLD_REPEATS, "rows": rows}


def dense_openers() -> dict:
    from repro.core.metrics import CallableMetric
    from repro.streaming import InsertionOnlyCoreset

    rng = np.random.default_rng(0)
    centers = rng.uniform(-30, 30, (8, 5))
    pts5 = centers[rng.integers(0, 8, 1 << 14)] \
        + rng.normal(0, 0.8, (1 << 14, 5))
    pts2 = cluster_stream(8192)
    cases = {
        "serve32": (lambda: InsertionOnlyCoreset(8, 64, 1.0, 2, size_cap=256),
                    pts2, 32),
        "rows1": (lambda: InsertionOnlyCoreset(8, 64, 1.0, 2, size_cap=256),
                  pts2[:2048], 1),
        "d5": (lambda: InsertionOnlyCoreset(8, 64, 0.5, 5, size_cap=1024),
               pts5, len(pts5)),
    }
    out = {}
    for name, (make, pts, step) in cases.items():
        def ingest():
            s = make()
            for i in range(0, len(pts), step):
                s.extend(pts[i: i + step])
            return s

        times, s = _timed(ingest)
        out.update({f"{name}_s{i}": t for i, t in enumerate(times)})
        out[f"{name}_min_s"] = min(times)
        cs = s.coreset()
        out[f"{name}_digest"] = int(_digest(cs.points, cs.weights)[:12], 16)
    for step in (3000, 256, 32):
        calls = [0]

        def dist(a, b):
            calls[0] += 1
            return float(np.sqrt(((a - b) ** 2).sum()))

        s = InsertionOnlyCoreset(2, 8, 1.0, 2, metric=CallableMetric(dist),
                                 size_cap=64)
        for i in range(0, 3000, step):
            s.extend(pts2[i: i + step])
        cs = s.coreset()
        out[f"calls_{step}"] = calls[0]
        out[f"callable_{step}_digest"] = int(
            _digest(cs.points, cs.weights)[:12], 16)
    return out


def main(argv: "list[str]") -> int:
    modes = {"line": line, "drifting": drifting, "density": density,
             "index-threshold": index_threshold,
             "dense-openers": dense_openers}
    if len(argv) != 1 or argv[0] not in modes:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: first_fit_inputs.py {{{','.join(modes)}}}",
              file=sys.stderr)
        return 2
    print(json.dumps(modes[argv[0]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
