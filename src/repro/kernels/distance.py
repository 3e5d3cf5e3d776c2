"""The shared distance-computation layer.

Every algorithm in the library bottoms out in one operation: a block of
a distance matrix between two point arrays under one of the built-in
norms.  This module is the single implementation of that operation, so
the radius-search stack (:mod:`repro.core.greedy`), the absorption loops
(:mod:`repro.core.mbc`) and the :class:`~repro.core.metrics.Metric`
subclasses all share one exact float64 kernel: SciPy's ``cdist`` for
dense blocks (:func:`pairwise_kernel`) and its bit-identical sparse
companion for pair lists (:func:`pair_distances`).

Chunked consumers size their blocks with :func:`auto_chunk`, so a block
stays inside a fixed working-set budget.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "auto_chunk",
    "pairwise_kernel",
    "pair_distances",
]

#: Working-set budget (bytes) a chunked distance block should stay under.
#: 32 MiB keeps a block plus its boolean mask comfortably inside typical
#: L3 caches while amortizing per-call overhead.
DEFAULT_BLOCK_BYTES = 32 * 2**20

#: metric name -> scipy cdist metric
_CDIST_NAMES = {
    "euclidean": "euclidean",
    "chebyshev": "chebyshev",
    "manhattan": "cityblock",
}


#: SciPy's ``cdist``, imported on the first dense block: scipy.spatial
#: costs ~0.3 s to import, which every process that never computes one
#: would pay (and an import statement per block costs ~1 µs)
_cdist = None


def auto_chunk(n_cols: int) -> int:
    """Rows per float64 distance block so ``rows x n_cols`` stays inside
    :data:`DEFAULT_BLOCK_BYTES`.  Clamped to ``[64, 8192]`` so tiny
    inputs still batch and huge ones still amortize call overhead.
    """
    per_row = max(1, int(n_cols) * 8)
    return int(np.clip(DEFAULT_BLOCK_BYTES // per_row, 64, 8192))


def _check_kind(kind: str) -> None:
    if kind not in _CDIST_NAMES:
        raise ValueError(
            f"unknown kernel {kind!r}; known: {sorted(_CDIST_NAMES)}"
        )


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    # a 2-D block is the common case: skip atleast_2d's call overhead
    return x if x.ndim >= 2 else np.atleast_2d(x)


def pairwise_kernel(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix of shape ``(len(a), len(b))`` under metric ``kind``.

    ``kind`` is one of ``"euclidean"``, ``"chebyshev"``, ``"manhattan"``.
    Computed by SciPy's ``cdist`` in float64 — bit-identical to the
    pre-kernels implementation, which the parity suite relies on.
    """
    _check_kind(kind)
    a = _as_points(a)
    b = _as_points(b)
    if a.size == 0 or b.size == 0:
        return np.zeros((len(a), len(b)))
    global _cdist
    if _cdist is None:
        from scipy.spatial.distance import cdist as _cdist
    return _cdist(a, b, metric=_CDIST_NAMES[kind])


def pair_distances(
    kind: str,
    pts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    other: "np.ndarray | None" = None,
) -> np.ndarray:
    """Element-wise float64 distances ``dist(pts[rows[t]], other[cols[t]])``
    (``other`` defaults to ``pts``).

    The sparse companion of :func:`pairwise_kernel`, used by the
    grid-pruned candidate scans that only need the (point, candidate)
    pairs a spatial index produced.  Bit-identical to the corresponding
    ``cdist`` entries: the accumulation runs per coordinate in index
    order with every intermediate rounded, exactly like cdist's inner
    loop (pinned by ``tests/test_greedy_pruned.py`` for every layout its
    callers pass: row slices of larger buffers, Fortran-ordered or
    strided points, int32 or int64 indices in any order).

    Each coordinate is gathered from its own 1-D column view
    (``pts[:, c].take(rows)``) and combined in place: a 2-D fancy gather
    ``pts[rows, c]`` costs about twice as much per pair.
    """
    _check_kind(kind)
    pts = _as_points(pts)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    other = pts if other is None else _as_points(other)

    def diff(c: int) -> np.ndarray:
        out = pts[:, c].take(rows)
        out -= other[:, c].take(cols)
        return out

    out = diff(0)
    if kind == "euclidean":
        out *= out
        for c in range(1, pts.shape[1]):
            dc = diff(c)
            dc *= dc
            out += dc
        np.sqrt(out, out=out)
        return out
    np.abs(out, out=out)
    combine = np.maximum if kind == "chebyshev" else np.add
    for c in range(1, pts.shape[1]):
        dc = diff(c)
        np.abs(dc, out=dc)
        combine(out, dc, out=out)
    return out
