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
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


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
    # imported here: scipy.spatial costs ~0.3 s to import, which every
    # process that never computes a dense block would pay
    from scipy.spatial.distance import cdist

    return cdist(a, b, metric=_CDIST_NAMES[kind])


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
    loop (pinned by ``tests/test_greedy_pruned.py``).
    """
    _check_kind(kind)
    pts = _as_points(pts)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if other is None:
        other = pts
    else:
        other = _as_points(other)
    d = pts.shape[1]
    if kind == "euclidean":
        diff = pts[rows, 0] - other[cols, 0]
        out = diff * diff
        for c in range(1, d):
            diff = pts[rows, c] - other[cols, c]
            out += diff * diff
        np.sqrt(out, out=out)
        return out
    reduce_max = kind == "chebyshev"
    out = np.abs(pts[rows, 0] - other[cols, 0])
    for c in range(1, d):
        diff = np.abs(pts[rows, c] - other[cols, c])
        if reduce_max:
            np.maximum(out, diff, out=out)
        else:
            out += diff
    return out
