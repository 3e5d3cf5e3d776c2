"""The shared distance-computation layer.

Every algorithm in the library bottoms out in one operation: a block of
a distance matrix between two point arrays under one of the built-in
norms.  This module is the single implementation of that operation, so
the radius-search stack (:mod:`repro.core.greedy`), the absorption loops
(:mod:`repro.core.mbc`) and the :class:`~repro.core.metrics.Metric`
subclasses all share one kernel with one knob:

* ``dtype`` — ``"float64"`` (default) computes through SciPy's ``cdist``
  and is the bit-exact reference path every parity test pins; with
  ``"float32"`` the Euclidean kernel switches to the cached-squared-norm
  GEMM formulation ``d(a,b)^2 = |a|^2 + |b|^2 - 2 a.b`` (squared norms —
  the reductions — are accumulated in float64 and rounded once; the
  cross-term runs as a float32 BLAS GEMM), and the L1/Linf kernels to
  float32 broadcast reductions.  Roughly half the memory traffic and a
  documented ~1e-6 relative error (see ``tests/test_kernels.py``).

Chunked consumers size their blocks with :func:`auto_chunk`, so a block
stays inside a fixed working-set budget.

A :class:`Workspace` is an ephemeral per-call scratch holder: reusable
output buffers keyed by tag (so a binary search over radius guesses
allocates its mask/gain matrices once, not per guess) and cached squared
norms keyed by array identity (so the GEMM kernel never recomputes
``|P|^2`` across guesses).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "KERNEL_DTYPES",
    "resolve_dtype",
    "auto_chunk",
    "sqnorms",
    "Workspace",
    "pairwise_kernel",
    "pair_distances",
]

#: Working-set budget (bytes) a chunked distance block should stay under.
#: 32 MiB keeps a block plus its boolean mask comfortably inside typical
#: L3 caches while amortizing per-call overhead.
DEFAULT_BLOCK_BYTES = 32 * 2**20

#: dtypes the kernel layer accepts (``None`` resolves to float64).
KERNEL_DTYPES = ("float32", "float64")

#: metric name -> scipy cdist metric for the float64 exact path
_CDIST_NAMES = {
    "euclidean": "euclidean",
    "chebyshev": "chebyshev",
    "manhattan": "cityblock",
}


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a ``dtype`` knob (``None`` / name / ``np.dtype``) to
    ``np.float32`` or ``np.float64``, rejecting anything else."""
    if dtype is None:
        return np.dtype(np.float64)
    dt = np.dtype(dtype)
    if dt.name not in KERNEL_DTYPES:
        raise ValueError(
            f"kernel dtype must be one of {KERNEL_DTYPES}, got {dtype!r}"
        )
    return dt


def auto_chunk(
    n_cols: int,
    dim: int = 1,
    dtype=None,
    budget_bytes: "int | None" = None,
) -> int:
    """Rows per distance block so ``rows x n_cols`` stays inside the
    working-set budget.

    ``dim`` accounts for the broadcast intermediates of the L1/Linf
    float32 kernels (``rows x n_cols x dim``); the cdist path passes the
    default.  Clamped to ``[64, 8192]`` so tiny inputs still batch and
    huge ones still amortize call overhead.
    """
    itemsize = resolve_dtype(dtype).itemsize
    budget = DEFAULT_BLOCK_BYTES if budget_bytes is None else int(budget_bytes)
    per_row = max(1, int(n_cols) * itemsize * max(1, int(dim)))
    return int(np.clip(budget // per_row, 64, 8192))


def sqnorms(x: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean norms, accumulated in float64."""
    x = np.asarray(x, dtype=np.float64)
    return np.einsum("ij,ij->i", x, x)


class Workspace:
    """Per-call scratch: reusable buffers plus a squared-norm cache.

    Intended lifetime is one outer call (e.g. one ``charikar_greedy``):
    the norm cache keys on array identity and keeps a strong reference,
    so it must not outlive the arrays it describes.
    """

    def __init__(self):
        self._buffers: "dict[tuple, np.ndarray]" = {}
        self._norms: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        self._subsets: "dict[tuple, tuple]" = {}

    def buffer(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable C-contiguous buffer of at least ``shape`` elements,
        returned as a view of exactly ``shape``.  Contents are garbage."""
        dt = np.dtype(dtype)
        size = int(np.prod(shape))
        key = (tag, dt.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dt)
            self._buffers[key] = buf
        return buf[:size].reshape(shape)

    #: norm-cache entry cap; one outer call only ever repeats a handful of
    #: distinct operands (the full point set, the matrix), so anything
    #: beyond this is churn from per-block slices that would never hit
    _NORM_CACHE_MAX = 32

    def sqnorms(self, x: np.ndarray) -> np.ndarray:
        """Cached :func:`sqnorms` keyed on the identity of ``x``.

        Worth it only for operands that recur across blocks/guesses;
        fresh slice views get fresh ids and would grow the cache without
        ever hitting, so the cache is bounded and reset on overflow.
        """
        cached = self._norms.get(id(x))
        if cached is not None and cached[0] is x:
            return cached[1]
        n = sqnorms(x)
        if len(self._norms) >= self._NORM_CACHE_MAX:
            self._norms.clear()
        self._norms[id(x)] = (x, n)
        return n

    def take(self, base: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``base[idx]`` with its squared norms *gathered*, not re-reduced.

        The norm cache keys on array identity, so every ``base[idx]`` a
        radius-guess scan materializes is a fresh array the cache has
        never seen — each guess used to pay a full re-reduction for the
        same subsets.  This gathers the rows' norms from the cached
        full-array reduction (``norm of row i`` is ``norm of row i``, so
        the gathered values are bit-identical) and seeds them in the norm
        cache under the subset's identity, so a following
        :func:`pairwise_kernel` call on the subset hits.  Repeated takes
        of the same ``(base, idx)`` are memoized by ``(id(base),
        hash(idx bytes))`` and return the *same* subset array.
        """
        idx = np.asarray(idx)
        key = (id(base), idx.size, hash(idx.tobytes()))
        cached = self._subsets.get(key)
        if cached is not None and cached[0] is base:
            return cached[1]
        full = self.sqnorms(base)
        sub = base[idx]
        if len(self._subsets) >= self._NORM_CACHE_MAX:
            self._subsets.clear()
        if len(self._norms) >= self._NORM_CACHE_MAX:
            self._norms.clear()
        self._norms[id(sub)] = (sub, full[idx])
        self._subsets[key] = (base, sub)
        return sub


def _as_points(x: np.ndarray, dtype) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    return x


def _euclidean_f32(
    a: np.ndarray, b: np.ndarray, workspace: "Workspace | None"
) -> np.ndarray:
    ws = workspace
    # a is typically a fresh per-block slice (new identity every call):
    # caching it would only churn the workspace, so compute it directly;
    # b is the operand that recurs across blocks and guesses.
    na = sqnorms(a).astype(np.float32)
    nb = (ws.sqnorms(b) if ws is not None else sqnorms(b)).astype(np.float32)
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    D = a32 @ b32.T  # float32 GEMM: the only O(n m d) term
    D *= -2.0
    D += na[:, None]
    D += nb[None, :]
    np.maximum(D, 0.0, out=D)  # the formulation can go slightly negative
    np.sqrt(D, out=D)
    return D


def _broadcast_f32(a: np.ndarray, b: np.ndarray, reduce: str) -> np.ndarray:
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    out = np.empty((len(a32), len(b32)), dtype=np.float32)
    rows = auto_chunk(len(b32), dim=a32.shape[1], dtype=np.float32)
    for i0 in range(0, len(a32), rows):
        diff = np.abs(a32[i0 : i0 + rows, None, :] - b32[None, :, :])
        if reduce == "max":
            np.max(diff, axis=-1, out=out[i0 : i0 + rows])
        else:
            np.sum(diff, axis=-1, out=out[i0 : i0 + rows])
    return out


def pairwise_kernel(
    kind: str,
    a: np.ndarray,
    b: np.ndarray,
    dtype=None,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Distance matrix of shape ``(len(a), len(b))`` under metric ``kind``.

    ``kind`` is one of ``"euclidean"``, ``"chebyshev"``, ``"manhattan"``.
    The float64 path is SciPy's ``cdist`` — bit-identical to the
    pre-kernels implementation, which the parity suite relies on.  The
    float32 path trades ~1e-6 relative accuracy for roughly half the
    memory traffic (and a BLAS GEMM formulation for Euclidean).
    """
    if kind not in _CDIST_NAMES:
        raise ValueError(
            f"unknown kernel {kind!r}; known: {sorted(_CDIST_NAMES)}"
        )
    dt = resolve_dtype(dtype)
    a = _as_points(a, np.float64)
    b = _as_points(b, np.float64)
    if a.size == 0 or b.size == 0:
        return np.zeros((len(a), len(b)), dtype=dt)
    if dt == np.float64:
        return cdist(a, b, metric=_CDIST_NAMES[kind])
    if kind == "euclidean":
        return _euclidean_f32(a, b, workspace)
    return _broadcast_f32(a, b, "max" if kind == "chebyshev" else "sum")


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
    loop (pinned by ``tests/test_kernels.py``).
    """
    if kind not in _CDIST_NAMES:
        raise ValueError(
            f"unknown kernel {kind!r}; known: {sorted(_CDIST_NAMES)}"
        )
    pts = _as_points(pts, np.float64)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if other is None:
        other = pts
    else:
        other = _as_points(other, np.float64)
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
