"""Metric-space abstraction.

The paper works in an arbitrary metric space ``(X, dist)`` of doubling
dimension ``d``.  All algorithms in this library only touch the metric
through two vectorized operations:

* :meth:`Metric.pairwise` — the full distance matrix between two point
  arrays, and
* :meth:`Metric.to_set` — distances from a single point to a point array.

Concrete subclasses are provided for the norms the paper uses:
Euclidean (:class:`EuclideanMetric`), Chebyshev / ``L_inf``
(:class:`ChebyshevMetric`, used by the sliding-window lower bound in §6),
and Manhattan (:class:`ManhattanMetric`).  ``R^d`` under any of these has
doubling dimension ``Theta(d)``.

A :class:`CallableMetric` adapter wraps an arbitrary
``dist(p, q) -> float`` for genuinely non-Euclidean doubling spaces; it is
slower (Python loop) and intended for tests and small instances.
"""

from __future__ import annotations

import numpy as np

from ..kernels import pairwise_kernel

__all__ = [
    "Metric",
    "EuclideanMetric",
    "ChebyshevMetric",
    "ManhattanMetric",
    "CallableMetric",
    "PrecomputedMetric",
    "get_metric",
]


class Metric:
    """Abstract metric.  Subclasses must implement :meth:`pairwise`.

    Attributes
    ----------
    name:
        Short identifier (``"euclidean"``, ``"chebyshev"``, ...).
    """

    name: str = "abstract"

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix of shape ``(len(a), len(b))``.

        Parameters
        ----------
        a, b:
            Arrays of shape ``(n, d)`` and ``(m, d)``.
        """
        raise NotImplementedError

    def to_set(self, q: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances from a single point ``q`` (shape ``(d,)``) to each row
        of ``b`` (shape ``(m, d)``), returned as shape ``(m,)``."""
        q = np.asarray(q, dtype=float)
        if b.size == 0:
            return np.zeros(0)
        return self.pairwise(q[None, :], np.asarray(b, dtype=float))[0]

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        """Distance between two single points."""
        return float(self.to_set(np.asarray(p), np.asarray(q, dtype=float)[None, :])[0])

    def doubling_dimension(self, d: int) -> int:
        """Doubling dimension of ``R^d`` under this metric.

        For the norms implemented here the doubling dimension is
        ``Theta(d)``; we return ``d`` itself, which is the convention the
        paper uses (``R^d`` under ``L_inf`` has doubling dimension exactly
        ``d``, see §6).
        """
        return int(d)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _KernelMetric(Metric):
    """A norm with a dedicated entry in :mod:`repro.kernels`.

    ``pairwise`` routes through the kernel layer's float64 path (SciPy
    ``cdist`` — bit-identical to the pre-kernels implementation).
    """

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return pairwise_kernel(self.name, a, b)


class EuclideanMetric(_KernelMetric):
    """The ``L_2`` norm on ``R^d``."""

    name = "euclidean"


class ChebyshevMetric(_KernelMetric):
    """The ``L_inf`` norm on ``R^d``.

    Used by the sliding-window lower bound (§6), where the paper notes that
    the doubling dimension of ``R^d`` under ``L_inf`` is exactly ``d``.
    """

    name = "chebyshev"


class ManhattanMetric(_KernelMetric):
    """The ``L_1`` norm on ``R^d``."""

    name = "manhattan"


class CallableMetric(Metric):
    """Adapter wrapping a scalar ``dist(p, q)`` callable.

    Parameters
    ----------
    fn:
        A symmetric, non-negative callable satisfying the triangle
        inequality.
    name:
        Identifier used in reprs and reports.
    doubling:
        Optional override for :meth:`doubling_dimension` (a constant,
        independent of the ambient coordinate count).
    """

    def __init__(self, fn, name: str = "callable", doubling: int | None = None):
        self._fn = fn
        self.name = name
        self._doubling = doubling

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        out = np.zeros((len(a), len(b)))
        for i in range(len(a)):
            for j in range(len(b)):
                out[i, j] = self._fn(a[i], b[j])
        return out

    def doubling_dimension(self, d: int) -> int:
        if self._doubling is not None:
            return int(self._doubling)
        return super().doubling_dimension(d)


class PrecomputedMetric(Metric):
    """A finite metric space given by a distance matrix.

    This is how the paper's *general* metric spaces of bounded doubling
    dimension (§1) are exercised: "points" are single-coordinate arrays
    holding integer element ids ``0..n-1``, and distances are looked up in
    the (symmetric, non-negative, triangle-inequality-satisfying) matrix
    ``D`` — fully vectorized, unlike :class:`CallableMetric`.

    Parameters
    ----------
    D:
        ``(n, n)`` distance matrix.
    name:
        Identifier for reprs and reports.
    doubling:
        Optional doubling dimension of the space (used by size-bound
        helpers; measure it with
        :func:`repro.workloads.graph.estimate_doubling_dimension` for
        graph metrics).
    validate:
        Check symmetry, zero diagonal and non-negativity up front.
    """

    def __init__(self, D: np.ndarray, name: str = "precomputed",
                 doubling: "int | None" = None, validate: bool = True):
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("D must be a square matrix")
        if validate:
            if (D < 0).any():
                raise ValueError("distances must be non-negative")
            if not np.allclose(D, D.T):
                raise ValueError("distance matrix must be symmetric")
            if not np.allclose(np.diag(D), 0.0):
                raise ValueError("diagonal must be zero")
        self.D = D
        self.name = name
        self._doubling = doubling

    @property
    def n_elements(self) -> int:
        """Number of points in the finite space."""
        return len(self.D)

    def _ids(self, a: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a))
        if a.shape[1] != 1:
            raise ValueError(
                "PrecomputedMetric points are single-column element ids"
            )
        ids = a[:, 0].astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.D)):
            raise ValueError("element id out of range")
        return ids

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ia, ib = self._ids(a), self._ids(b)
        if ia.size == 0 or ib.size == 0:
            return np.zeros((len(ia), len(ib)))
        return self.D[np.ix_(ia, ib)]

    def doubling_dimension(self, d: int) -> int:
        if self._doubling is not None:
            return int(self._doubling)
        return super().doubling_dimension(d)


_REGISTRY = {
    "euclidean": EuclideanMetric,
    "l2": EuclideanMetric,
    "chebyshev": ChebyshevMetric,
    "linf": ChebyshevMetric,
    "l_inf": ChebyshevMetric,
    "manhattan": ManhattanMetric,
    "l1": ManhattanMetric,
}


def get_metric(metric: "Metric | str | None") -> Metric:
    """Resolve a metric argument.

    Accepts an existing :class:`Metric` instance, a registry name
    (``"euclidean"``, ``"linf"``, ``"l1"``, ...), or ``None`` (defaults to
    Euclidean).
    """
    if metric is None:
        return EuclideanMetric()
    if isinstance(metric, Metric):
        return metric
    key = str(metric).lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown metric {metric!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]()
