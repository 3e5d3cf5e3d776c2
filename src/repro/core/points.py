"""Weighted point sets.

The paper's weighted k-center problem assigns each point a positive
integer weight; the total *weight* (not count) of outliers must be at most
``z``.  :class:`WeightedPointSet` is the container every algorithm in this
library consumes and produces.

Design notes (per the HPC guides): points live in a single contiguous
``(n, d)`` float64 array and weights in an ``(n,)`` int64 array, so all
distance work is vectorized and no per-point Python objects exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WeightedPointSet"]


@dataclass(frozen=True)
class WeightedPointSet:
    """An immutable weighted point set in ``R^d``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` with finite coordinates; NaN or
        infinite ones raise :class:`ValueError`.
    weights:
        Integer array of shape ``(n,)`` with strictly positive entries.
        Integral floats (``2.0``) coerce; fractional or non-finite ones
        raise :class:`ValueError`.  If omitted, unit weights are used.
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-d, got shape {pts.shape}")
        # a NaN compares false with every radius, an inf is covered by
        # none: either would corrupt every distance-based decision
        if not np.isfinite(pts).all():
            raise ValueError("points must have finite coordinates")
        object.__setattr__(self, "points", pts)
        if self.weights is None:
            w = np.ones(len(pts), dtype=np.int64)
        else:
            w = np.asarray(self.weights)
            # float weights must be exact integers: never truncate 1.7 to 1
            if w.dtype.kind == "f" and not np.all(np.isfinite(w) & (w == np.floor(w))):
                raise ValueError("weights must be finite integers")
            w = w.astype(np.int64, copy=False)
        if w.shape != (len(pts),):
            raise ValueError(
                f"weights shape {w.shape} does not match {len(pts)} points"
            )
        if len(w) and w.min() <= 0:
            raise ValueError("weights must be strictly positive integers")
        object.__setattr__(self, "weights", w)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_points(points: np.ndarray) -> "WeightedPointSet":
        """Unit-weight point set."""
        return WeightedPointSet(np.asarray(points, dtype=float))

    @staticmethod
    def empty(dim: int) -> "WeightedPointSet":
        """The empty point set in ``R^dim``."""
        return WeightedPointSet(np.zeros((0, dim)), np.zeros(0, dtype=np.int64))

    @staticmethod
    def concat(sets: "list[WeightedPointSet]") -> "WeightedPointSet":
        """Disjoint union (weights are kept per-row; duplicate coordinates
        are *not* merged — use :meth:`merged` for that)."""
        sets = [s for s in sets if len(s)]
        if not sets:
            raise ValueError("cannot concat zero non-empty sets; use empty(dim)")
        dim = sets[0].dim
        for s in sets:
            if s.dim != dim:
                raise ValueError("dimension mismatch in concat")
        return WeightedPointSet(
            np.concatenate([s.points for s in sets], axis=0),
            np.concatenate([s.weights for s in sets]),
        )

    # -- basic accessors -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Ambient dimension ``d``."""
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> int:
        """Sum of all point weights (``w(P)`` in the paper)."""
        return int(self.weights.sum())

    # -- derived sets ----------------------------------------------------------

    def subset(self, index) -> "WeightedPointSet":
        """Sub-point-set selected by a boolean mask or integer index array."""
        index = np.asarray(index)
        return WeightedPointSet(self.points[index], self.weights[index])

    def with_weights(self, weights: np.ndarray) -> "WeightedPointSet":
        """Same coordinates, different weights."""
        return WeightedPointSet(self.points.copy(), weights)

    def merged(self, decimals: int = 12) -> "WeightedPointSet":
        """Merge coincident points (up to rounding) by summing weights.

        Useful when re-inserting points in adversarial streams; the paper
        notes that a weight-2 point is equivalent to two coincident unit
        points.
        """
        if len(self) == 0:
            return self
        key = np.round(self.points, decimals)
        uniq, inverse = np.unique(key, axis=0, return_inverse=True)
        w = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(w, inverse, self.weights)
        # keep one original representative coordinate per group
        first = np.full(len(uniq), -1, dtype=np.int64)
        for i, g in enumerate(inverse):
            if first[g] < 0:
                first[g] = i
        return WeightedPointSet(self.points[first], w)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Serialize to a compressed ``.npz`` file (coreset hand-off
        between processes/machines, experiment artifacts)."""
        np.savez_compressed(path, points=self.points, weights=self.weights)

    @staticmethod
    def load(path) -> "WeightedPointSet":
        """Load a point set previously written by :meth:`save`."""
        with np.load(path) as data:
            return WeightedPointSet(data["points"], data["weights"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightedPointSet(n={len(self)}, dim={self.dim}, "
            f"total_weight={self.total_weight})"
        )
