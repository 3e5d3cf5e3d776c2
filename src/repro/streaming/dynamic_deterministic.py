"""Deterministic fully dynamic coreset (the §5 discussion, realized).

The paper notes that Algorithm 5 is randomized only through its two
sketching subroutines, and that the sample-recovery side "can be made
deterministic by using the Vandermonde matrix"; what remains open is
*deterministically* testing whether a grid has at most ``O(s)`` non-empty
cells.  :class:`DeterministicDynamicCoreset` instantiates exactly that
design:

* per grid ``G_i``, a :class:`~repro.sketches.vandermonde.VandermondeSketch`
  of sparsity ``s = k (4 sqrt(d)/eps)^d + z`` (no F0 estimator at all);
* a query walks the grids finest-to-coarsest and returns the weighted
  cell centres of the first grid whose sketch decodes consistently.

Every component is deterministic; following the paper's caveat, the grid-
sparsity test is the decoder's consistency check (exact for supports up
to ``s + check``, heuristic beyond — see the module docstring of
``repro.sketches.vandermonde``).  Storage is ``O((k/eps^d + z) log Delta)``
field elements, matching the Omega((k/eps^d) log Delta + z) lower bound of
Theorem 28 up to the per-cell word size.
"""

from __future__ import annotations

import numpy as np

from ..core.points import WeightedPointSet
from ..geometry.grid import GridHierarchy, integer_points
from ..geometry.packing import grid_cell_bound
from ..sketches.vandermonde import PRIME_31, VandermondeSketch

__all__ = ["DeterministicDynamicCoreset"]


class DeterministicDynamicCoreset:
    """Fully dynamic relaxed ``(eps,k,z)``-coreset over ``[Delta]^d`` with
    no randomness anywhere.

    Parameters
    ----------
    k, z, eps:
        Problem parameters.
    delta_universe, dim:
        The discrete universe; ``delta_universe^dim`` must stay below
        ``2^31 - 2`` (the Vandermonde field), e.g. ``Delta = 2^15, d = 2``.
    check:
        Extra verification syndromes per sketch.
    s_override:
        Explicit sparsity (tests use small values).
    """

    def __init__(
        self,
        k: int,
        z: int,
        eps: float,
        delta_universe: int,
        dim: int,
        check: int = 4,
        s_override: "int | None" = None,
    ):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        self.k, self.z, self.eps = int(k), int(z), float(eps)
        self.hier = GridHierarchy(delta_universe, dim)
        self.s = int(s_override) if s_override is not None else grid_cell_bound(
            k, z, eps, dim
        )
        finest_cells = self.hier.level(0).num_cells
        if finest_cells + 1 >= PRIME_31:
            raise ValueError(
                f"universe Delta^d = {finest_cells} exceeds the Vandermonde "
                f"field; use the randomized DynamicCoreset instead"
            )
        self._levels = self.hier.levels()
        self._sketches = [
            VandermondeSketch(self.s, lvl.num_cells, check=check)
            for lvl in self._levels
        ]
        self._updates = 0

    # -- stream interface -------------------------------------------------

    def insert(self, point) -> None:
        """Insert a point of ``[Delta]^d``."""
        self._apply_batch(np.asarray(point).reshape(1, -1), +1)

    def delete(self, point) -> None:
        """Delete a previously inserted point (strict turnstile)."""
        self._apply_batch(np.asarray(point).reshape(1, -1), -1)

    def _apply_batch(self, points, sign: int) -> None:
        """Batched updates: one vectorized cell-id pass per grid, one
        field update per distinct touched cell (linearity makes this
        exactly equivalent to per-point updates).  All coordinates are
        checked to be integers and all cell ids computed (validating every
        coordinate) before any field update, so a bad batch raises with
        the structure unmutated (all-or-nothing)."""
        pts = integer_points(points)
        if len(pts) == 0:
            return
        per_level = [
            np.unique(lvl.cell_ids(pts), return_counts=True)
            for lvl in self._levels
        ]
        self._updates += len(pts)
        for (cids, counts), sk in zip(per_level, self._sketches):
            for cid, c in zip(cids.tolist(), counts.tolist()):
                sk.update(int(cid), sign * int(c))

    def extend(self, points) -> None:
        """Insert a batch of points (vectorized cell-id computation)."""
        self._apply_batch(points, +1)

    def delete_many(self, points) -> None:
        """Delete a batch of previously inserted points."""
        self._apply_batch(points, -1)

    # -- accounting --------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        """Field elements across all grids: ``(2s + check) * (log Delta + 1)``."""
        return sum(sk.storage_cells for sk in self._sketches)

    @property
    def updates_seen(self) -> int:
        return self._updates

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable state: every grid's syndrome vector (no randomness)."""
        return {
            "updates": int(self._updates),
            "sketches": {str(i): sk.snapshot()
                         for i, sk in enumerate(self._sketches)},
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` across the grids."""
        from ..persist import SnapshotError

        sketches = state["sketches"]
        if len(sketches) != len(self._sketches):
            raise SnapshotError(
                f"snapshot has {len(sketches)} grids, structure has "
                f"{len(self._sketches)} (delta_universe/dim mismatch)"
            )
        for i, sk in enumerate(self._sketches):
            sk.restore(sketches[str(i)])
        self._updates = int(state["updates"])

    # -- queries ------------------------------------------------------------

    def coreset(self) -> WeightedPointSet:
        """The relaxed ``(eps,k,z)``-coreset from the finest decodable
        grid.  Deterministic: same update sequence, same output."""
        for lvl, sk in zip(self._levels, self._sketches):
            res = sk.decode()
            if not res.success or len(res.items) > self.s:
                continue
            if not res.items:
                return WeightedPointSet.empty(self.hier.dim)
            cells = np.array(sorted(res.items), dtype=np.int64)
            weights = np.array([res.items[c] for c in cells.tolist()], dtype=np.int64)
            return WeightedPointSet(lvl.cell_centers(cells), weights)
        raise RuntimeError(
            "no grid decoded; the live set's support exceeds the sketches' "
            "capacity at every level (cannot happen when s follows Lemma 25)"
        )

    def selected_level(self) -> int:
        """Index of the grid the current query reports from."""
        for i, sk in enumerate(self._sketches):
            res = sk.decode()
            if res.success and len(res.items) <= self.s:
                return i
        raise RuntimeError("no grid decoded")
