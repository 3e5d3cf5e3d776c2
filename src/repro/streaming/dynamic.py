"""Algorithm 5 — fully dynamic streaming coreset over ``[Delta]^d`` (§5.1).

For every grid ``G_i`` of the hierarchy (cell side ``2^i``) the algorithm
maintains two linear sketches keyed by cell id:

* an s-sample/sparse-recovery sketch ``S(G_i)`` (Lemma 20 / Lemma 22)
  from which all non-empty cells with their exact point counts can be
  recovered whenever at most ``s`` cells are non-empty, and
* an ``||F||_0`` estimator ``F(G_i)`` (Lemma 19) approximating the number
  of non-empty cells,

with ``s = k (4 sqrt(d)/eps)^d + z`` (Lemma 25).  A query walks the grids
from finest to coarsest, uses ``F(G_i)`` to find the first grid with at
most ``s`` non-empty cells, recovers its cells, and reports the weighted
cell centres — a *relaxed* ``(eps,k,z)``-coreset whp (Theorem 21).

Both sketches are linear, so insertions and deletions are symmetric
``+-1`` updates; the strict-turnstile discipline (never delete an absent
point) is the caller's contract, as in the paper.

:class:`DynamicKCenter` is the §5 remark made concrete: re-solving greedily
on the maintained coreset after every update yields the first fully
dynamic ``(3+eps)``-approximation for k-center with outliers whose update
time is independent of ``n``.
"""

from __future__ import annotations

import numpy as np

from ..core.greedy import charikar_greedy
from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..geometry.grid import GridHierarchy, integer_points
from ..geometry.packing import grid_cell_bound
from ..sketches.f0 import F0Estimator
from ..sketches.sparse_recovery import SketchParams, SketchStack

__all__ = ["DynamicCoreset", "DynamicKCenter"]


class DynamicCoreset:
    """Fully dynamic relaxed ``(eps,k,z)``-coreset over ``[Delta]^d``.

    Parameters
    ----------
    k, z, eps:
        Problem parameters.
    delta_universe:
        The universe size ``Delta``; coordinates are integers in
        ``1..Delta``.
    dim:
        Dimension ``d``.
    failure:
        Sketch failure probability knob ``delta`` (per paper, the
        polylog space factor).
    rng:
        Seeded generator for the sketch randomness.
    use_f0:
        When True (paper-faithful), grid selection first consults the F0
        estimators; when False, the query simply attempts sparse-recovery
        decoding per grid (cheaper, same output distribution — the
        ablation of experiment E6).

    Notes
    -----
    ``storage_cells`` reports total sketch cells, the quantity matching
    Theorem 21's ``O((k/eps^d + z) log^4(k Delta / eps delta))`` bound.
    The per-grid sparse-recovery sketches share one
    :class:`~repro.sketches.sparse_recovery.SketchStack` (grid ``i`` is
    sketch ``i``), so a batch updates every grid in one vectorized pass.
    """

    def __init__(
        self,
        k: int,
        z: int,
        eps: float,
        delta_universe: int,
        dim: int,
        failure: float = 0.05,
        rng: "np.random.Generator | None" = None,
        use_f0: bool = True,
        s_override: "int | None" = None,
    ):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        rng = rng or np.random.default_rng()
        self.k, self.z, self.eps = int(k), int(z), float(eps)
        self.hier = GridHierarchy(delta_universe, dim)
        self.s = int(s_override) if s_override is not None else grid_cell_bound(k, z, eps, dim)
        self.use_f0 = bool(use_f0)
        self._updates = 0
        self._levels = self.hier.levels()
        # draw order (kept for seed compatibility): grid i's sketch, then
        # grid i's F0 estimator
        params: "list[SketchParams]" = []
        self._f0: "list[F0Estimator | None]" = []
        for lvl in self._levels:
            params.append(SketchParams(self.s, lvl.num_cells, delta=failure, rng=rng))
            self._f0.append(
                F0Estimator(lvl.num_cells, eps=0.5, rng=rng) if use_f0 else None
            )
        self._sparse = SketchStack(params)

    # -- stream interface -------------------------------------------------

    def insert(self, point) -> None:
        """Insert one point of ``[Delta]^d``."""
        self._apply_batch(np.asarray(point).reshape(1, -1), +1)

    def delete(self, point) -> None:
        """Delete one previously inserted point (strict turnstile)."""
        self._apply_batch(np.asarray(point).reshape(1, -1), -1)

    def _apply_batch(self, points, sign: int) -> None:
        """Batched ``+-1`` updates: per grid, ONE vectorized cell-id pass;
        then one stacked update of every grid's sparse sketch with each
        distinct touched cell and its count, and one per F0 estimator.
        The sketches are linear, so the final state is identical to
        per-point updates.

        Every coordinate is checked to be an integer, every cell id is
        computed (which validates it against ``[Delta]^d``) and every
        sketch update prepared *before*
        any sketch is touched, so a bad batch raises with the structure
        unmutated — the batch is all-or-nothing, which is what makes the
        session's update accounting exact.
        """
        pts = integer_points(points)
        if len(pts) == 0:
            return
        per_level = [
            np.unique(lvl.cell_ids(pts), return_counts=True)
            for lvl in self._levels
        ]
        grids = np.repeat(np.arange(len(per_level)),
                          [len(cids) for cids, _ in per_level])
        cids = np.concatenate([cids for cids, _ in per_level])
        counts = np.concatenate([counts for _, counts in per_level])
        pending = [self._sparse.prepare(grids, cids, sign * counts)]
        pending += [f0.prepare(c, sign * n)
                    for f0, (c, n) in zip(self._f0, per_level) if f0 is not None]
        for update in pending:
            update.apply()
        self._updates += len(pts)

    def extend(self, points) -> None:
        """Insert a batch of points (vectorized cell-id computation)."""
        self._apply_batch(points, +1)

    def delete_many(self, points) -> None:
        """Delete a batch of previously inserted points."""
        self._apply_batch(points, -1)

    # -- accounting --------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        """Total sketch cells across all grids (Theorem 21's unit)."""
        total = self._sparse.storage_cells
        total += sum(f0.storage_cells for f0 in self._f0 if f0 is not None)
        return total

    @property
    def updates_seen(self) -> int:
        """Number of stream updates processed."""
        return self._updates

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        """Mutable state of every per-grid sketch.

        The sketch randomness (hash functions, fingerprint points) is
        *derived*, not stored: reconstructing the structure from the same
        seed re-draws it identically, and the per-sketch digests inside
        the state let :meth:`restore` verify that happened.
        """
        state: dict = {
            "updates": int(self._updates),
            "sparse": {str(i): self._sparse.snapshot(i)
                       for i in range(len(self._levels))},
        }
        if self.use_f0:
            state["f0"] = {str(i): f0.snapshot()
                           for i, f0 in enumerate(self._f0)}
        return state

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot`; queries afterwards are identical to
        the uninterrupted structure's (the sketches are linear)."""
        from ..persist import SnapshotError

        sparse = state["sparse"]
        if len(sparse) != len(self._levels):
            raise SnapshotError(
                f"snapshot has {len(sparse)} grids, structure has "
                f"{len(self._levels)} (delta_universe/dim mismatch)"
            )
        if bool(self.use_f0) != ("f0" in state):
            raise SnapshotError(
                "snapshot and structure disagree on use_f0"
            )
        self._sparse.restore([sparse[str(i)] for i in range(len(self._levels))])
        if self.use_f0:
            f0s = state["f0"]
            if len(f0s) != len(self._f0):
                raise SnapshotError("F0 estimator count mismatch")
            for i, f0 in enumerate(self._f0):
                f0.restore(f0s[str(i)])
        self._updates = int(state["updates"])

    # -- queries ------------------------------------------------------------

    def _select(self) -> "tuple[int, dict[int, int]]":
        """The finest grid whose F0 estimate (when enabled) admits at most
        ``s`` cells and whose sketch decodes to at most ``2s`` items, with
        those items."""
        for i, f0 in enumerate(self._f0):
            if f0 is not None and not f0.at_most(self.s):
                continue
            res = self._sparse.decode(i, max_items=2 * self.s + 2)
            if res.success and len(res.items) <= 2 * self.s:
                return i, res.items
            # F0 was optimistic or decode failed; try the next grid
        raise RuntimeError("all grid sketches failed to decode (sketch failure)")

    def coreset(self) -> WeightedPointSet:
        """Recover the relaxed ``(eps,k,z)``-coreset (Theorem 21).

        Walks grids finest-to-coarsest; for each candidate the F0 estimate
        is checked first (when enabled), then full recovery is attempted.
        Raises ``RuntimeError`` if every grid fails (probability bounded
        by the sketch failure parameter; never observed in tests).
        """
        level, items = self._select()
        if not items:
            return WeightedPointSet.empty(self.hier.dim)
        cells = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
        weights = np.fromiter(items.values(), dtype=np.int64, count=len(items))
        order = np.argsort(cells)
        return WeightedPointSet(self._levels[level].cell_centers(cells[order]),
                                weights[order])

    def selected_level(self) -> int:
        """Index of the grid the current query would report from."""
        return self._select()[0]


class DynamicKCenter:
    """Fully dynamic ``(3+eps)``-approximate k-center with outliers.

    Wraps :class:`DynamicCoreset`; :meth:`radius` re-runs the greedy
    3-approximation on the maintained coreset, so each query costs time
    polynomial in the coreset size only — the fast-update-time dynamic
    algorithm the paper notes was previously unknown (§1, discussion after
    Theorem 21).
    """

    def __init__(self, k: int, z: int, eps: float, delta_universe: int, dim: int,
                 metric=None, rng: "np.random.Generator | None" = None):
        self.core = DynamicCoreset(k, z, eps, delta_universe, dim, rng=rng)
        self.metric = get_metric(metric)
        self.k, self.z = int(k), int(z)

    def insert(self, point) -> None:
        """Insert a point."""
        self.core.insert(point)

    def delete(self, point) -> None:
        """Delete a point."""
        self.core.delete(point)

    def radius(self) -> float:
        """A ``3(1+O(eps))``-approximation of ``opt_{k,z}`` of the live
        point set."""
        cs = self.core.coreset()
        if len(cs) == 0 or cs.total_weight <= self.z:
            return 0.0
        return charikar_greedy(cs, self.k, self.z, self.metric).radius

    def centers(self) -> np.ndarray:
        """Greedy centers on the current coreset."""
        cs = self.core.coreset()
        if len(cs) == 0:
            return np.zeros((0, self.core.hier.dim))
        res = charikar_greedy(cs, self.k, self.z, self.metric)
        return cs.points[res.centers_idx]
