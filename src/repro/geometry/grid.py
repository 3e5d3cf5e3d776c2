"""Grids: the paper's hierarchical integer grids (§5.1) and a float-
coordinate bucket grid for radius-bounded candidate queries.

The fully dynamic streaming algorithm imposes grids
``G_0, G_1, ..., G_{ceil(log Delta)}`` on ``[Delta]^d = {1,...,Delta}^d``,
where cells of ``G_i`` are hypercubes of side ``2^i``.  Each non-empty cell
of a grid is identified by a single integer *cell id* so that it can be fed
to the linear sketches of :mod:`repro.sketches`.

Coordinates are the paper's 1-based integers in ``{1, ..., Delta}``;
internally they are shifted to 0-based so cell indices are simple shifts.

:class:`PointGrid` serves the radius-search and absorption hot paths
(:mod:`repro.core.greedy`, :mod:`repro.core.mbc`): it buckets float
coordinates into cells of a caller-chosen side and answers "all points
within distance ``D`` of here" with a superset drawn from the
``(2R+1)^d`` surrounding cells, entirely through sorted int64 cell codes
(no Python dicts in the per-cell loops).

:class:`CellIndex` is its growable counterpart for a point set that gains
members over time (Algorithm 3's representatives between radius
doublings): the same quantization, with absolute cell codes, so points
outside the index can be queried and new members appended.

:class:`PointGridHierarchy` is the persistent form the radius search
uses: a lazily materialized geometric ladder of :class:`PointGrid`
levels (side ``base_side * 2^i``) over one point set, so the
~``log(r_max/r_min)`` guesses of a search snap to shared levels instead
of re-bucketing the points per guess, and coarser levels derive their
sorted cell-code index from an already-built finer level (an argsort
over *cells*, not points).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

__all__ = [
    "GridLevel",
    "GridHierarchy",
    "PointGrid",
    "PointGridHierarchy",
    "CellIndex",
]

#: per-axis cell-index magnitude bound; keeps the ``p / side`` rounding
#: error below the 5e-7 ring slack of :func:`cell_ring` and every code
#: product in int64
_MAX_CELL_INDEX = 2.0**30


def quantize(pts: np.ndarray, side: float) -> "np.ndarray | None":
    """Per-axis cell indices ``floor(pts / side)`` as int64, or ``None``
    when they cannot be trusted: a non-positive or non-finite side,
    non-finite coordinates, or an index at or beyond ``2^30`` in
    magnitude (see :class:`PointGrid` for the error argument)."""
    if side <= 0 or not np.isfinite(side):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.floor(np.asarray(pts, dtype=np.float64) / side)
    if not np.isfinite(q).all() or (np.abs(q) >= _MAX_CELL_INDEX).any():
        return None
    return q.astype(np.int64)


def cutoff_side(cutoff: float, pts: np.ndarray) -> float:
    """A cell side for ring-1 queries at ``cutoff`` over ``pts``: just
    above the cutoff (the ``1e-6`` slack keeps :func:`cell_ring` at 1),
    floored so the cell indices of ``pts`` stay under the ``2^30`` guard
    even for tiny cutoffs.  A larger side is always sound — it only
    admits more candidates."""
    pts = np.asarray(pts)
    maxabs = float(np.max(np.abs(pts))) if pts.size else 0.0
    return max(cutoff * (1.0 + 1e-6), maxabs * 2.0**-29)


def cell_ring(dist: float, side: float) -> int:
    """Chebyshev cell-ring radius guaranteed to contain every point
    within ``dist`` of a point, for cells of ``side`` quantized by
    :func:`quantize` (the ``+ 5e-7`` slack covers the rounding of
    ``p / side``)."""
    return int(np.floor(dist / side + 5e-7)) + 1


@dataclass(frozen=True)
class GridLevel:
    """One grid ``G_i`` with cells of side ``2^i`` over ``[Delta]^d``.

    Attributes
    ----------
    level:
        The index ``i``; cell side length is ``2**level``.
    delta:
        Universe size ``Delta`` (coordinates in ``1..Delta``).
    dim:
        Dimension ``d``.
    """

    level: int
    delta: int
    dim: int

    @property
    def side(self) -> int:
        """Cell side length ``2^i``."""
        return 1 << self.level

    @property
    def cells_per_axis(self) -> int:
        """Number of cells along each axis, ``ceil(Delta / 2^i)``."""
        return -(-self.delta // self.side)

    @property
    def num_cells(self) -> int:
        """Total number of cells (the sketch universe size for this grid)."""
        return self.cells_per_axis**self.dim

    def _check(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.int64))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points must have dim {self.dim}, got {pts.shape[1]}")
        if pts.size and (pts.min() < 1 or pts.max() > self.delta):
            raise ValueError(f"coordinates must lie in 1..{self.delta}")
        return pts

    def cell_ids(self, pts: np.ndarray) -> np.ndarray:
        """Flattened cell id for each point (shape ``(n,)``).

        The id is the mixed-radix encoding of the per-axis cell indices;
        ids of distinct cells are distinct and lie in
        ``[0, num_cells)``.
        """
        pts = self._check(pts)
        idx = (pts - 1) >> self.level
        m = self.cells_per_axis
        out = np.zeros(len(pts), dtype=np.int64)
        for a in range(self.dim):
            out = out * m + idx[:, a]
        return out

    def cell_id(self, pt) -> int:
        """Cell id of a single point."""
        return int(self.cell_ids(np.asarray(pt, dtype=np.int64)[None, :])[0])

    def cell_center(self, cell_id: int) -> np.ndarray:
        """Geometric centre of a cell, in original (1-based, continuous)
        coordinates.

        Algorithm 5 uses cell centres as the representatives of a relaxed
        coreset; any point of the cell is within ``side * sqrt(d) / 2``
        (Euclidean) of the centre.
        """
        m = self.cells_per_axis
        idx = np.zeros(self.dim, dtype=np.int64)
        cid = int(cell_id)
        if cid < 0 or cid >= self.num_cells:
            raise ValueError(f"cell id {cell_id} out of range")
        for a in range(self.dim - 1, -1, -1):
            idx[a] = cid % m
            cid //= m
        lo = idx.astype(float) * self.side + 1.0  # smallest coordinate in cell
        return lo + (self.side - 1) / 2.0

    def cell_diameter_linf(self) -> float:
        """``L_inf`` diameter of a cell (``side - 1`` on the integer grid,
        but we use the conservative continuous value ``side``)."""
        return float(self.side)


@dataclass(frozen=True)
class GridHierarchy:
    """The full collection ``G_0 .. G_L`` with ``L = ceil(log2 Delta)``.

    Parameters
    ----------
    delta:
        Universe size ``Delta >= 2``.
    dim:
        Dimension ``d >= 1``.
    """

    delta: int
    dim: int

    def __post_init__(self):
        if self.delta < 2:
            raise ValueError("Delta must be at least 2")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    @property
    def num_levels(self) -> int:
        """``ceil(log2 Delta) + 1`` levels (G_0 .. G_L inclusive)."""
        return int(ceil(log2(self.delta))) + 1

    def level(self, i: int) -> GridLevel:
        """The grid ``G_i``."""
        if not 0 <= i < self.num_levels:
            raise ValueError(f"level {i} out of range 0..{self.num_levels - 1}")
        return GridLevel(level=i, delta=self.delta, dim=self.dim)

    def levels(self) -> "list[GridLevel]":
        """All grids, finest (``G_0``) first."""
        return [self.level(i) for i in range(self.num_levels)]

    def finest_level_for_radius(self, r: float, eps: float) -> int:
        """The level ``j`` with ``2^j <= (eps / sqrt(d)) * r < 2^{j+1}``
        (clamped to the valid range) — the grid Lemma 25 proves has at most
        ``k (4 sqrt(d)/eps)^d + z`` non-empty cells when ``r = opt``."""
        if r <= 0:
            return 0
        target = eps * r / np.sqrt(self.dim)
        j = int(np.floor(np.log2(max(target, 1e-300))))
        return max(0, min(self.num_levels - 1, j))


class PointGrid:
    """A uniform bucket grid over float coordinates.

    Points are quantized to cells ``floor(p / side)`` per axis; each
    non-empty cell gets one int64 *code* (a mixed-radix encoding over the
    occupied extent, padded so a Chebyshev neighbor offset is a single
    scalar delta added to the code).  Cell codes are kept sorted, so
    neighbor lookup is a vectorized ``searchsorted`` — no per-cell Python
    dictionaries.

    Soundness (the contract the greedy/absorption loops rely on): for the
    built-in norms, ``dist(u, v) <= D`` implies per-coordinate
    ``|u_a - v_a| <= D``, so the quantized cells of ``u`` and ``v`` differ
    by at most :meth:`ring` ``(D)`` per axis.  The ``+ 5e-7`` slack in
    :meth:`ring` strictly dominates the float64 rounding of ``p / side``
    under the ``|floor(p/side)| < 2^30`` guard :meth:`build` enforces
    (relative error ``<= 2^30 * 2^-52 < 2.5e-7`` per operand), so the
    candidate superset never misses a true neighbor.  Distances are always
    re-evaluated exactly by the caller — the grid only *prunes*.

    Build with :meth:`build`, which returns ``None`` whenever the
    quantization cannot be trusted (non-finite coordinates, cells too
    small relative to the coordinate magnitude, code overflow); callers
    fall back to their dense scans in that case.
    """

    def __init__(self, codes, order, cell_codes, cell_starts, cell_counts,
                 point_cell, radix, side, max_ring, cell_axes=None):
        self.n = len(codes)
        self.dim = len(radix)
        self.side = float(side)
        self.max_ring = int(max_ring)
        self.codes = codes
        #: point indices sorted by cell; ``order[starts[c]:starts[c]+counts[c]]``
        #: are the members of cell ``c``
        self.order = order
        self.cell_codes = cell_codes
        self.cell_starts = cell_starts
        self.cell_counts = cell_counts
        #: index into ``cell_codes`` of each point's cell
        self.point_cell = point_cell
        self._radix = radix
        #: absolute per-axis quantized indices of each non-empty cell
        #: (``(num_cells, d)`` int64) — what a coarser hierarchy level
        #: derives its own cells from via a right-shift
        self.cell_axes = cell_axes
        self._deltas: "dict[int, np.ndarray]" = {}

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return len(self.cell_codes)

    @classmethod
    def build(cls, pts: np.ndarray, side: float,
              max_ring: int = 3) -> "PointGrid | None":
        """Bucket ``pts`` (shape ``(n, d)``) into cells of ``side``.

        ``max_ring`` is the largest Chebyshev cell ring queries will ask
        for; the per-axis code radix is padded by ``2 * max_ring`` so
        every in-ring offset maps to a distinct delta code.  Returns
        ``None`` when the quantized cell indices cannot be trusted.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        n, d = pts.shape
        if n == 0:
            return None
        qi = quantize(pts, side)
        if qi is None:
            return None
        qmin = qi.min(axis=0)
        extents = qi.max(axis=0) - qmin + 1
        padded = extents + 2 * int(max_ring)
        if float(np.prod(padded.astype(np.float64))) >= 2.0**62:
            return None
        radix = np.ones(d, dtype=np.int64)
        for a in range(d - 2, -1, -1):
            radix[a] = radix[a + 1] * padded[a + 1]
        codes = ((qi - qmin) * radix).sum(axis=1)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        cell_codes = sorted_codes[starts]
        counts = np.diff(np.append(starts, n))
        point_cell = np.searchsorted(cell_codes, codes)
        # absolute axis indices of each cell, read off its first member
        cell_axes = qi[order[starts]]
        return cls(codes, order, cell_codes, starts.astype(np.int64),
                   counts.astype(np.int64), point_cell, radix, side, max_ring,
                   cell_axes)

    def ring(self, dist: float) -> int:
        """Chebyshev cell-ring radius guaranteed to contain every point
        within ``dist`` (see the class docstring for the slack argument)."""
        r = cell_ring(dist, self.side)
        if r > self.max_ring:
            raise ValueError(
                f"ring {r} for dist {dist!r} exceeds max_ring={self.max_ring} "
                f"(side {self.side!r}); build the grid with a larger max_ring"
            )
        return r

    def neighbor_deltas(self, R: int) -> np.ndarray:
        """Delta codes of all ``(2R+1)^d`` Chebyshev offsets (cached)."""
        deltas = self._deltas.get(R)
        if deltas is None:
            axes = np.meshgrid(*([np.arange(-R, R + 1)] * self.dim),
                               indexing="ij")
            offsets = np.stack(axes, axis=-1).reshape(-1, self.dim)
            deltas = (offsets * self._radix).sum(axis=1)
            self._deltas[R] = deltas
        return deltas

    def neighbors_of_cells(
        self, cells: np.ndarray, R: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Match the ring-``R`` neighborhoods of the given cells.

        Returns ``(src, nbr)`` — parallel arrays meaning "non-empty cell
        ``nbr`` (an index into ``cell_codes``) lies within Chebyshev ring
        ``R`` of ``cells[src]``", with ``src`` ascending (every cell
        neighbors at least itself).
        """
        deltas = self.neighbor_deltas(R)
        targets = self.cell_codes[cells][:, None] + deltas[None, :]
        pos = np.searchsorted(self.cell_codes, targets)
        pos_c = np.minimum(pos, self.num_cells - 1)
        valid = self.cell_codes[pos_c] == targets
        src_local, _ = np.nonzero(valid)
        return src_local, pos_c[valid]

    def points_in_cells(self, cells: np.ndarray) -> np.ndarray:
        """Concatenated member point indices of the given cells (a fully
        vectorized ragged gather; duplicated cells yield duplicates)."""
        cnt = self.cell_counts[cells]
        total = int(cnt.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        out_offsets = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        flat = (np.repeat(self.cell_starts[cells], cnt)
                + np.arange(total) - np.repeat(out_offsets, cnt))
        return self.order[flat]

    def query_point(self, i: int, dist: float) -> np.ndarray:
        """Candidate superset of points within ``dist`` of point ``i``."""
        _, nbr = self.neighbors_of_cells(
            np.asarray([self.point_cell[i]]), self.ring(dist))
        return self.points_in_cells(nbr)

    def query_cells_union(self, cells: np.ndarray, dist: float) -> np.ndarray:
        """Candidate superset of points within ``dist`` of any point in any
        of the given cells (each candidate exactly once)."""
        _, nbr = self.neighbors_of_cells(np.unique(cells), self.ring(dist))
        return self.points_in_cells(np.unique(nbr))

    def candidate_pairs(
        self, dist: float, max_pairs: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """Every (point, candidate) pair whose cells lie within
        :meth:`ring` ``(dist)`` of each other, grouped by point.

        Returns ``(pos, i, j)``: pair ``t`` pairs point ``i[t]`` with
        candidate ``j[t]``, and ``pos[t]`` is the position of ``i[t]`` in
        :attr:`order` (non-decreasing, so pairs come grouped by point in
        cell order).  A superset of all pairs within ``dist``, each point
        paired with itself too.  Returns ``None`` without expanding when
        the exact pair count, ``sum(counts[c] * counts[c'])`` over
        neighboring cells ``c, c'``, or the neighbor-cell lookup would
        exceed ``max_pairs``.
        """
        R = self.ring(dist)
        if self.num_cells * len(self.neighbor_deltas(R)) > max_pairs:
            return None
        src, nbr = self.neighbors_of_cells(np.arange(self.num_cells), R)
        # members of each cell's neighborhood, concatenated cell by cell
        reach = np.bincount(src, weights=self.cell_counts[nbr],
                            minlength=self.num_cells).astype(np.int64)
        if int(reach @ self.cell_counts) > max_pairs:
            return None
        members = self.points_in_cells(nbr)
        first = np.concatenate(([0], np.cumsum(reach)))[:-1]
        # one candidate run per point, points in cell order
        cell_of = np.repeat(np.arange(self.num_cells), self.cell_counts)
        run = reach[cell_of]
        total = int(run.sum())
        pos = np.repeat(np.arange(self.n), run)
        offsets = np.concatenate(([0], np.cumsum(run)))[:-1]
        flat = np.arange(total) - np.repeat(offsets - first[cell_of], run)
        return pos, self.order[pos], members[flat]


class CellIndex:
    """A growable cell index: radius-bounded candidate queries for points
    that are not in the index, over a point set that grows.

    :class:`PointGrid` is built once over a fixed point set and codes its
    cells relative to their occupied extent.  This index quantizes the
    same way (:func:`quantize`, the same guard, the same :func:`cell_ring`
    slack), but codes a cell from its absolute indices, ``sum_a q_a *
    M^(d-1-a)`` with ``M = 2^floor(62/d)`` in wrapping int64 arithmetic,
    so points added later never move existing codes and any point can be
    encoded and queried.  The code is linear, so a neighbor offset is a
    scalar delta even under wrap-around; it is one-to-one for ``d <= 2``
    (indices below ``2^30``).  For ``d >= 3`` distant cells can share a
    code, which only adds candidates: the candidate set stays a superset
    of the true neighbors, and callers re-check distances exactly.

    Members are kept sorted by code (ties in insertion order) in two
    parallel int64 arrays; :meth:`add` merges a batch with one
    ``searchsorted`` + ``insert``.
    """

    def __init__(self, side: float, dim: int, reach: float):
        self.side = float(side)
        self.dim = int(dim)
        #: the query distance every candidate set covers
        self.reach = float(reach)
        ring = cell_ring(reach, side)
        radix = np.int64(1) << np.int64(62 // self.dim)
        self._radix = radix ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        axes = np.meshgrid(*([np.arange(-ring, ring + 1)] * self.dim),
                           indexing="ij")
        offsets = np.stack(axes, axis=-1).reshape(-1, self.dim)
        self._deltas = offsets @ self._radix
        self._codes = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._codes)

    def encode(self, pts: np.ndarray) -> "np.ndarray | None":
        """Cell codes of ``pts`` (shape ``(n, dim)``), or ``None`` when
        :func:`quantize` refuses them."""
        q = quantize(pts, self.side)
        if q is None:
            return None
        with np.errstate(over="ignore"):
            return q @ self._radix

    def add(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Insert members ``ids`` with cell ``codes`` (from :meth:`encode`)."""
        codes = np.asarray(codes, dtype=np.int64)
        o = np.argsort(codes, kind="stable")
        pos = np.searchsorted(self._codes, codes[o], side="right")
        self._codes = np.insert(self._codes, pos, codes[o])
        self._ids = np.insert(self._ids, pos,
                              np.asarray(ids, dtype=np.int64)[o])

    def pairs(self, codes: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Candidates for query points with cell ``codes``: ``(q, ids)``
        pairs, grouped by query index ``q`` ascending.  Every member
        within :attr:`reach` of query ``q`` appears paired with it."""
        with np.errstate(over="ignore"):
            targets = (np.asarray(codes, dtype=np.int64)[:, None]
                       + self._deltas[None, :]).ravel()
        lo = np.searchsorted(self._codes, targets, side="left")
        cnt = np.searchsorted(self._codes, targets, side="right") - lo
        total = int(cnt.sum())
        src = np.repeat(np.arange(len(targets)) // len(self._deltas), cnt)
        starts = np.cumsum(cnt) - cnt
        flat = np.repeat(lo - starts, cnt) + np.arange(total)
        return src, self._ids[flat]


#: below this many estimated candidate pairs a pruned scan costs less
#: than quantizing the points into a fresh exact-side grid, so
#: :meth:`PointGridHierarchy.grid_for` keeps the snapped level
_REFINE_MIN_PAIRS = 2e7


class PointGridHierarchy:
    """A lazily materialized geometric ladder of :class:`PointGrid` levels.

    Level ``i`` (any integer, negative included) buckets the point set
    into cells of side ``base_side * 2**i``.  Levels are built on demand
    and memoized, so one radius search touches each distinct level once
    however many guesses snap to it; a level whose build cannot be
    trusted (see :meth:`PointGrid.build`) is memoized as ``None`` and the
    caller falls back to its dense path.

    **Derived builds.**  A coarse level never re-quantizes the points
    when a finer level already exists: the fine level's per-cell absolute
    axis indices are right-shifted (``floor(floor(x)/2^s) == floor(x/2^s)``
    exactly, for any real ``x`` and integer shift ``s >= 0`` — the nested
    floors collapse), fine cells are sorted into coarse groups (an argsort
    over *cells*, typically far fewer than points), and the fine member
    lists are gathered in coarse order.  Because the shift is applied to
    the same already-floored value the fine build computed, the derived
    coarse index of every point equals ``floor(fl(p/base_side) / 2^i)``
    — exactly the error model of a direct build at that level, so the
    :meth:`PointGrid.ring` slack argument holds verbatim and snapped
    candidate supersets stay sound at every level.

    **Snapping.**  :meth:`grid_for` maps a ball cutoff to the coarsest
    conservative level: the smallest ``side >= cutoff``, i.e. ``side in
    [cutoff, 2 * cutoff)``.  Snapping *up* keeps every ring tiny — the
    cutoff ball needs ring 1 and the Charikar decision's ``3g`` ball
    ring <= 3, exactly the rings a fresh side-equals-cutoff grid uses.
    The choice is purely a performance heuristic — soundness comes from
    :meth:`PointGrid.ring` at whatever side is returned — so results are
    bit-identical to a fresh per-guess grid (every candidate is
    re-checked exactly).

    **Exact-side fast path (``cell_budget``).**  The Charikar decision
    scans cells in two regimes: up to ``cell_budget`` source cells it
    runs one blocked distance matvec per cell, beyond that a chunked
    COO pair expansion.  Measured at n=10^5..10^6, scan cost tracks the
    candidate-pair count — so the *tightest* side (``side == cutoff``)
    wins — except when coarsening moves the scan from the COO regime
    into the blocked one, where the snapped level wins despite its up
    to ``2^d``-fold pair inflation.  With ``cell_budget`` set (the
    greedy decision passes its blocked-scan threshold),
    :meth:`grid_for` therefore serves the snapped ladder level only
    when (a) its side is within 5% of the cutoff anyway, (b) it is the
    only one of the two inside the blocked regime, or (c) the estimated
    pair count is so small the scan is trivial either way (a fresh
    build would cost more than it saves); for every other cutoff it
    serves a memoized exact-side grid.  ``cell_budget=None`` (the
    default) always serves ladder levels.

    ``max_ring`` must accommodate the expanded ``3g``-ball queries of the
    Charikar decision: with the snap-up rule keeping ``side >= cutoff``,
    a ``3 * guess`` query needs ring <= 3 (the default 4 leaves one ring
    of slack).
    """

    def __init__(self, pts: np.ndarray, base_side: float, max_ring: int = 4,
                 cell_budget: "int | None" = None):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if base_side <= 0 or not np.isfinite(base_side):
            raise ValueError(f"base_side must be positive, got {base_side!r}")
        self.pts = pts
        self.base_side = float(base_side)
        self.max_ring = int(max_ring)
        self.cell_budget = None if cell_budget is None else int(cell_budget)
        self._extent = (pts.max(axis=0) - pts.min(axis=0)) if pts.size \
            else np.zeros(pts.shape[1])
        self._levels: "dict[int, PointGrid | None]" = {}
        self._exact: "dict[float, PointGrid | None]" = {}
        #: direct builds (full quantize + point argsort), ladder or exact
        self.direct_builds = 0
        #: derived builds (cell-shift + cell argsort off a finer level)
        self.derived_builds = 0
        #: grid_for calls served from an already-materialized grid
        self.snap_hits = 0

    def side(self, level: int) -> float:
        """Cell side of ``level`` (``base_side * 2**level``)."""
        return self.base_side * 2.0 ** level

    def level_for(self, cutoff: float) -> int:
        """The ladder level :meth:`grid_for` snaps ``cutoff`` to.

        Picks the smallest ``side >= target`` for ``target = cutoff *
        (1 + 1e-6)`` (the same slack a fresh per-guess grid applies), so
        ``side in [target, 2 * target)``: the cutoff ball is covered by
        ring 1 and the ``3 * cutoff`` ball by ring 3 at every level.
        """
        if cutoff <= 0 or not np.isfinite(cutoff):
            raise ValueError(f"cutoff must be positive, got {cutoff!r}")
        target = cutoff * (1.0 + 1e-6)
        lvl = int(np.ceil(np.log2(target / self.base_side)))
        # float log2 can be off by one step at boundaries; pin the invariant
        while self.side(lvl) < target:
            lvl += 1
        while self.side(lvl - 1) >= target:
            lvl -= 1
        return lvl

    def grid_at(self, level: int) -> "PointGrid | None":
        """The memoized grid of ``level``, building (or deriving) it on
        first use; ``None`` when that level's quantization is untrusted."""
        if level in self._levels:
            return self._levels[level]
        finer = [j for j, g in self._levels.items() if g is not None and j < level]
        if finer:
            grid = self._derive(self._levels[max(finer)], level)
            self.derived_builds += 1
        else:
            grid = PointGrid.build(self.pts, self.side(level),
                                   max_ring=self.max_ring)
            self.direct_builds += 1
        self._levels[level] = grid
        return grid

    def grid_for(self, cutoff: float) -> "PointGrid | None":
        """Snap a ball cutoff to its ladder level and return that grid
        (or the exact-side fast path when ``cell_budget`` applies —
        see the class docstring).

        Tries up to two coarser levels when the snapped one is untrusted
        (coarser cells have smaller indices, so they can pass the build
        guard where a fine level overflows); a coarser side only widens
        the candidate superset, never unsounds it.  Returns ``None`` when
        no nearby level can be built.
        """
        lvl = self.level_for(cutoff)
        snapped, snapped_hit = None, False
        for attempt in (lvl, lvl + 1, lvl + 2):
            if attempt in self._levels:
                grid = self._levels[attempt]
                if grid is not None:
                    snapped, snapped_hit = grid, True
                    break
                continue
            grid = self.grid_at(attempt)
            if grid is not None:
                snapped = grid
                break
        if snapped is None:
            return None
        refined, refined_hit = self._refine(snapped, cutoff)
        if (refined is snapped and snapped_hit) or \
                (refined is not snapped and refined_hit):
            self.snap_hits += 1
        return refined

    def _refine(self, snapped: PointGrid,
                cutoff: float) -> "tuple[PointGrid, bool]":
        """The exact-side fast path: ``(grid, served_from_memo)``.

        Scan cost tracks candidate pairs, so a side-equals-cutoff grid
        beats the snapped level except in the three cases the class
        docstring lists — side already ~exact, snapped alone in the
        blocked-matvec regime, or a trivially cheap scan.  Exact grids
        are memoized per cutoff (repeat decisions and absorption reuse
        them) and fall back to the snapped level when their quantization
        is untrusted.
        """
        if self.cell_budget is None:
            return snapped, False
        target = cutoff * (1.0 + 1e-6)
        if snapped.side <= 1.05 * target:
            return snapped, False
        est_cells = snapped.num_cells * \
            (snapped.side / target) ** snapped.dim
        if snapped.num_cells <= self.cell_budget < est_cells:
            return snapped, False
        n = len(self.pts)
        occupancy = 1.0
        for ext in self._extent:
            if ext > 0:
                occupancy *= min(1.0, 3.0 * snapped.side / float(ext))
        if float(n) * float(n) * occupancy <= _REFINE_MIN_PAIRS:
            return snapped, False
        if target in self._exact:
            grid = self._exact[target]
            if grid is not None:
                return grid, True
            return snapped, False
        grid = PointGrid.build(self.pts, target, max_ring=self.max_ring)
        self._exact[target] = grid
        if grid is None:
            return snapped, False
        self.direct_builds += 1
        return grid, False

    def _derive(self, fine: PointGrid, level: int) -> "PointGrid | None":
        """Build ``level`` from a finer materialized grid (see class doc)."""
        shift = int(round(np.log2(self.side(level) / fine.side)))
        if shift <= 0:  # pragma: no cover - callers only derive coarser
            return PointGrid.build(self.pts, self.side(level),
                                   max_ring=self.max_ring)
        # arithmetic right shift == floor division by 2^shift (negatives too)
        coarse_axes = fine.cell_axes >> shift
        qmin = coarse_axes.min(axis=0)
        extents = coarse_axes.max(axis=0) - qmin + 1
        padded = extents + 2 * self.max_ring
        if float(np.prod(padded.astype(np.float64))) >= 2.0**62:
            return None  # pragma: no cover - coarser never exceeds finer
        d = fine.dim
        radix = np.ones(d, dtype=np.int64)
        for a in range(d - 2, -1, -1):
            radix[a] = radix[a + 1] * padded[a + 1]
        # coarse code of every *fine cell*, then group fine cells by it
        fc_codes = ((coarse_axes - qmin) * radix).sum(axis=1)
        csort = np.argsort(fc_codes, kind="stable")
        sorted_fc = fc_codes[csort]
        m = len(sorted_fc)
        is_start = np.empty(m, dtype=bool)
        is_start[0] = True
        np.not_equal(sorted_fc[1:], sorted_fc[:-1], out=is_start[1:])
        gstarts = np.flatnonzero(is_start)
        cell_codes = sorted_fc[gstarts]
        counts = np.add.reduceat(fine.cell_counts[csort], gstarts)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        # member points: fine cells' members concatenated in coarse order
        order = fine.points_in_cells(csort)
        codes = fc_codes[fine.point_cell]
        point_cell = np.searchsorted(cell_codes, codes)
        cell_axes = coarse_axes[csort[gstarts]]
        return PointGrid(
            codes, order, cell_codes, starts.astype(np.int64),
            counts.astype(np.int64), point_cell, radix,
            self.side(level), self.max_ring, cell_axes,
        )
