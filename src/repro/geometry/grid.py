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
``(2R+1)^d`` surrounding cells.  :class:`CellIndex` is its growable
counterpart for a point set that gains members over time (Algorithm 3's
representatives between radius doublings): the same quantization, with
absolute cell codes, so points outside the index can be queried and new
members appended.

Both answer with one search, :func:`ring_runs`.  Each codes a cell as a
mixed-radix int64 whose last axis has radix 1, and keeps its members
sorted by code, so each of the ``(2R+1)^(d-1)`` rows of a neighbourhood
is a range of ``2R+1`` consecutive codes and its members are one run of
the sorted codes: a left and a right ``searchsorted`` per row, and
:func:`ranges` expands the runs into member positions.

Each radius guess of a search, and each absorption pass, builds its own
:class:`PointGrid` at the side its cutoff needs (:func:`cutoff_side`);
nothing is shared between guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Iterator

import numpy as np

__all__ = [
    "GridLevel",
    "GridHierarchy",
    "PointGrid",
    "CellIndex",
]

#: per-axis cell-index magnitude bound; keeps the ``p / side`` rounding
#: error below the 5e-7 ring slack of :func:`cell_ring` and every code
#: product in int64
_MAX_CELL_INDEX = 2.0**30

#: neighbour cells one slice of :meth:`PointGrid.runs` covers (``cells x
#: (2R+1)^d``; its runs take ~2 MB / (2R+1) per int64 temporary)
_MATCH_TARGETS = 1 << 18


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


def integer_points(points) -> np.ndarray:
    """``points`` as a 2-D int64 array of ``[Delta]^d`` coordinates.

    Raises :class:`ValueError` if any coordinate is not a finite integer:
    a bare int64 cast truncates ``3.7`` to ``3``, so a fractional delete
    would cancel a different point's insert.  Integral values beyond the
    int64 range are clipped, not wrapped, so the ``1..Delta`` check of
    :class:`GridLevel` still rejects them.
    """
    pts = np.atleast_2d(np.asarray(points))
    if pts.dtype.kind in "biu":
        return pts.astype(np.int64, copy=False)
    f = pts.astype(np.float64)
    with np.errstate(invalid="ignore"):
        whole = np.isfinite(f) & (f == np.floor(f))
    if not whole.all():
        bad = float(f[~whole].flat[0])
        raise ValueError(f"coordinates must be integers in 1..Delta, got {bad!r}")
    return np.clip(f, -(2.0**62), 2.0**62).astype(np.int64)


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

    def cell_centers(self, cell_ids) -> np.ndarray:
        """Geometric centres of cells, in original (1-based, continuous)
        coordinates (shape ``(n, d)``).

        Algorithm 5 uses cell centres as the representatives of a relaxed
        coreset; any point of the cell is within ``side * sqrt(d) / 2``
        (Euclidean) of the centre.
        """
        cid = np.asarray(cell_ids, dtype=np.int64).reshape(-1)
        bad = (cid < 0) | (cid >= self.num_cells)
        if bad.any():
            raise ValueError(f"cell id {int(cid[np.argmax(bad)])} out of range")
        m = self.cells_per_axis
        idx = np.empty((len(cid), self.dim), dtype=np.int64)
        for a in range(self.dim - 1, -1, -1):
            idx[:, a] = cid % m
            cid = cid // m
        lo = idx.astype(float) * self.side + 1.0  # smallest coordinate in cell
        return lo + (self.side - 1) / 2.0

    def cell_center(self, cell_id: int) -> np.ndarray:
        """Centre of one cell (see :meth:`cell_centers`)."""
        return self.cell_centers([cell_id])[0]

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
    non-empty cell gets one int64 *code*, a mixed-radix encoding over the
    occupied extent whose radix is padded by ``2 * max_ring`` per axis.
    Up to that ring a row of a neighbourhood, ``2R+1`` consecutive codes,
    holds exactly the cells of that row, so :func:`ring_runs` over the
    sorted codes finds each neighbourhood (:meth:`runs`,
    :meth:`query_point`, :meth:`candidate_pairs`); codes are one-to-one
    while the padded extents fit int64, which :meth:`build` checks.

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
                 point_cell, radix, side, max_ring):
        self.n = len(codes)
        self.dim = len(radix)
        self.side = float(side)
        self.max_ring = int(max_ring)
        #: the cell code of each point in ``order`` (ascending)
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
        order, cell_codes, point_cell = distinct_cells(codes)
        counts = np.bincount(point_cell)
        return cls(codes[order], order, cell_codes, np.cumsum(counts) - counts,
                   counts, point_cell, radix, side, max_ring)

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

    def runs(self, cells: np.ndarray, R: int
             ) -> "Iterator[tuple[int, np.ndarray, np.ndarray]]":
        """The ring-``R`` neighbourhoods of ``cells`` (ascending indices
        into :attr:`cell_codes`) as runs of :attr:`codes`
        (:func:`ring_runs`), a slice of ``cells`` at a time so the
        temporaries stay bounded however many cells there are.

        Yields ``(i0, lo, cnt)`` per slice: the neighbourhood of
        ``cells[i0 + s]`` holds the points ``order[ranges(lo[s],
        cnt[s])]``, by code, then point index.
        """
        step = max(1, _MATCH_TARGETS // (2 * R + 1) ** self.dim)
        for i0 in range(0, len(cells), step):
            yield (i0, *ring_runs(self.codes,
                                  self.cell_codes[cells[i0 : i0 + step]],
                                  self._radix, R))

    def query_point(self, i: int, dist: float) -> np.ndarray:
        """Candidate superset of points within ``dist`` of point ``i``."""
        lo, cnt = ring_runs(self.codes,
                            self.cell_codes[self.point_cell[i : i + 1]],
                            self._radix, self.ring(dist))
        return self.order[ranges(lo, cnt)]

    def candidate_pairs(
        self, dist: float, max_pairs: int, block_pairs: "int | None" = None
    ) -> "tuple[int, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]] | None":
        """Every (point, candidate) pair whose cells lie within
        :meth:`ring` ``(dist)`` of each other, grouped by point, expanded
        lazily in blocks of contiguous cells.

        Returns ``(total, blocks)``: the exact pair count, ``sum(counts[c]
        * counts[c'])`` over neighboring cells ``c, c'``, and an iterator
        yielding ``(pos, i, j)`` per block: pair ``t`` pairs point
        ``i[t]`` with candidate ``j[t]``, and ``pos[t]`` is the position
        of ``i[t]`` in :attr:`order` (non-decreasing across all blocks, so
        pairs come grouped by point in cell order).  A superset of all
        pairs within ``dist``, each point paired with itself too.  A
        block holds at most ``block_pairs`` pairs unless one cell alone
        has more (``None``: no pair limit), and at most one slice of
        :meth:`runs`.  Returns ``None`` without expanding when the pair
        count or the neighbour cells looked up would exceed
        ``max_pairs``.
        """
        R = self.ring(dist)
        if self.num_cells * (2 * R + 1) ** self.dim > max_pairs:
            return None
        # members of each cell's neighborhood, per cell
        reach = np.empty(self.num_cells, dtype=np.int64)
        for i0, _, cnt in self.runs(np.arange(self.num_cells), R):
            reach[i0 : i0 + len(cnt)] = cnt.sum(axis=1)
        pairs = reach * self.cell_counts
        total = int(pairs.sum())
        if total > max_pairs:
            return None
        cuts = batch_cuts(pairs, total if block_pairs is None else block_pairs)

        def blocks():
            for c0, c1 in zip(cuts, cuts[1:]):
                for i0, lo, cnt in self.runs(np.arange(c0, c1), R):
                    c = c0 + i0
                    # each point's pairs are its cell's members, one run
                    # of the cells' concatenated neighbourhoods
                    members = self.order[ranges(lo, cnt)]
                    reach = cnt.sum(axis=1)
                    cell_of = np.repeat(np.arange(len(cnt)),
                                        self.cell_counts[c : c + len(cnt)])
                    run = reach[cell_of]
                    p0 = int(self.cell_starts[c])
                    pos = np.repeat(np.arange(p0, p0 + len(cell_of)), run)
                    yield pos, self.order[pos], members[
                        ranges((np.cumsum(reach) - reach)[cell_of], run)]

        return total, blocks()


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
    ``searchsorted`` + ``insert``, and :meth:`cell_pairs` finds
    neighbourhoods with :func:`ring_runs`, as :class:`PointGrid` does,
    once per distinct query cell.
    """

    def __init__(self, side: float, dim: int, reach: float):
        self.side = float(side)
        self.dim = int(dim)
        #: the query distance every candidate set covers
        self.reach = float(reach)
        self._ring = cell_ring(reach, side)
        radix = np.int64(1) << np.int64(62 // self.dim)
        self._radix = radix ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
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

    def cell_pairs(self, cells: np.ndarray, of: np.ndarray,
                   members: "tuple[np.ndarray, np.ndarray] | None" = None
                   ) -> "tuple[np.ndarray, np.ndarray]":
        """Candidates for queries whose cell codes are ``cells[of]``, with
        ``cells`` distinct and ascending (from :func:`distinct_cells`):
        ``(q, ids)`` pairs, grouped by query index ``q`` ascending.  Every
        member within :attr:`reach` of query ``q`` appears paired with
        it.  Two searches per row of cells for each of ``cells``
        (:func:`ring_runs`), however many queries share it.

        ``members`` is ``(codes, ids)`` with ``codes`` ascending (ties in
        any order the caller wants kept) to search instead of this index's
        members, at this index's cell geometry.  A query's pairs come row
        by row in offset order, and within a row by code, then member
        order: the order of a search per neighbour cell.
        """
        codes, ids = (self._codes, self._ids) if members is None else members
        lo, cnt = ring_runs(codes, cells, self._radix, self._ring)
        lo, cnt = lo[of], cnt[of]
        return np.repeat(np.arange(len(of)), cnt.sum(axis=1)), \
            ids[ranges(lo, cnt)]


def ring_runs(codes: np.ndarray, cells: np.ndarray, radix: np.ndarray,
              R: int) -> "tuple[np.ndarray, np.ndarray]":
    """The members of the Chebyshev ring-``R`` neighbourhoods of the
    cells coded ``cells`` (ascending), as runs of the ascending member
    ``codes``: ``(lo, cnt)``, each of shape ``(len(cells), rows)``, with
    run ``codes[lo[c, t] : lo[c, t] + cnt[c, t]]`` the members in row
    ``t`` of the neighbourhood of ``cells[c]``.

    ``radix`` is the code's per-axis radix, the last one 1, so the
    ``2R+1`` cells of a row along the last axis have consecutive codes:
    a left search at the row's first code and a right search at its last
    find its run.  Rows come in offset order, axis 0 slowest, and the
    arithmetic wraps: a row that runs past int64 max (only
    :class:`CellIndex` codes can) is split into two runs, the codes at or
    above its first, then those at or below its last.
    """
    first = np.full(1, -R, dtype=np.int64)
    for r in radix[:-1]:
        first = np.add.outer(first, np.arange(-R, R + 1) * r).ravel()
    # (row, cell): each row's needles ascend, which the searches exploit
    first = np.add.outer(first, cells)
    last = first + 2 * R
    lo = np.searchsorted(codes, first, side="left").T
    hi = np.searchsorted(codes, last, side="right").T
    wrap = first > last
    if wrap.any():
        wrap = wrap.T
        lo, hi = (np.stack([lo, np.where(wrap, 0, hi)], axis=-1),
                  np.stack([np.where(wrap, len(codes), hi), hi], axis=-1))
        lo, hi = (a.reshape(len(cells), -1) for a in (lo, hi))
    return lo, hi - lo


def ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``lo[t] : lo[t] + cnt[t]``, over
    the flattened ``lo`` and ``cnt``."""
    lo, cnt = np.ravel(lo), np.ravel(cnt)
    return np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) \
        + np.arange(int(cnt.sum()))


def batch_cuts(sizes: np.ndarray, limit: int) -> "list[int]":
    """Cut points ``[0, ..., len(sizes)]`` that split consecutive items
    of ``sizes`` into batches whose sizes total at most ``limit``; an
    item larger than ``limit`` is a batch of its own."""
    cum = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < len(sizes):
        c0 = cuts[-1]
        base = int(cum[c0 - 1]) if c0 else 0
        c1 = int(np.searchsorted(cum, base + limit, side="right"))
        cuts.append(max(c1, c0 + 1))
    return cuts


def distinct_cells(codes: np.ndarray
                   ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(order, cells, of)`` from one stable sort of cell ``codes``:
    ``codes[order]`` ascends (ties in input order), ``cells`` are the
    distinct codes ascending, and ``codes == cells[of]``."""
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    of = np.empty(len(codes), dtype=np.int64)
    of[order] = np.cumsum(new) - 1
    return order, ordered[new], of
