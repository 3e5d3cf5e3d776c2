"""Offline k-center algorithms.

Two classic algorithms the paper builds on:

* :func:`gonzalez` — Gonzalez's farthest-point traversal, a 2-approximation
  for k-center *without* outliers.  Used as a cheap certified upper bound
  on ``opt_{k,0} >= opt_{k,z}`` when seeding radius searches.
* :func:`charikar_greedy` — the 3-approximation of Charikar, Khuller, Mount
  and Narasimhan (SODA 2001) for k-center *with* outliers, in the weighted
  setting.  This is the ``Greedy(P, k, z)`` subroutine of the paper:
  every MBC construction starts by calling it to obtain a radius
  ``r in [opt_{k,z}(P), 3 * opt_{k,z}(P)]``.

The decision procedure (``_greedy_disks``) follows Charikar et al.:
for a radius guess ``g``, repeatedly pick the point whose ball ``B(v, g)``
covers the maximum uncovered weight, then mark everything in the expanded
ball ``B(v, 3g)`` covered.  If after ``k`` picks the uncovered weight is at
most ``z``, the guess is feasible; Charikar et al. prove feasibility for
every ``g >= opt_{k,z}(P)``.  The returned radius is ``3 * g*`` for the
smallest feasible guess ``g*``, hence at most ``3 * opt`` (exact-candidate
mode) or ``3 (1+tol) * opt`` (geometric mode for large inputs).  Nothing
before that final weight test looks at ``z``: the decision procedures
return ``(centers, uncovered)`` and the search applies
:func:`_weight_feasible`, so one :func:`charikar_greedy` call serves a
whole ascending vector of budgets (Algorithm 2's round 1) and decides
each guess once.

Performance (the kernels refactor): both decision procedures maintain the
candidate gains *incrementally* — one ball-membership matvec when a guess
starts, then per pick only the weight of the newly covered points is
subtracted from the gains of the candidates whose ``g``-ball contains
them.  Because all library weights are integers (exactly representable in
float64), the incremental sums equal the recomputed sums bit for bit, so
results are identical to the pre-refactor code
(``tests/_greedy_reference.py``; proven by
``tests/test_greedy_parity.py``) at a fraction of the work: ``O(n^2)``
per guess instead of ``O(k n^2)``.  Distance blocks come from the
exact float64 kernels of :mod:`repro.kernels` via
:meth:`Metric.pairwise`.

Grid pruning (the sub-quadratic refactor): for the built-in norms in low
dimension with integer weights, each geometric radius-guess decision
prunes its candidate scans through a
:class:`~repro.geometry.PointGrid`, so both the gain seeding and the
per-pick bookkeeping only evaluate distances between points in
Chebyshev-adjacent cells — ``O(n * (2R+1)^d)`` pairs per guess when the
guess is near the optimum instead of ``O(n^2)``.  Candidate supersets
come from the grid; the surviving pairs are re-evaluated in float64 with
:func:`repro.kernels.pair_distances`, which is bit-identical to the
cdist entries the dense float64 path compares, and all accumulated sums
are exact integers — so the pruned decisions pick the same centers, bit
for bit, as the dense float64 reference (``tests/test_greedy_pruned.py``).
High dimension, arbitrary / precomputed metrics and fractional weights
fall back to the dense path automatically (:attr:`GreedyResult.path`
records which path served the call).

A grid decision keeps its gains one of two ways, chosen per guess by
the grid's density (:func:`_grid_decision`), both serial:

* **Sparse grids** — at most :data:`_LIST_PAIRS_PER_CELL` candidate
  pairs per cell, as at small guesses where most points sit alone in
  their cell — expand their pairs in blocks of whole cells
  (:meth:`PointGrid.candidate_pairs`, filtered by
  :func:`_within_cutoff`).  When the pairs fit :data:`_LIST_MAX_PAIRS`
  they are kept as neighbour lists (:func:`neighbour_lists`, shared with
  the MBC absorb loop): one ``bincount`` seeds the gains and each pick
  subtracts one ``bincount`` over the newly covered points' lists.  When
  they do not fit, each streamed block seeds its own points' gains (one
  distance pass and one ``bincount``) and is dropped, and the picks
  scan cells as below.
* **Dense grids** seed cell by cell: one distance block per source cell
  amortizes its dispatch over many pairs.  When every cell's candidate
  rows together fit :data:`_LIST_MAX_PAIRS` (:func:`_kept_seed`), the
  seed keeps each cell's rows and contribution, and the picks spend
  them (:func:`_subtract_kept`): a cell whose last uncovered members a
  pick covers subtracts what is left of its contribution without a
  distance, and only the other cells a pick touches scan their newly
  covered members against their kept rows.  Over that budget (e.g. the
  n = 10^6 search) the seed keeps nothing and every pick rescans its
  newly covered points cell by cell (:func:`_accumulate_cells`); a
  pick's sources lie within the 3-ring of its cell, so such a scan
  touches at most ``7^d`` cells.

Both compare the same pairs in float64, so the choice never moves a
bit.  Each guess buckets the points into its own grid
(:func:`_grid_for_guess`, cell side just above the cutoff), and
:func:`repro.core.mbc._greedy_absorb` builds its own at the absorption
radius.  :attr:`GreedyResult.stats` counts the ``grid_builds``,
``decisions`` and ``list_decisions``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..geometry.grid import PointGrid, cutoff_side
from ..kernels import DEFAULT_BLOCK_BYTES, auto_chunk, pair_distances
from .metrics import Metric, _KernelMetric, get_metric
from .points import WeightedPointSet
from .radius import coverage_radius, nearest_center_distances

__all__ = ["GreedyResult", "gonzalez", "charikar_greedy"]

#: Above this many points the exact pairwise-candidate search switches to a
#: geometric grid of radius guesses (3(1+tol)-approximation).
PAIRWISE_LIMIT = 2048

#: grid pruning needs ``3^d`` neighbor enumeration per cell; beyond this
#: dimension the dense kernels win (same gate the absorption loop uses)
_GRID_MAX_DIM = 4

#: point pairs one blocked-scan distance block may hold (bounds the
#: block of a giant cell: its candidate rows are chunked to fit)
_GRID_PAIR_CHUNK = 4_000_000

#: candidate pairs one neighbour-list build (:func:`neighbour_lists`) may
#: enumerate, ~1.4M: the one gate of the list decisions and
#: :func:`repro.core.mbc._greedy_absorb`.  Expanding a candidate pair
#: takes ~56 B of temporaries, so the build expands
#: :data:`_LIST_BLOCK_PAIRS` at a time (~15 MB) and keeps only the
#: within-cutoff neighbours (8 B each): at most ~11 MB of lists plus one
#: block, whatever the candidate count
_LIST_MAX_PAIRS = DEFAULT_BLOCK_BYTES // 24

#: candidate pairs one :func:`neighbour_lists` block expands at once
#: (whole cells per block; a single larger cell is a block of its own)
_LIST_BLOCK_PAIRS = 1 << 18

#: a decision walks neighbour lists instead of per-cell blocked scans
#: while its grid averages at most this many candidate pairs per cell.
#: A blocked scan pays a distance-kernel dispatch per source cell, for
#: the seed and again per pick (~90-160 µs per cell per decision); a
#: listed pair costs ~65 ns to expand, compare and scatter.  Measured
#: crossover on a 2-core Xeon VM (uniform points, d = 1..3, n = 2,100 to
#: 4,000, k = 8 and 64): 1,500-3,700 pairs per cell; at 600 pairs per
#: cell the lists already win 2-3x
_LIST_PAIRS_PER_CELL = 2048


@dataclass(frozen=True)
class GreedyResult:
    """Output of :func:`charikar_greedy` / :func:`gonzalez`.

    Attributes
    ----------
    centers_idx:
        Indices into the input point set of the chosen centers
        (``<= k`` of them).
    radius:
        Certified covering radius: all but weight ``z`` of the input lies
        within ``radius`` of the centers, and
        ``radius <= 3 (1+tol) * opt_{k,z}(P)``.
    guess:
        The feasible radius guess ``g*`` (``radius == 3 * guess`` for
        Charikar; equals ``radius`` for Gonzalez).
    uncovered:
        Boolean mask of input points not covered by ``B(c, radius)``
        (weight at most ``z``).
    path:
        Which decision path served the call: ``"pairwise"`` (exact
        candidates, ``n <= pairwise_limit``), ``"grid"`` (grid-pruned
        geometric search), ``"dense"`` (chunked dense geometric search)
        or ``"mixed"`` (some guesses gridded, some fell back).
        Provenance only — never affects results.
    stats:
        Provenance counters for the grid-pruned geometric search (zeroed
        when it did not run), counted over the whole call — every result
        of a multi-budget call shares them: ``grid_builds`` (per-guess
        grids built), ``decisions`` (grid decisions run, one per distinct
        guess), ``list_decisions`` (those of them served by neighbour
        lists).  JSON-safe ints only; never affects results.
    """

    centers_idx: np.ndarray
    radius: float
    guess: float
    uncovered: np.ndarray
    path: str = field(default="dense", compare=False)
    stats: dict = field(default_factory=dict, compare=False)

    def centers(self, wps: WeightedPointSet) -> np.ndarray:
        """Coordinates of the chosen centers."""
        return wps.points[self.centers_idx]


def gonzalez(
    wps: WeightedPointSet,
    k: int,
    metric: "Metric | str | None" = None,
    first: int = 0,
) -> GreedyResult:
    """Gonzalez's farthest-point 2-approximation (no outliers).

    Runs in ``O(nk)`` distance evaluations.  ``first`` selects the initial
    center (the approximation guarantee holds for any choice).
    """
    metric = get_metric(metric)
    n = len(wps)
    if n == 0:
        return GreedyResult(np.zeros(0, dtype=int), 0.0, 0.0, np.zeros(0, dtype=bool))
    k = min(k, n)
    centers = [int(first)]
    dmin = metric.to_set(wps.points[first], wps.points)
    while len(centers) < k:
        nxt = int(np.argmax(dmin))
        centers.append(nxt)
        dmin = np.minimum(dmin, metric.to_set(wps.points[nxt], wps.points))
    radius = float(dmin.max()) if n else 0.0
    return GreedyResult(
        np.asarray(centers, dtype=int), radius, radius, np.zeros(n, dtype=bool)
    )


def _gain_dtype(weights: np.ndarray) -> type:
    """Accumulator dtype for the candidate gains.

    float32 when gains are *exactly* representable there: integer weights
    whose total stays below 2^24 — then every partial sum is an exact
    float32 integer and the matvecs run at half the memory traffic with
    bit-identical argmax decisions.  Fractional weights (a float array
    passed directly) must stay in float64: rounding them would move picks.
    """
    if np.issubdtype(weights.dtype, np.integer) and float(weights.sum()) < 2.0**24:
        return np.float32
    return np.float64


def _uncovered_weight(weights: np.ndarray, uncovered: np.ndarray) -> float:
    """Total weight of the points a decision left uncovered."""
    return float(np.asarray(weights, dtype=float)[uncovered].sum())


def _weight_feasible(rem: float, z: float) -> bool:
    """Float-safe feasibility: uncovered weight ``rem`` at most ``z``.

    The pre-refactor code truncated via ``int(weights[uncovered].sum())``,
    so fractional uncovered weight ``z + 0.9`` passed as feasible.  Compare
    the float sum against ``z`` with a small relative tolerance instead —
    identical to the old test on integer weights (any violation is >= 1),
    correct on fractional ones (regression-tested).
    """
    return rem <= z + 1e-9 * max(1.0, float(z))


def _disk_buffers(
    D: np.ndarray, weights: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Scratch for :func:`_greedy_disks`: the boolean ball-membership mask
    and its copy in the gain dtype, so the matvec hits BLAS without a
    hidden bool->float promotion copy per pick."""
    return (np.empty(D.shape, dtype=bool),
            np.empty(D.shape, dtype=_gain_dtype(weights)))


def _greedy_disks(
    D: np.ndarray,
    weights: np.ndarray,
    k: int,
    guess: float,
    buffers: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> "tuple[list[int], np.ndarray]":
    """Charikar decision procedure for radius ``guess`` on a precomputed
    distance matrix ``D``, with incrementally maintained gains.
    ``buffers`` (from :func:`_disk_buffers`) lets a radius search reuse
    its ball-membership matrices across guesses.

    ``gain[v]`` is the uncovered weight inside ``B(v, guess)``.  It is
    seeded with one matvec and then *updated* per pick — the weight of the
    newly covered points is subtracted from every candidate whose ball
    contains them — instead of the pre-refactor fresh ``O(n^2)`` matvec
    per pick.  Integer weights make the incremental sums exact, so picks
    (and therefore results) are bit-identical to the reference.

    Returns ``(centers, uncovered_mask)`` where *uncovered* means not
    within ``3 * guess`` of any chosen center.  Nothing here depends on
    the outlier budget ``z``: the caller tests the uncovered weight
    against each budget (:func:`_weight_feasible`).
    """
    n = len(weights)
    tol = 1e-9 * max(1.0, guess)
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    limit3 = 3.0 * guess + tol
    mask, Wg = buffers if buffers is not None else _disk_buffers(D, weights)
    # comparisons against D stay in D's own dtype; only the gain
    # accumulators may drop to float32 (see _gain_dtype)
    w = weights.astype(Wg.dtype)
    np.less_equal(D, guess + tol, out=mask)
    np.copyto(Wg, mask, casting="unsafe")
    gain = Wg @ w
    for _ in range(min(k, n)):
        if not uncovered.any():
            break
        v = int(np.argmax(gain))
        centers.append(v)
        newly = uncovered & (D[v] <= limit3)
        idx = np.flatnonzero(newly)
        if idx.size:
            uncovered[idx] = False
            if 2 * idx.size > n:
                # a full matvec beats copying most of Wg's columns; the
                # recomputed integer sum equals the incremental one exactly
                gain = Wg @ (w * uncovered)
            else:
                gain -= Wg[:, idx] @ w[idx]
    return centers, uncovered


def _geometric_decision(
    wps: WeightedPointSet,
    metric: Metric,
    k: int,
    guess: float,
) -> "tuple[list[int], np.ndarray]":
    """Charikar decision without a full distance matrix (chunked).

    One chunked ball-membership pass seeds the gains; each pick then
    subtracts the newly covered weight via an ``n x |newly|`` distance
    block — ``O(n^2)`` distance evaluations per guess in total, versus the
    pre-refactor ``O(k n^2)`` (a fresh full pass per pick).  Used when
    ``n > PAIRWISE_LIMIT`` and the grid pruning of :func:`_grid_decision`
    does not apply.
    """
    pts = wps.points
    n = len(pts)
    gdt = _gain_dtype(wps.weights)
    w = wps.weights.astype(gdt)
    tol = 1e-9 * max(1.0, guess)
    chunk = auto_chunk(n)
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    gain = np.empty(n, dtype=gdt)
    for i0 in range(0, n, chunk):
        block = metric.pairwise(pts[i0 : i0 + chunk], pts)
        gain[i0 : i0 + len(block)] = (block <= guess + tol).astype(gdt) @ w
    limit3 = 3.0 * guess + tol
    for _ in range(min(k, n)):
        if not uncovered.any():
            break
        v = int(np.argmax(gain))
        centers.append(v)
        dv = metric.to_set(pts[v], pts)
        idx = np.flatnonzero(uncovered & (dv <= limit3))
        if idx.size:
            uncovered[idx] = False
            sub = pts[idx]
            wi = w[idx]
            for i0 in range(0, n, chunk):
                block = metric.pairwise(pts[i0 : i0 + chunk], sub)
                gain[i0 : i0 + len(block)] -= (block <= guess + tol).astype(gdt) @ wi
    return centers, uncovered


def _grid_for_guess(pts: np.ndarray, cutoff: float) -> "PointGrid | None":
    """Per-guess candidate-pruning grid: cell side just above the ball
    cutoff, so the g-ball around any point lies inside its Chebyshev
    1-ring (3^d cells) and the 3g-ball inside its 3-ring.

    The side is clamped from below so quantized cell indices stay under
    ``2^30`` even for tiny guesses (e.g. the guess-0 decision): a larger
    side is always sound — it only admits more candidates, and every
    candidate is re-checked with an exact distance.
    """
    return PointGrid.build(pts, cutoff_side(cutoff, pts), max_ring=3)


def _cell_contribution(
    pts: np.ndarray,
    metric: Metric,
    w64: np.ndarray,
    cutoff: float,
    rows: np.ndarray,
    mem: np.ndarray,
) -> np.ndarray:
    """``(dist(rows, mem) <= cutoff) @ w64[mem]``: the weight of the
    source points ``mem`` within ``cutoff`` of each candidate row.  One
    rows x sources distance block, row-chunked so a giant cell (clustered
    data) never materializes an unbounded block."""
    rows_per = max(1, _GRID_PAIR_CHUNK // len(mem))
    src, wm = pts[mem], w64[mem]
    parts = [(metric.pairwise(pts[rows[r0 : r0 + rows_per]], src) <= cutoff)
             @ wm for r0 in range(0, len(rows), rows_per)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _accumulate_cells(
    grid: PointGrid,
    pts: np.ndarray,
    metric: Metric,
    w64: np.ndarray,
    cutoff: float,
    gain: np.ndarray,
    sign: float,
    src_cells: np.ndarray,
    src_starts: np.ndarray,
    src_counts: np.ndarray,
    src_members: np.ndarray,
    ring: int,
) -> None:
    """Blocked per-cell scan: accumulate ``gain[i] += sign * w64[j]``
    over every pair with ``j`` a *source* point, ``i`` any point in a
    cell within Chebyshev ring ``ring`` of ``j``'s cell, and
    ``dist(i, j) <= cutoff``.

    Sources are given as cells (indices into ``grid.cell_codes``) with
    their member point indices in ``src_members[src_starts[s] :
    src_starts[s] + src_counts[s]]``.  The seed of a dense grid over the
    row budget of :func:`_kept_seed` passes the grid's own cells; each
    pick of such a grid, or of a streamed seed, passes its newly covered
    points grouped by cell (:func:`_group_by_cell`).  One
    :func:`_cell_contribution` block per source cell; neighbour cells
    are matched a slice of sources at a time
    (:meth:`PointGrid.neighborhoods`).
    """
    for lo, bounds, nbr in grid.neighborhoods(src_cells, ring):
        for s in range(len(bounds) - 1):
            rows = grid.points_in_cells(nbr[bounds[s] : bounds[s + 1]])
            start = src_starts[lo + s]
            mem = src_members[start : start + src_counts[lo + s]]
            contrib = _cell_contribution(pts, metric, w64, cutoff, rows, mem)
            if sign > 0:
                gain[rows] += contrib
            else:
                gain[rows] -= contrib


def _kept_seed(
    grid: PointGrid,
    pts: np.ndarray,
    metric: Metric,
    w64: np.ndarray,
    cutoff: float,
    ring: int,
) -> "tuple[np.ndarray, tuple[np.ndarray, ...]] | None":
    """Blocked seed of a dense grid that keeps what each cell computed:
    ``(gain, kept)``.  Returns ``None``, before computing any distance,
    when the cells' candidate rows total more than
    :data:`_LIST_MAX_PAIRS`; the caller then seeds with
    :func:`_accumulate_cells`.

    ``kept = (ptr, rows, rem, left)``: cell ``c``'s candidate rows (the
    points of its ring-``ring`` cells, as :func:`_accumulate_cells`
    scans them) are ``rows[ptr[c]:ptr[c + 1]]`` and ``rem`` holds its
    contribution ``(dist(rows, members) <= cutoff) @ w64[members]``
    alongside; ``left[c]`` counts its members still uncovered.
    :func:`_subtract_kept` spends both as the picks cover the cells.
    """
    matched, sizes, total = [], [], 0
    for _, bounds, nbr in grid.neighborhoods(np.arange(grid.num_cells),
                                             ring):
        sizes.append(np.add.reduceat(grid.cell_counts[nbr], bounds[:-1]))
        total += int(sizes[-1].sum())
        if total > _LIST_MAX_PAIRS:
            return None
        matched.append(nbr)
    ptr = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    # a slice's neighbour cells, in source order, are its cells' rows
    rows = np.concatenate([grid.points_in_cells(nbr) for nbr in matched])
    rem = np.empty(total, dtype=np.float64)
    for c in range(grid.num_cells):
        a, b = ptr[c], ptr[c + 1]
        start = grid.cell_starts[c]
        rem[a:b] = _cell_contribution(
            pts, metric, w64, cutoff, rows[a:b],
            grid.order[start : start + grid.cell_counts[c]])
    gain = np.bincount(rows, weights=rem, minlength=grid.n)
    return gain, (ptr, rows, rem, grid.cell_counts.copy())


def _subtract_kept(
    grid: PointGrid,
    pts: np.ndarray,
    metric: Metric,
    w64: np.ndarray,
    cutoff: float,
    gain: np.ndarray,
    kept: "tuple[np.ndarray, ...]",
    idx: np.ndarray,
) -> None:
    """One pick's update from :func:`_kept_seed`'s cells: subtract the
    weight of the newly covered points ``idx`` from the gains.

    A cell whose last uncovered members are covered (all of them at
    once, or the rest after earlier picks) subtracts what is left of its
    seed contribution, with no distance computed; all such cells go in
    one ``bincount``.  Any other cell scans only its newly covered
    members against its kept rows, with no neighbour lookup, and spends
    the result from what it has left.  Integer weights make every kept,
    spent and remaining contribution an exact float64 integer, so the
    gains equal the rescans' bit for bit.
    """
    ptr, rows, rem, left = kept
    cells, starts, counts, members = _group_by_cell(grid, idx)
    left[cells] -= counts
    done = left[cells] == 0
    if done.any():
        lo = ptr[cells[done]]
        flat = _ranges(lo, ptr[cells[done] + 1] - lo)
        gain -= np.bincount(rows[flat], weights=rem[flat],
                            minlength=len(gain))
    for s in np.flatnonzero(~done):
        a, b = ptr[cells[s]], ptr[cells[s] + 1]
        mem = members[starts[s] : starts[s] + counts[s]]
        contrib = _cell_contribution(pts, metric, w64, cutoff, rows[a:b],
                                     mem)
        gain[rows[a:b]] -= contrib
        rem[a:b] -= contrib


def _ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``lo[t] : lo[t] + cnt[t]``."""
    return np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) \
        + np.arange(int(cnt.sum()))


def _group_by_cell(
    grid: PointGrid, idx: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Group point indices by their grid cell: ``(cells, starts, counts,
    members)`` in the source format :func:`_accumulate_cells` takes."""
    cells_of = grid.point_cell[idx]
    by_cell = np.argsort(cells_of, kind="stable")
    members = idx[by_cell]
    sorted_cells = cells_of[by_cell]
    is_start = np.empty(len(idx), dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    cells = sorted_cells[starts]
    counts = np.diff(np.append(starts, len(idx)))
    return cells, starts, counts, members


def _within_cutoff(blocks, pts: np.ndarray, kind: str, cutoff: float):
    """Filter :meth:`PointGrid.candidate_pairs` blocks down to their
    within-``cutoff`` pairs, each re-checked with exact float64
    :func:`pair_distances` (bit-identical to the dense cdist entries).

    Yields ``(p0, p1, at, j)`` per block: the block's points are the
    grid-order positions ``p0:p1`` (whole cells), and its kept pairs pair
    position ``p0 + at[t]`` with point ``j[t]``, grouped by position.
    Each block is dropped before the next is expanded, so only one
    block's candidates are held at a time.
    """
    for pos, i, j in blocks:
        keep = pair_distances(kind, pts, i, j) <= cutoff
        p0, p1 = int(pos[0]), int(pos[-1]) + 1
        at, j = pos[keep] - p0, j[keep]
        del pos, i, keep
        yield p0, p1, at, j


def _lists_of(grid: PointGrid, kept) -> "tuple[np.ndarray, ...]":
    """CSR neighbour lists ``(ptr, nbrs, row_of)`` from
    :func:`_within_cutoff`'s blocks (see :func:`neighbour_lists`)."""
    lists, sizes = [], []
    for p0, p1, at, j in kept:
        sizes.append(np.bincount(at, minlength=p1 - p0))
        lists.append(j)
    ptr = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    row_of = np.empty(grid.n, dtype=np.int64)
    row_of[grid.order] = np.arange(grid.n)
    return ptr, lists[0] if len(lists) == 1 else np.concatenate(lists), row_of


def neighbour_lists(
    grid: PointGrid,
    pts: np.ndarray,
    kind: str,
    cutoff: float,
    max_pairs: int,
    block_pairs: int = _LIST_BLOCK_PAIRS,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """Every within-``cutoff`` pair of the gridded points, as CSR
    neighbour lists ``(ptr, nbrs, row_of)``.

    Point ``i``'s neighbours (``i`` itself included) are
    ``nbrs[ptr[r]:ptr[r + 1]]`` for ``r = row_of[i]``; rows follow the
    grid's point order.  Candidates come from
    :meth:`PointGrid.candidate_pairs` in blocks of whole cells of at most
    ``block_pairs`` pairs, filtered by :func:`_within_cutoff` one block
    at a time; the lists do not depend on the block size.  Returns
    ``None``, without expanding, when the exact candidate-pair count
    exceeds ``max_pairs``.
    """
    pairs = grid.candidate_pairs(cutoff, max_pairs, block_pairs)
    if pairs is None:
        return None
    return _lists_of(grid, _within_cutoff(pairs[1], pts, kind, cutoff))


def _grid_decision(
    wps: WeightedPointSet,
    metric: Metric,
    k: int,
    guess: float,
    grid: PointGrid,
    stats: "dict | None" = None,
) -> "tuple[list[int], np.ndarray]":
    """Grid-pruned Charikar decision — same contract (and bit-identical
    results) as the float64 :func:`_geometric_decision` with integer
    weights, at ``O(pairs-in-nearby-cells)`` distance evaluations per
    guess instead of ``O(n^2)``.

    The grid's density picks how the gains are kept (same pairs compared
    either way).  A *sparse* grid — at most :data:`_LIST_PAIRS_PER_CELL`
    candidate pairs per cell — expands its pairs through
    :meth:`PointGrid.candidate_pairs`: if they fit
    :data:`_LIST_MAX_PAIRS` they become neighbour lists (one ``bincount``
    seeds the gains, each pick subtracts one ``bincount`` over the newly
    covered points' lists); otherwise the streamed blocks seed the gains
    (one :func:`pair_distances` pass and one ``bincount`` per block) and
    the picks scan cells.  A *dense* grid seeds one distance block per
    cell.  If the cells' candidate rows fit :data:`_LIST_MAX_PAIRS`, the
    seed keeps them with each cell's contribution (:func:`_kept_seed`)
    and the picks subtract from those (:func:`_subtract_kept`): cells a
    pick covers to the last member cost no distance, and the others scan
    only their newly covered members against their kept rows.  Over the
    budget the seed keeps nothing and the picks rescan their newly
    covered points cell by cell (:func:`_accumulate_cells`).

    Exactness: candidate supersets from the grid are sound at whatever
    cell side it has (:meth:`PointGrid.ring` picks the ring the cutoff
    needs), every surviving pair is re-evaluated with float64 distances
    bit-identical to the dense path's cdist entries, and
    integer weights make every accumulated gain an exact float64 integer
    in any summation order — so each argmax pick matches the dense pick,
    including tie-breaks.  The same holds for the kept contributions: a
    cell's kept rows are exactly the ones its rescan would scan, and what
    it has left is an exact integer too.  The list path reads pick
    ``v``'s contribution to candidate ``i`` off ``v``'s own list: the
    built-in norms are bit-symmetric, so ``d(v, i) == d(i, v)``.
    """
    pts = wps.points
    n = len(pts)
    w64 = wps.weights.astype(np.float64)
    tol = 1e-9 * max(1.0, guess)
    cutoff = guess + tol
    limit3 = 3.0 * guess + tol
    ring = grid.ring(cutoff)
    pairs = grid.candidate_pairs(
        cutoff, _LIST_PAIRS_PER_CELL * grid.num_cells, _LIST_BLOCK_PAIRS
    )
    lists = kept = None
    if pairs is None:
        seeded = _kept_seed(grid, pts, metric, w64, cutoff, ring)
        if seeded is not None:
            gain, kept = seeded
        else:
            gain = np.zeros(n, dtype=np.float64)
            _accumulate_cells(
                grid, pts, metric, w64, cutoff, gain, 1.0,
                np.arange(grid.num_cells), grid.cell_starts,
                grid.cell_counts, grid.order, ring,
            )
    else:
        total, blocks = pairs
        within = _within_cutoff(blocks, pts, metric.name, cutoff)
        if total <= _LIST_MAX_PAIRS:
            ptr, nbrs, row_of = lists = _lists_of(grid, within)
            # each point's weight lands on every point of its list
            gain = np.bincount(
                nbrs, weights=np.repeat(w64[grid.order], np.diff(ptr)),
                minlength=n,
            )
        else:
            gain = np.empty(n, dtype=np.float64)
            for p0, p1, at, j in within:
                gain[grid.order[p0:p1]] = np.bincount(
                    at, weights=w64[j], minlength=p1 - p0
                )
    if stats is not None:
        stats["decisions"] += 1
        if lists is not None:
            stats["list_decisions"] += 1
    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    for _ in range(min(k, n)):
        if not uncovered.any():
            break
        v = int(np.argmax(gain))
        centers.append(v)
        cand = grid.query_point(v, limit3)
        dv = metric.to_set(pts[v], pts[cand])
        idx = np.sort(cand[uncovered[cand] & (dv <= limit3)])
        if idx.size:
            uncovered[idx] = False
            if lists is not None:
                # the newly covered points' lists, concatenated
                rows = row_of[idx]
                lo = ptr[rows]
                cnt = ptr[rows + 1] - lo
                gain -= np.bincount(
                    nbrs[_ranges(lo, cnt)], weights=np.repeat(w64[idx], cnt),
                    minlength=n,
                )
            elif kept is not None:
                _subtract_kept(grid, pts, metric, w64, cutoff, gain, kept,
                               idx)
            else:
                _accumulate_cells(
                    grid, pts, metric, w64, cutoff, gain, -1.0,
                    *_group_by_cell(grid, idx), ring,
                )
    return centers, uncovered


def charikar_greedy(
    wps: WeightedPointSet,
    k: int,
    z: "int | Sequence[int]",
    metric: "Metric | str | None" = None,
    tol: float = 0.05,
    pairwise_limit: int = PAIRWISE_LIMIT,
) -> "GreedyResult | list[GreedyResult]":
    """Weighted 3-approximation for k-center with ``z`` outliers.

    This is ``Greedy(P, k, z)`` of the paper.  The returned
    :attr:`GreedyResult.radius` satisfies

    ``opt_{k,z}(P) <= radius <= 3 (1 + tol') * opt_{k,z}(P)``

    with ``tol' = 0`` when ``len(wps) <= pairwise_limit`` (binary search
    over all pairwise distances) and ``tol' = tol`` otherwise (geometric
    grid of guesses).  The lower inequality holds because the returned
    radius is achieved by ``k`` concrete balls leaving uncovered weight at
    most ``z``, so the optimum cannot be larger; the upper inequality is
    Charikar et al.'s guarantee that the decision procedure succeeds for
    every guess ``>= opt``.  Both directions are exercised by the test
    suite against brute-force optima.

    **One search for a whole outlier vector.**  ``z`` is one budget, or
    an ascending sequence of budgets (Algorithm 2's round 1 asks for
    ``Greedy(P, k, 2^j - 1)`` for every ``j``); a sequence returns one
    result per budget, in order.  At a fixed guess the Charikar decision
    does not look at ``z`` — the picks, the covered set and the guess
    ladder are chosen without it, and only the final uncovered-weight
    test compares against ``z`` — so one call decides each guess at most
    once, whatever the number of budgets: the distance matrix and sorted
    candidate radii (pairwise search), the Gonzalez bound and the guess
    ladder (geometric search), and every decision, memoized by guess.
    Each budget still runs its own binary search over those shared
    decisions, with no bracket narrowing from the previous budget
    (feasibility is only monotone for guesses ``>= opt``), so every
    result is bit-identical to a call with that budget alone; the
    one-budget call is simply the one-element case.  Negative or NaN
    budgets and unsorted sequences raise :class:`ValueError`, as does a
    ``tol`` that is not finite and positive.

    Every distance is exact float64 (:mod:`repro.kernels`).  The
    pairwise search computes its distance matrix once per call and
    reuses it, with its ball-membership buffers, across every guess.

    The geometric search prunes its candidate scans with a grid whenever
    that is exact — a built-in norm in dimension <= 4 with integer
    weights totalling under ``2**53`` — and runs the dense chunked path
    otherwise.  Pruned decisions evaluate exactly the distances the dense
    path compares, so pruned results are bit-identical to it.
    :attr:`GreedyResult.path` records what ran.

    Degenerate cases: if the total weight is at most ``z`` (everything can
    be an outlier) or ``k >= n``, the radius is ``0``.
    """
    single = np.ndim(z) == 0
    zs = [z] if single else list(z)
    # ``not >= 0`` also rejects NaN, which every comparison would pass
    if any(not zj >= 0 for zj in zs):
        raise ValueError(f"outlier budget z must be >= 0, got {z!r}")
    if any(b < a for a, b in zip(zs, zs[1:])):
        raise ValueError(f"outlier budgets must be ascending, got {z!r}")
    # the chained test also rejects NaN; tol <= 0 would never climb the
    # guess ladder and tol = inf would jump straight to its top
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    metric = get_metric(metric)
    n = len(wps)
    # budgets are ascending, so the trivial ones (everything an outlier)
    # are a suffix
    live = [
        zj for zj in zs if not (n == 0 or wps.total_weight <= zj or k >= n)
    ]

    def trivial() -> GreedyResult:
        idx = np.arange(min(k, n), dtype=int)
        return GreedyResult(idx, 0.0, 0.0, np.zeros(n, dtype=bool))

    if not live:
        return trivial() if single else [trivial() for _ in zs]
    if k <= 0:
        raise ValueError("k must be positive")
    # the pruning gate: exactly when pruned scans are provably
    # bit-identical to the dense float64 path — a built-in norm on real
    # coordinates in low dimension (sound (2R+1)^d cell neighborhoods)
    # and integer weights small enough that every partial sum is an exact
    # float64 integer in any order
    grid_ok = (
        isinstance(metric, _KernelMetric)
        and wps.points.ndim == 2
        and wps.points.shape[1] <= _GRID_MAX_DIM
        and np.issubdtype(wps.weights.dtype, np.integer)
        and float(wps.weights.sum()) < 2.0**53
    )
    stats = {"decisions": 0, "list_decisions": 0, "grid_builds": 0}
    paths_used = set()
    if n <= pairwise_limit:
        paths_used.add("pairwise")
        # ONE distance matrix for the whole call; every guess below reuses
        # it (plus the mask/membership buffers).
        D = metric.pairwise(wps.points, wps.points)
        buffers = _disk_buffers(D, wps.weights)

        def decide(g):
            return _greedy_disks(D, wps.weights, k, g, buffers)
    else:

        def decide(g):
            if grid_ok:
                grid = _grid_for_guess(wps.points, g + 1e-9 * max(1.0, g))
                if grid is not None:
                    stats["grid_builds"] += 1
                    paths_used.add("grid")
                    return _grid_decision(wps, metric, k, g, grid,
                                          stats=stats)
            paths_used.add("dense")
            return _geometric_decision(wps, metric, k, g)

    # every positive guess's decision, shared by all budgets: the picks
    # and the uncovered weight they leave (one float, not an n-byte mask)
    memo: "dict[float, tuple[list[int], float]]" = {}

    def decided(g: float) -> "tuple[list[int], float]":
        if g not in memo:
            centers, uncovered = decide(g)
            memo[g] = (centers, _uncovered_weight(wps.weights, uncovered))
        return memo[g]

    # radius 0 can be optimal (duplicates, or light far points absorbed
    # by the outlier budget); test it outright before the positive guesses
    centers0, uncovered0 = decide(0.0)
    rem0 = _uncovered_weight(wps.weights, uncovered0)
    # the smallest budget needs the most: if it fits at guess 0, all do
    if not _weight_feasible(rem0, live[0]):
        search = (_pairwise_search(D, metric, decided)
                  if n <= pairwise_limit else
                  _ladder_search(wps, k, metric, tol, decided))
    picks = [
        (0.0, centers0, uncovered0) if _weight_feasible(rem0, zj)
        else search(zj)
        for zj in live
    ]

    path = paths_used.pop() if len(paths_used) == 1 else "mixed"
    out = [
        _certified(wps, metric, zj, guess, centers, uncovered, path, stats)
        for zj, (guess, centers, uncovered) in zip(live, picks)
    ]
    out += [trivial() for _ in zs[len(live):]]
    return out[0] if single else out


def _smallest_feasible(guess_at, lo: int, hi: int, z, decided):
    """Binary search ``guess_at(lo..hi)`` for the smallest guess whose
    (memoized) decision leaves uncovered weight at most ``z``:
    ``(guess, centers)``, or ``None`` when no probed guess is feasible.
    Feasibility is monotone for guesses >= opt (Charikar et al.)."""
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        g = guess_at(mid)
        centers, rem = decided(g)
        if _weight_feasible(rem, z):
            best = (g, centers)
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _pairwise_search(D: np.ndarray, metric: Metric, decided):
    """Per-budget search over the exact candidate radii, the distinct
    positive entries of ``D``: ``search(z) -> (guess, centers,
    uncovered)``, where ``uncovered`` is ``None`` unless the search
    settled it itself."""
    n = len(D)
    if isinstance(metric, _KernelMetric):
        # the built-in norms are bit-symmetric (each entry is computed
        # from coordinate differences whose sign cannot matter), so the
        # strict upper triangle carries every distinct positive value —
        # half the sort the candidate extraction pays
        cand = np.unique(D[np.triu_indices(n, 1)])
    else:
        cand = np.unique(D)
    cand = cand[cand > 0]

    def search(z):
        if len(cand) == 0:  # all points coincide
            return 0.0, [0], np.zeros(n, dtype=bool)
        if not _weight_feasible(decided(float(cand[-1]))[1], z):
            # cannot happen for guess >= diameter; guard anyway
            raise RuntimeError(
                "greedy decision failed at maximum candidate radius"
            )
        best = _smallest_feasible(lambda i: float(cand[i]), 0,
                                  len(cand) - 1, z, decided)
        return best + (None,)

    return search


def _ladder_search(wps: WeightedPointSet, k: int, metric: Metric,
                   tol: float, decided):
    """Per-budget geometric search between a positive lower bound and the
    Gonzalez (k-center, no outliers) radius, which upper-bounds
    ``opt_{k,z}`` for every ``z``: ``search(z) -> (guess, centers,
    None)``."""
    gz = gonzalez(wps, k, metric)
    hi_r = max(gz.radius, 1e-300)
    lo_r = hi_r / max(4.0 * len(wps), 4.0)
    # grid of guesses lo_r * (1+tol)^i up to hi_r
    ratio = 1.0 + tol
    m = int(np.ceil(np.log(hi_r / lo_r) / np.log(ratio))) + 1

    def search(z):
        centers, rem = decided(lo_r)
        if _weight_feasible(rem, z):
            return lo_r, centers, None
        best = _smallest_feasible(lambda i: min(lo_r * ratio**i, hi_r), 0,
                                  m, z, decided)
        if best is None:
            # hi_r is always feasible: Gonzalez covers everything
            best = (hi_r, decided(hi_r)[0])
        return best + (None,)

    return search


def _certified(wps, metric, z, guess, centers, uncovered, path, stats):
    """One budget's :class:`GreedyResult` from its search's pick.  A pick
    without an ``uncovered`` mask reports the coverage radius the centers
    actually achieve: it is at most ``3 * guess`` (the decision covered
    all but weight ``z`` within ``3 * guess``) and at least opt, so the
    certificate ``opt <= radius <= 3(1+tol) * opt`` is preserved while
    often being tighter."""
    centers_idx = np.asarray(centers, dtype=int)
    if uncovered is not None:
        return GreedyResult(centers_idx, guess, guess, uncovered, path, stats)
    achieved = coverage_radius(wps, wps.points[centers_idx], z, metric)
    radius = float(min(3.0 * guess, achieved))
    d = nearest_center_distances(wps, wps.points[centers_idx], metric)
    uncovered = d > radius + 1e-9 * max(1.0, radius)
    return GreedyResult(centers_idx, radius, float(guess), uncovered, path, stats)
