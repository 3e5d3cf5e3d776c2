"""Offline k-center algorithms.

Two classic algorithms the paper builds on:

* :func:`gonzalez` — Gonzalez's farthest-point traversal, a 2-approximation
  for k-center *without* outliers.  Its radius is a cheap certified upper
  bound on ``opt_{k,0} >= opt_{k,z}`` when seeding radius searches.
* :func:`charikar_greedy` — the 3-approximation of Charikar, Khuller, Mount
  and Narasimhan (SODA 2001) for k-center *with* outliers, in the weighted
  setting.  This is the ``Greedy(P, k, z)`` subroutine of the paper:
  every MBC construction starts by calling it to obtain a radius
  ``r in [opt_{k,z}(P), 3 * opt_{k,z}(P)]``.

The decision procedure follows Charikar et al.: for a radius guess
``g``, repeatedly pick the point whose ball ``B(v, g)`` covers the
maximum uncovered weight, then mark everything in the expanded ball
``B(v, 3g)`` covered.  If after ``k`` picks the uncovered weight is at
most ``z``, the guess is feasible; Charikar et al. prove feasibility for
every ``g >= opt_{k,z}(P)``.  The returned radius is ``3 * g*`` for the
smallest feasible guess ``g*``, hence at most ``3 * opt`` (exact-candidate
mode) or ``3 (1+tol) * opt`` (geometric mode for large inputs).  Nothing
before that final weight test looks at ``z``, so one
:func:`charikar_greedy` call serves a whole ascending vector of budgets
(Algorithm 2's round 1) and decides each guess once.

**A certified floor.**  Each search runs one farthest-first traversal
(:func:`_farthest_first`, Gonzalez's, bit for bit).  Its first ``k``
picks give the ladder's upper bound; the picks past ``k`` give each
budget a floor below which no guess can be feasible (:func:`_bounds`,
a packing argument that needs the triangle inequality, so built-in
norms only).  The binary searches probe the same guesses as without
it, but settle the ones below the floor without deciding them
(:func:`_below_floor`): the low rungs a ladder search starts with.

**One pick loop over four gain sources.**  :func:`_pick_centers` is the
decision, written once: the argmax of the gains, the ``3g`` coverage
(``source.cover``), the subtraction of the newly covered weight
(``source.subtract``).  A source seeds ``gain[v]``, the uncovered weight
inside ``B(v, g)``, and keeps it current per pick: ``O(n^2)`` distance
work per guess, not the ``O(k n^2)`` of recomputing it.  Library weights
are integers, so every incremental sum equals the recomputed one bit for
bit, and results equal the frozen ``tests/_greedy_reference.py``.  Each
of the three decision entry points builds a source:

* :func:`_greedy_disks` (``n <= PAIRWISE_LIMIT``): :class:`_BallMatrix`
  over the search's one distance matrix.  For the built-in norms, whose
  matrices are bit-symmetric, a pick reads its newly covered points'
  weight off contiguous rows of the ball matrix, not strided columns.
* :func:`_geometric_decision`: :class:`_DenseChunks`, for high
  dimension, arbitrary metrics and fractional weights.
* :func:`_grid_decision`: for the built-in norms in dimension <= 4 with
  integer weights, a per-guess :class:`~repro.geometry.PointGrid` prunes
  every scan to nearby cells — :class:`_NeighbourLists` on sparse grids
  whose pairs fit :data:`_LIST_MAX_PAIRS`, :class:`_GridCells`
  otherwise.  They compare exactly the pairs the dense path compares,
  in float64, so the choice never moves a bit
  (``tests/test_greedy_pruned.py``, ``tests/test_greedy_lists.py``).

:attr:`GreedyResult.path` records which entry points served a call and
:attr:`GreedyResult.stats` counts its decisions and the guesses its floor
settled.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..geometry.grid import (
    PointGrid,
    batch_cuts,
    cutoff_side,
    distinct_cells,
    ranges,
)
from ..kernels import DEFAULT_BLOCK_BYTES, auto_chunk, pair_distances
from .metrics import Metric, _KernelMetric, get_metric
from .points import WeightedPointSet
from .radius import _coverage_radius_of, nearest_center_distances

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

#: candidate rows one batch of blocked-scan cells gathers at once (a
#: cell with more rows is a batch of its own)
_GRID_BATCH_ROWS = 8192

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
#: A blocked scan pays a distance-kernel call per source cell for the
#: seed, and again per partly covered cell of a pick (~14-25 µs per
#: cell per decision at k = 8); a listed candidate pair costs ~30-45 ns
#: to expand, compare and scatter.  Measured crossover on a 2-core Xeon
#: VM (``benchmarks/decision_layers.py``, ``AB_PR31_layers.json``: 4,000
#: uniform 2-D points, k = 8 and 64): between 236 and 457 pairs per
#: cell; at ~900 pairs per cell the blocked scans take 0.6-0.7x the
#: lists' time
_LIST_PAIRS_PER_CELL = 512


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
        Provenance counters of :func:`charikar_greedy`, counted over the
        whole call — every result of a multi-budget call shares them:
        ``decisions`` (decisions run on any path, one per distinct
        guess), ``skipped`` (distinct guesses settled below a budget's
        certified floor and never decided), ``list_decisions`` (grid
        decisions served by neighbour lists) and ``grid_builds``
        (per-guess grids built); the last two stay 0 off the grid path.
        Empty for :func:`gonzalez` and for trivial calls that decide
        nothing.  JSON-safe ints only; never affects results.
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
    center (the approximation guarantee holds for any choice); it must be
    an integer in ``[0, n)``.  A non-empty input needs ``k >= 1``.  Both
    raise :class:`ValueError` otherwise, as in :func:`charikar_greedy`.
    """
    metric = get_metric(metric)
    n = len(wps)
    if n == 0:
        return GreedyResult(np.zeros(0, dtype=int), 0.0, 0.0, np.zeros(0, dtype=bool))
    if k <= 0:
        raise ValueError("k must be positive")
    if not (isinstance(first, (int, np.integer)) and not isinstance(first, bool)
            and 0 <= first < n):
        raise ValueError(f"first must be an integer in [0, {n}), got {first!r}")
    k = min(k, n)
    walk = _farthest_first(_metric_rows(wps, metric), int(first))
    head = list(islice(walk, k + 1))
    radius = head[k][1]
    return GreedyResult(
        np.asarray([v for v, _ in head[:k]], dtype=int), radius, radius,
        np.zeros(n, dtype=bool),
    )


def _metric_rows(wps: WeightedPointSet, metric: Metric):
    """``row(v)``: the distances from point ``v`` to every point."""
    pts = wps.points
    return lambda v: metric.to_set(pts[v], pts)


def _farthest_first(row, first: int = 0):
    """Gonzalez's farthest-first traversal over distance rows ``row(v)``.

    Yields ``(pick, insertion distance)``: ``(first, inf)``, then the
    point farthest from every earlier pick (first such index on ties) and
    that distance, which never grows.  A pick's row is evaluated only
    when the next pick is asked for, so the ``m``-th insertion distance
    costs ``m - 1`` rows.  Past the last distinct point every pick has
    distance ``0``."""
    dmin = np.array(row(first), dtype=np.float64)
    yield first, np.inf
    while True:
        v = int(np.argmax(dmin))
        yield v, float(dmin[v])
        np.minimum(dmin, row(v), out=dmin)


#: relative rounding margin of the certified floor (:func:`_bounds`,
#: :func:`_below_floor`): far above float64 distance and weight-sum
#: rounding, far below any gap between ladder guesses
_FLOOR_MARGIN = 1e-9

#: farthest-first picks past ``k`` a ladder search may spend on its
#: certified floors.  A grid decision at a guess below a floor (the
#: ones the floor skips) costs as much as 166-209 traversal picks over
#: the same points, grid build included (k = 8, n = 5,000-100,000, one
#: core of a 2-core Xeon VM; more at larger k), and a positive floor
#: skips at least the radius-0 test and the ladder's lowest rung: two
#: decisions' worth
_FLOOR_PICKS = 340


def _bounds(walk, k: int, weights: np.ndarray, budgets,
            max_picks: int) -> "tuple[float, list[float]]":
    """Both radius bounds a search reads off one farthest-first traversal
    ``walk`` (:func:`_farthest_first`): ``(radius, floors)``.

    ``radius`` is Gonzalez's for ``k`` centers, the ``(k + 1)``-th
    insertion distance, which bounds ``opt_{k,z}`` from above for every
    ``z``.  ``floors`` bound it from below, one per ascending budget.
    The first ``m`` picks lie pairwise at least their ``m``-th insertion
    distance ``delta_m`` apart, so a ball of radius below ``delta_m / 2``
    holds at most one of them (triangle inequality), and ``k`` such balls
    leave at least ``m - k`` picks uncovered, the ``m - k`` lightest of
    which weigh ``light_m``.  Once ``light_m`` exceeds a budget ``z``,
    ``opt_{k,z} >= delta_m / 2``: the budget's floor is ``delta_m`` at
    the first such ``m`` (``m <= k + z + 1`` with weights >= 1).

    The walk stops once every budget has its floor, at a zero distance
    (every point is a pick's duplicate) or past ``max_picks`` picks; the
    budgets it did not reach keep floor ``0.0``, no bound.  The ``m``-th
    pick costs ``m - 1`` rows.
    """
    floors = [0.0] * len(budgets)
    heavy: "list[float]" = []
    radius, light, j = 0.0, 0.0, 0
    for m, (v, delta) in enumerate(walk, 1):
        if m == k + 1:
            radius = delta
        # the first pick has distance inf; ``not 0 < delta`` also stops
        # at NaN
        if m > max_picks or (m > 1 and not 0.0 < delta < np.inf):
            break
        w = float(weights[v])
        if len(heavy) < k:
            heapq.heappush(heavy, w)
            continue
        # ``heavy`` keeps the k heaviest weights, ``light`` sums the rest
        light += heapq.heappushpop(heavy, w)
        while j < len(budgets) and not _weight_feasible(
                light * (1.0 - _FLOOR_MARGIN), budgets[j]):
            floors[j] = delta
            j += 1
        if j == len(budgets):
            break
    return radius, floors


def _below_floor(guess: float, floor: float) -> bool:
    """Whether a decision at ``guess`` certainly leaves too much
    uncovered: its ``3g`` cutoff is below half the budget's floor
    (:func:`_bounds`), less the rounding margin."""
    return _cutoffs(guess)[1] < 0.5 * floor * (1.0 - _FLOOR_MARGIN)


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


def _cutoffs(guess: float) -> "tuple[float, float]":
    """The ``g``-ball and ``3g``-ball cutoffs of the decision at
    ``guess``, each padded by the same small relative tolerance."""
    tol = 1e-9 * max(1.0, guess)
    return guess + tol, 3.0 * guess + tol


def _pick_centers(source, k: int,
                  stats: "dict | None") -> "tuple[list[int], np.ndarray]":
    """The Charikar pick loop, over any gain source.

    ``source.gain[v]`` is the uncovered weight within the guess of
    ``v``.  Each pick takes its argmax ``v``, covers
    ``source.cover(v, uncovered)`` (the still uncovered points within
    ``3g`` of ``v``, ascending) and lets ``source.subtract(idx,
    uncovered)`` take their weight out of the gains, ``uncovered``
    already updated.  It stops after ``k`` picks or once nothing is
    left uncovered, and counts one decision into ``stats``.

    Every source's ``cover`` returns distinct indices of still uncovered
    points (a mask's nonzeros, or a grid query's disjoint cell runs
    filtered by the mask), so ``left`` counts the uncovered points
    exactly without a scan of the mask per pick.

    Returns ``(centers, uncovered_mask)``.  Nothing here depends on the
    outlier budget ``z``: the caller tests the uncovered weight against
    each budget (:func:`_weight_feasible`).
    """
    n = len(source.gain)
    uncovered = np.ones(n, dtype=bool)
    left = n
    centers: list[int] = []
    for _ in range(min(k, n)):
        if not left:
            break
        v = int(source.gain.argmax())
        centers.append(v)
        idx = source.cover(v, uncovered)
        if idx.size:
            uncovered[idx] = False
            left -= idx.size
            source.subtract(idx, uncovered)
    if stats is not None:
        stats["decisions"] += 1
    return centers, uncovered


class _BallMatrix:
    """Pairwise gain source over a precomputed distance matrix ``D``.

    ``Wg`` is the ball membership ``D <= cutoff`` stored in the gain
    dtype (:func:`_gain_dtype`), so the matvecs hit BLAS without a
    bool->float promotion per pick; comparisons stay in ``D``'s own
    dtype.  It is allocated once and refilled by :meth:`seed` for each
    guess, so a radius search reuses it.  One matvec seeds the gains and
    a pick subtracts the weight of its newly covered points.

    A pick's newly covered points ``idx`` take ``Wg[:, idx] @ w[idx]``
    out of the gains: a strided gather of columns.  When ``D`` is
    ``symmetric`` bit for bit (the built-in norms) ``Wg[idx]`` holds the
    same entries as contiguous rows, and ``w[idx] @ Wg[idx]`` reads them
    at a fraction of the cost.  The two products sum in different
    orders, so the rows serve only integer weights totalling under
    ``2^53``, whose gains are exact integer sums in either gain dtype.
    ``charikar_greedy`` always passes integer weights, but fractional
    ones are a supported input of direct :func:`_greedy_disks` calls
    (their picks are regression-tested against the frozen reference):
    they keep the column gather and its rounding, as does any ``D`` not
    known to be symmetric.
    """

    def __init__(self, D: np.ndarray, weights: np.ndarray,
                 symmetric: bool = False):
        self.D = D
        self.Wg = np.empty(D.shape, dtype=_gain_dtype(weights))
        self.w = weights.astype(self.Wg.dtype)
        self.rows = (symmetric
                     and np.issubdtype(weights.dtype, np.integer)
                     and float(weights.sum()) < 2.0**53)

    def seed(self, guess: float) -> "_BallMatrix":
        cutoff, self.limit3 = _cutoffs(guess)
        np.less_equal(self.D, cutoff, out=self.Wg)
        self.gain = self.Wg @ self.w
        return self

    def cover(self, v: int, uncovered: np.ndarray) -> np.ndarray:
        new = self.D[v] <= self.limit3
        new &= uncovered
        return new.nonzero()[0]

    def subtract(self, idx: np.ndarray, uncovered: np.ndarray) -> None:
        if 2 * idx.size > len(uncovered):
            # a full matvec beats copying most of Wg; the recomputed
            # integer sum equals the incremental one exactly
            self.gain = self.Wg @ (self.w * uncovered)
        elif self.rows:
            self.gain -= self.w[idx] @ self.Wg[idx]
        else:
            self.gain -= self.Wg[:, idx] @ self.w[idx]


def _greedy_disks(
    D: np.ndarray,
    weights: np.ndarray,
    k: int,
    guess: float,
    balls: "_BallMatrix | None" = None,
    stats: "dict | None" = None,
) -> "tuple[list[int], np.ndarray]":
    """Charikar decision for radius ``guess`` on a precomputed distance
    matrix ``D``: :func:`_pick_centers` over ``balls``, the
    :class:`_BallMatrix` of ``D`` and ``weights`` (a radius search
    passes one to reuse across guesses), seeded at ``guess``."""
    if balls is None:
        balls = _BallMatrix(D, weights)
    return _pick_centers(balls.seed(guess), k, stats)


class _DenseChunks:
    """Dense gain source without a full distance matrix: ball membership
    is recomputed in chunks of :func:`auto_chunk` rows, against every
    point to seed and against the newly covered points per pick —
    ``O(n^2)`` distance evaluations per guess in all."""

    def __init__(self, wps: WeightedPointSet, metric: Metric, guess: float):
        self.pts, self.metric = wps.points, metric
        self.w = wps.weights.astype(_gain_dtype(wps.weights))
        self.cutoff, self.limit3 = _cutoffs(guess)
        self.chunk = auto_chunk(len(self.pts))
        self.gain = self._ball_weight(self.pts, self.w)

    def _ball_weight(self, sub: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(dist(p, sub) <= cutoff) @ w`` for every point ``p``."""
        pts, chunk = self.pts, self.chunk
        out = np.empty(len(pts), dtype=w.dtype)
        for i0 in range(0, len(pts), chunk):
            block = self.metric.pairwise(pts[i0 : i0 + chunk], sub)
            out[i0 : i0 + len(block)] = \
                (block <= self.cutoff).astype(w.dtype) @ w
        return out

    def cover(self, v: int, uncovered: np.ndarray) -> np.ndarray:
        dv = self.metric.to_set(self.pts[v], self.pts)
        return np.flatnonzero(uncovered & (dv <= self.limit3))

    def subtract(self, idx: np.ndarray, uncovered: np.ndarray) -> None:
        self.gain -= self._ball_weight(self.pts[idx], self.w[idx])


def _geometric_decision(
    wps: WeightedPointSet,
    metric: Metric,
    k: int,
    guess: float,
    stats: "dict | None" = None,
) -> "tuple[list[int], np.ndarray]":
    """Charikar decision without a full distance matrix:
    :func:`_pick_centers` over :class:`_DenseChunks`.  Used when
    ``n > PAIRWISE_LIMIT`` and the grid pruning of :func:`_grid_decision`
    does not apply."""
    return _pick_centers(_DenseChunks(wps, metric, guess), k, stats)


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


def _group_by_cell(
    grid: PointGrid, idx: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Group point indices by their grid cell: ``(cells, starts, counts,
    members)``, cell ``cells[s]`` holding ``members[starts[s] :
    starts[s] + counts[s]]``, cells ascending."""
    by_cell, cells, of = distinct_cells(grid.point_cell[idx])
    counts = np.bincount(of)
    return cells, np.cumsum(counts) - counts, counts, idx[by_cell]


class _GridSource:
    """What the gain sources of one grid decision share: its grid,
    points, metric, float64 weights and cutoffs, held once, and the
    grid's ``3g`` coverage query."""

    def __init__(self, grid: PointGrid, wps: WeightedPointSet,
                 metric: Metric, guess: float):
        self.grid, self.pts, self.metric = grid, wps.points, metric
        self.w64 = wps.weights.astype(np.float64)
        self.cutoff, self.limit3 = _cutoffs(guess)

    def cover(self, v: int, uncovered: np.ndarray) -> np.ndarray:
        cand = self.grid.query_point(v, self.limit3)
        dv = self.metric.to_set(self.pts[v], self.pts.take(cand, axis=0))
        return np.sort(cand[uncovered[cand] & (dv <= self.limit3)])


class _NeighbourLists(_GridSource):
    """CSR gain source: every within-cutoff pair as the neighbour lists
    ``(ptr, nbrs, row_of)`` of :func:`neighbour_lists`.  One
    ``bincount`` lands each point's weight on every point of its list to
    seed the gains, and a pick subtracts one ``bincount`` over its newly
    covered points' lists.  That reads pick ``v``'s contribution to
    candidate ``i`` off ``v``'s own list: the built-in norms are
    bit-symmetric, so ``d(v, i) == d(i, v)``."""

    def __init__(self, grid: PointGrid, wps: WeightedPointSet,
                 metric: Metric, guess: float,
                 lists: "tuple[np.ndarray, np.ndarray, np.ndarray]"):
        super().__init__(grid, wps, metric, guess)
        self.ptr, self.nbrs, self.row_of = lists
        self.gain = np.bincount(
            self.nbrs,
            weights=np.repeat(self.w64[grid.order], np.diff(self.ptr)),
            minlength=grid.n,
        )

    def subtract(self, idx: np.ndarray, uncovered: np.ndarray) -> None:
        rows = self.row_of[idx]
        lo = self.ptr[rows]
        cnt = self.ptr[rows + 1] - lo
        self.gain -= np.bincount(
            self.nbrs[ranges(lo, cnt)], weights=np.repeat(self.w64[idx], cnt),
            minlength=len(self.gain),
        )


class _GridCells(_GridSource):
    """Cell gain source: one rows x members distance block per source
    cell (:meth:`_contributions`), its rows the points of the cells
    within Chebyshev ring ``ring`` of it.

    ``within`` (a sparse grid's streamed pair blocks from
    :func:`_within_cutoff`) seeds the gains one ``bincount`` per block,
    each block dropped before the next.  Without it the seed runs cell
    by cell over the points and weights copied into cell order
    (:attr:`PointGrid.order`), so each cell's members are a slice
    (:meth:`_seed`).  It keeps each cell's rows and contribution when
    the rows total at most :data:`_LIST_MAX_PAIRS`, and the picks spend
    those (:meth:`_subtract_kept`); otherwise it keeps nothing and every
    pick rescans its newly covered points cell by cell (:meth:`_scan`).

    Every block batch gathers its candidate rows at once, at most
    :data:`_GRID_BATCH_ROWS` of them (:meth:`_blocks`), and a pick
    gathers its newly covered points once, grouped by cell, so each
    cell's members are a slice of them too.
    """

    def __init__(self, grid: PointGrid, wps: WeightedPointSet,
                 metric: Metric, guess: float, within=None):
        super().__init__(grid, wps, metric, guess)
        self.ring = grid.ring(self.cutoff)
        self.kept = None
        if within is not None:
            self.gain = np.empty(grid.n, dtype=np.float64)
            for p0, p1, at, j in within:
                self.gain[grid.order[p0:p1]] = np.bincount(
                    at, weights=self.w64[j], minlength=p1 - p0
                )
        else:
            self._seed()

    def subtract(self, idx: np.ndarray, uncovered: np.ndarray) -> None:
        if self.kept is not None:
            self._subtract_kept(idx)
        else:
            self._scan(idx)

    def _contributions(self, rows: np.ndarray, sizes: "list[int]",
                       starts: "list[int]", counts: "list[int]",
                       mem: np.ndarray, wm: np.ndarray) -> np.ndarray:
        """The contributions of one batch of sources: source ``t`` owns
        the next ``sizes[t]`` of the gathered candidate ``rows`` and the
        members ``mem[starts[t] : starts[t] + counts[t]]`` (weights
        alongside in ``wm``), and each of its rows gets ``(dist(row,
        members) <= cutoff) @ weights``.

        One distance block per source, row-chunked to
        :data:`_GRID_PAIR_CHUNK` pairs so a giant cell (clustered data)
        never materializes an unbounded block.  Each block is dropped as
        soon as it is compared, before the next is allocated: a block
        held across the next chunk's allocation makes every chunk fault
        in fresh pages."""
        out = np.empty(len(rows), dtype=np.float64)
        a = 0
        for size, m0, m in zip(sizes, starts, counts):
            src, w = mem[m0 : m0 + m], wm[m0 : m0 + m]
            step = max(1, _GRID_PAIR_CHUNK // m)
            for r0 in range(a, a + size, step):
                r1 = min(r0 + step, a + size)
                np.dot(self.metric.pairwise(rows[r0:r1], src) <= self.cutoff,
                       w, out=out[r0:r1])
            a += size
        return out

    def _blocks(self, cells: np.ndarray, mem: np.ndarray, wm: np.ndarray,
                starts: np.ndarray, counts: np.ndarray):
        """Blocked per-cell scan: for every source ``s``, the weight of
        its members ``mem[starts[s] : starts[s] + counts[s]]`` (weights
        alongside in ``wm``) within the cutoff of each point of the
        cells within the ring of ``cells[s]`` (indices into
        ``grid.cell_codes``, ascending).

        Yields ``(ids, contrib)`` per batch of consecutive sources: the
        batch's candidate rows (point indices, source by source, each
        source's by code) and their contributions.  Neighbourhoods come
        as member runs a slice of sources at a time
        (:meth:`PointGrid.runs`), and a batch gathers at most
        :data:`_GRID_BATCH_ROWS` rows unless one source alone has more.
        """
        grid, pts = self.grid, self.pts
        starts, counts = starts.tolist(), counts.tolist()
        for i0, lo, cnt in grid.runs(cells, self.ring):
            sizes = cnt.sum(axis=1)
            cuts = batch_cuts(sizes, _GRID_BATCH_ROWS)
            sizes = sizes.tolist()
            for s0, s1 in zip(cuts, cuts[1:]):
                ids = grid.order[ranges(lo[s0:s1], cnt[s0:s1])]
                yield ids, self._contributions(
                    pts.take(ids, axis=0), sizes[s0:s1],
                    starts[i0 + s0 : i0 + s1], counts[i0 + s0 : i0 + s1],
                    mem, wm)

    def _seed(self) -> None:
        """Seed the gains cell by cell, every cell's members a slice of
        the cell-ordered copies.  Keeps what each cell computed when the
        cells' candidate rows total at most :data:`_LIST_MAX_PAIRS`,
        decided before any distance is computed.

        ``kept = (ptr, rows, rem, left)``: cell ``c``'s candidate rows
        (what :meth:`_blocks` scans for it) are ``rows[ptr[c]:ptr[c +
        1]]``, ``rem`` holds its contribution alongside, and ``left[c]``
        counts its members still uncovered."""
        grid = self.grid
        cells = np.arange(grid.num_cells)
        sizes = np.concatenate([cnt.sum(axis=1) for _, _, cnt
                                in grid.runs(cells, self.ring)])
        total = int(sizes.sum())
        blocks = self._blocks(cells, self.pts.take(grid.order, axis=0),
                              self.w64[grid.order], grid.cell_starts,
                              grid.cell_counts)
        if total > _LIST_MAX_PAIRS:
            self.gain = np.zeros(grid.n, dtype=np.float64)
            for ids, contrib in blocks:
                np.add.at(self.gain, ids, contrib)
            return
        rows = np.empty(total, dtype=np.int64)
        rem = np.empty(total, dtype=np.float64)
        a = 0
        for ids, contrib in blocks:
            rows[a : a + len(ids)] = ids
            rem[a : a + len(ids)] = contrib
            a += len(ids)
        self.gain = np.bincount(rows, weights=rem, minlength=grid.n)
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        self.kept = (ptr, rows, rem, grid.cell_counts.copy())

    def _scan(self, idx: np.ndarray) -> None:
        """One pick's update without kept cells: rescan the newly covered
        points ``idx``, grouped by cell, against their cells'
        neighbourhoods and subtract their weight from the gains."""
        cells, starts, counts, members = _group_by_cell(self.grid, idx)
        for ids, contrib in self._blocks(
                cells, self.pts.take(members, axis=0),
                self.w64[members], starts, counts):
            np.subtract.at(self.gain, ids, contrib)

    def _subtract_kept(self, idx: np.ndarray) -> None:
        """One pick's update from the kept cells: subtract the weight of
        the newly covered points ``idx`` from the gains.

        A cell whose last uncovered members are covered (all of them at
        once, or the rest after earlier picks) subtracts what is left of
        its seed contribution, with no distance computed; all such cells
        go in one ``bincount``.  Any other cell scans only its newly
        covered members against its kept rows, with no neighbour lookup,
        and spends the result from what it has left; those cells' rows
        are gathered :data:`_GRID_BATCH_ROWS` at a time.  Integer
        weights make every kept, spent and remaining contribution an
        exact float64 integer, so the gains equal the rescans' bit for
        bit.
        """
        ptr, rows, rem, left = self.kept
        gain = self.gain
        cells, starts, counts, members = _group_by_cell(self.grid, idx)
        left[cells] -= counts
        done = left[cells] == 0
        if done.any():
            lo = ptr[cells[done]]
            flat = ranges(lo, ptr[cells[done] + 1] - lo)
            gain -= np.bincount(rows[flat], weights=rem[flat],
                                minlength=len(gain))
        part = np.flatnonzero(~done)
        if not part.size:
            return
        mem = self.pts.take(members, axis=0)
        wm = self.w64[members]
        lo = ptr[cells[part]]
        sizes = ptr[cells[part] + 1] - lo
        cuts = batch_cuts(sizes, _GRID_BATCH_ROWS)
        n_rows = sizes.tolist()
        starts, counts = starts[part].tolist(), counts[part].tolist()
        for s0, s1 in zip(cuts, cuts[1:]):
            flat = ranges(lo[s0:s1], sizes[s0:s1])
            ids = rows[flat]
            contrib = self._contributions(
                self.pts.take(ids, axis=0), n_rows[s0:s1],
                starts[s0:s1], counts[s0:s1], mem, wm)
            np.subtract.at(gain, ids, contrib)
            rem[flat] -= contrib


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

    The grid's density picks the gain source for :func:`_pick_centers`.
    A *sparse* grid — at most :data:`_LIST_PAIRS_PER_CELL` candidate
    pairs per cell — expands its pairs through
    :meth:`PointGrid.candidate_pairs`: into :class:`_NeighbourLists` if
    they fit :data:`_LIST_MAX_PAIRS` (counted in
    ``stats["list_decisions"]``), else as the streamed seed of
    :class:`_GridCells`.  A *dense* grid seeds :class:`_GridCells` cell
    by cell.

    Exactness: the grid's candidate supersets are sound at any cell side
    (:meth:`PointGrid.ring` picks the ring the cutoff needs), every
    surviving pair is re-evaluated with float64 distances bit-identical
    to the dense path's cdist entries, and integer weights make every
    gain, kept or spent contribution an exact float64 integer in any
    summation order — so each pick matches the dense pick, tie-breaks
    included.
    """
    cutoff = _cutoffs(guess)[0]
    pairs = grid.candidate_pairs(
        cutoff, _LIST_PAIRS_PER_CELL * grid.num_cells, _LIST_BLOCK_PAIRS
    )
    if pairs is None:
        source = _GridCells(grid, wps, metric, guess)
    else:
        total, blocks = pairs
        within = _within_cutoff(blocks, wps.points, metric.name, cutoff)
        if total <= _LIST_MAX_PAIRS:
            source = _NeighbourLists(grid, wps, metric, guess,
                                     _lists_of(grid, within))
            if stats is not None:
                stats["list_decisions"] += 1
        else:
            source = _GridCells(grid, wps, metric, guess, within)
    return _pick_centers(source, k, stats)


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
    candidate radii (pairwise search), the farthest-first traversal and
    the guess ladder (geometric search), and every decision, memoized by
    guess.
    Each budget still runs its own binary search over those shared
    decisions, with no bracket narrowing from the previous budget
    (feasibility is only monotone for guesses ``>= opt``), so every
    result is bit-identical to a call with that budget alone; the
    one-budget call is simply the one-element case.  Negative or NaN
    budgets and unsorted sequences raise :class:`ValueError`, as does a
    ``tol`` that is not finite and positive.

    **Guesses settled without a decision.**  The traversal's first ``m``
    picks lie pairwise at least ``delta_m`` apart; once the ``m - k``
    lightest of them outweigh ``z``, no ``k`` balls of radius below
    ``delta_m / 2`` leave at most ``z`` uncovered, so ``opt_{k,z} >=
    delta_m / 2`` (``m <= k + z + 1`` with weights >= 1).  A guess whose
    padded ``3g`` cutoff is below that, less a relative rounding margin,
    cannot be feasible: the radius-0 test and each budget's binary
    search settle it as infeasible undecided, so they probe the same
    guesses and return the same results as without the floor.  For the
    built-in norms only: :class:`~repro.core.metrics.CallableMetric` and
    :class:`~repro.core.metrics.PrecomputedMetric` searches settle
    nothing.  The pairwise search walks up to ``n`` picks over its
    distance matrix's rows; a ladder search walks past Gonzalez's ``k``
    only when the smallest budget's ``k + z + 1`` picks fit within
    :data:`_FLOOR_PICKS` more, what two skipped decisions cost.

    The pairwise search computes its distance matrix once per call.  The
    geometric search prunes its scans with a grid whenever that is exact
    — a built-in norm in dimension <= 4 with integer weights totalling
    under ``2**53`` — and runs the dense chunked path otherwise, with
    bit-identical results.  :attr:`GreedyResult.path` records what ran.

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
    # the built-in norms: bit-symmetric distances (each entry is computed
    # from coordinate differences whose sign cannot matter) that obey the
    # triangle inequality
    kernel = isinstance(metric, _KernelMetric)
    # the pruning gate: exactly when pruned scans are provably
    # bit-identical to the dense float64 path — a built-in norm on real
    # coordinates in low dimension (sound (2R+1)^d cell neighborhoods)
    # and integer weights small enough that every partial sum is an exact
    # float64 integer in any order
    grid_ok = (
        kernel
        and wps.points.ndim == 2
        and wps.points.shape[1] <= _GRID_MAX_DIM
        and np.issubdtype(wps.weights.dtype, np.integer)
        and float(wps.weights.sum()) < 2.0**53
    )
    stats = {"decisions": 0, "skipped": 0, "list_decisions": 0,
             "grid_builds": 0}
    paths_used = set()
    if n <= pairwise_limit:
        paths_used.add("pairwise")
        # ONE distance matrix for the whole call; every guess below reuses
        # it and its ball-membership matrix, and the traversal its rows
        D = metric.pairwise(wps.points, wps.points)
        balls = _BallMatrix(D, wps.weights, symmetric=kernel)
        row = D.__getitem__

        def decide(g):
            return _greedy_disks(D, wps.weights, k, g, balls, stats)
    else:
        row = _metric_rows(wps, metric)

        def decide(g):
            if grid_ok:
                grid = _grid_for_guess(wps.points, _cutoffs(g)[0])
                if grid is not None:
                    stats["grid_builds"] += 1
                    paths_used.add("grid")
                    return _grid_decision(wps, metric, k, g, grid, stats)
            paths_used.add("dense")
            return _geometric_decision(wps, metric, k, g, stats)

    # one farthest-first traversal: its first k picks are Gonzalez's (the
    # ladder's upper bound), and the picks past k certify each budget's
    # floor.  The floor rests on the triangle inequality, which only the
    # built-in norms promise.  Budget z needs at most k + z + 1 picks
    # (weights >= 1): a ladder search walks past k only when the smallest
    # budget's fit within _FLOOR_PICKS more, and stops there
    if n <= pairwise_limit:
        max_picks = n if kernel else 0
    elif kernel and live[0] < _FLOOR_PICKS:
        max_picks = k + min(_FLOOR_PICKS, live[-1] + 1)
    else:
        max_picks = k
    radius, floors = _bounds(_farthest_first(row), k, wps.weights, live,
                             max_picks)

    # every positive guess's decision, shared by all budgets: the picks
    # and the uncovered weight they leave (one float, not an n-byte mask)
    memo: "dict[float, tuple[list[int], float]]" = {}
    # guesses some budget's floor settled; those never decided count
    skipped: "set[float]" = set()

    def decided(g: float) -> "tuple[list[int], float]":
        if g not in memo:
            centers, uncovered = decide(g)
            memo[g] = (centers, _uncovered_weight(wps.weights, uncovered))
        return memo[g]

    def prober(floor: float):
        """One budget's view of the decisions: a guess below its floor
        reads as uncovered weight ``inf``, undecided."""
        def probe(g: float) -> "tuple[list[int] | None, float]":
            if g not in memo and _below_floor(g, floor):
                skipped.add(g)
                return None, np.inf
            return decided(g)
        return probe

    # radius 0 can be optimal (duplicates, or light far points absorbed
    # by the outlier budget); test it outright before the positive
    # guesses, unless even the largest budget's (lowest) floor rules it out
    if _below_floor(0.0, floors[-1]):
        skipped.add(0.0)
        rem0 = np.inf
    else:
        centers0, uncovered0 = decide(0.0)
        rem0 = _uncovered_weight(wps.weights, uncovered0)
    # the smallest budget needs the most: if it fits at guess 0, all do
    if not _weight_feasible(rem0, live[0]):
        search = (_pairwise_search(D, kernel)
                  if n <= pairwise_limit else
                  _ladder_search(n, radius, tol, decided))
    picks = [
        (0.0, centers0, uncovered0) if _weight_feasible(rem0, zj)
        else search(zj, prober(floor))
        for zj, floor in zip(live, floors)
    ]
    stats["skipped"] = len(skipped - memo.keys())

    path = paths_used.pop() if len(paths_used) == 1 else "mixed"
    out = [
        _certified(wps, metric, zj, guess, centers, uncovered, path, stats)
        for zj, (guess, centers, uncovered) in zip(live, picks)
    ]
    out += [trivial() for _ in zs[len(live):]]
    return out[0] if single else out


def _smallest_feasible(guess_at, lo: int, hi: int, z, probe):
    """Binary search ``guess_at(lo..hi)`` for the smallest guess whose
    decision leaves uncovered weight at most ``z`` (``probe(g) ->
    (centers, uncovered weight)``, memoized): ``(guess, centers)``, or
    ``None`` when no probed guess is feasible.  Feasibility is monotone
    for guesses >= opt (Charikar et al.)."""
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        g = guess_at(mid)
        centers, rem = probe(g)
        if _weight_feasible(rem, z):
            best = (g, centers)
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _candidate_radii(D: np.ndarray, symmetric: bool) -> np.ndarray:
    """The distinct positive entries of ``D``, ascending (NaN dropped).

    A bit-symmetric ``D`` carries every value in its strict upper
    triangle, half the entries to sort; any other ``D`` is read whole."""
    if symmetric:
        n = len(D)
        cand = D[np.arange(n) > np.arange(n)[:, None]]
    else:
        cand = D.ravel()
    # ``> 0`` also drops NaN; the filter copies, so the sort leaves D intact
    cand = cand[cand > 0]
    cand.sort()
    distinct = np.empty(len(cand), dtype=bool)
    distinct[:1] = True
    np.not_equal(cand[1:], cand[:-1], out=distinct[1:])
    return cand[distinct]


def _pairwise_search(D: np.ndarray, symmetric: bool):
    """Per-budget search over the exact candidate radii, the distinct
    positive entries of ``D`` (:func:`_candidate_radii`; ``symmetric``
    when ``D`` is bit-symmetric): ``search(z, probe) -> (guess, centers,
    uncovered)``, where ``uncovered`` is ``None`` unless the search
    settled it itself."""
    n = len(D)
    cand = _candidate_radii(D, symmetric)

    def search(z, probe):
        if len(cand) == 0:  # all points coincide
            return 0.0, [0], np.zeros(n, dtype=bool)
        best = _smallest_feasible(lambda i: float(cand[i]), 0,
                                  len(cand) - 1, z, probe)
        if best is None:
            # every probe failed, so the last one decided the largest
            # candidate radius, the diameter: cannot happen, guard anyway
            raise RuntimeError(
                "greedy decision failed at maximum candidate radius"
            )
        return best + (None,)

    return search


def _ladder_search(n: int, radius: float, tol: float, decided):
    """Per-budget geometric search between a positive lower bound and the
    Gonzalez (k-center, no outliers) ``radius``, which upper-bounds
    ``opt_{k,z}`` for every ``z``: ``search(z, probe) -> (guess, centers,
    None)``."""
    hi_r = max(radius, 1e-300)
    lo_r = hi_r / max(4.0 * n, 4.0)
    # grid of guesses lo_r * (1+tol)^i up to hi_r
    ratio = 1.0 + tol
    m = int(np.ceil(np.log(hi_r / lo_r) / np.log(ratio))) + 1

    def search(z, probe):
        centers, rem = probe(lo_r)
        if _weight_feasible(rem, z):
            return lo_r, centers, None
        best = _smallest_feasible(lambda i: min(lo_r * ratio**i, hi_r), 0,
                                  m, z, probe)
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
    d = nearest_center_distances(wps, wps.points[centers_idx], metric)
    achieved = _coverage_radius_of(d, wps.weights, z)
    radius = float(min(3.0 * guess, achieved))
    uncovered = d > radius + 1e-9 * max(1.0, radius)
    return GreedyResult(centers_idx, radius, float(guess), uncovered, path, stats)
