"""Mini-ball coverings (Definition 2, Algorithm 1, Lemmas 3-7).

A *mini-ball covering* (MBC) of a weighted point set ``P`` is a weighted
subset ``P*`` together with a partition of ``P`` into groups, one per
``q in P*``, such that every group lies in a ball of radius
``eps * opt_{k,z}(P)`` around its representative and carries the group's
total weight.  Lemma 3 shows an MBC is an ``(eps,k,z)``-coreset; Lemma 4
shows MBCs of a partition union to an MBC of the whole; Lemma 5 shows MBCs
compose transitively with error ``eps + gamma + eps*gamma``.

:func:`mbc_construction` is Algorithm 1 (``MBCConstruction``): call
``Greedy(P,k,z)`` for a radius ``r in [opt, 3 opt]``, then greedily absorb
everything within ``eps * r / 3`` of an arbitrary remaining point.  Lemma 7
bounds the output size by ``k * (12/eps)^d + z``.

:func:`update_coreset` is Algorithm 4 (``UpdateCoreset``): the same greedy
absorption at an explicitly given distance ``delta`` (used by the streaming
algorithm when it doubles its radius estimate).

Performance (the kernels refactor): the absorption loop no longer scans
all ``n`` points per representative.  For the built-in norms it buckets
the input into a :class:`repro.geometry.PointGrid` with cell side just
above ``delta`` (the same sorted-int64-code index the grid-pruned
greedy decision procedure uses) and evaluates distances only against the
``3^d`` neighboring cells of each representative — any point within
``delta`` under L2/L1/Linf is within ``delta`` per coordinate, so no
candidate is missed and results are bit-identical to the scalar loop
(``greedy_absorb_reference`` in ``tests/_greedy_reference.py``; proven by
the parity tests).  While the exact candidate-pair count fits the kernel
layer's block budget, every within-``delta`` pair is found up front in
vectorized blocks of cells (:func:`repro.core.greedy.neighbour_lists`,
shared with the sparse-cell Charikar decisions).  The greedy then picks
exactly the *first-fit* set of the neighbour graph in the given order (a
point is picked iff no earlier point of its list was): short lists (mean
length at most :data:`_ROUNDS_MAX_MEAN_LIST`) compute it in vectorized
rounds (:func:`first_fit`), longer ones walk the lists in order, where
the rounds measured slower.  Denser inputs (duplicate floods) query the
grid per representative instead.  Arbitrary metrics, high dimensions and
degenerate cell sides fall back to scanning only the still-unabsorbed
points, which shrinks as the balls absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..geometry.grid import PointGrid, cutoff_side
from .greedy import _LIST_MAX_PAIRS, charikar_greedy, neighbour_lists
from .metrics import Metric, _KernelMetric, get_metric
from .points import WeightedPointSet

__all__ = [
    "MiniBallCovering",
    "mbc_construction",
    "update_coreset",
    "compose_errors",
    "mbc_size_bound",
]


@dataclass(frozen=True)
class MiniBallCovering:
    """An ``(eps,k,z)``-mini-ball covering.

    Attributes
    ----------
    coreset:
        The weighted representative set ``P*`` (a subset of the input
        coordinates, re-weighted).
    assignment:
        For each input point, the index into ``coreset`` of its
        representative (``assignment[i] == j`` means input point ``i`` lies
        in the mini-ball of ``coreset`` row ``j``).
    mini_ball_radius:
        The absolute absorption radius used (``eps * r / 3`` in
        Algorithm 1, ``delta`` in Algorithm 4).  Every input point is
        within this distance of its representative.
    greedy_radius:
        The radius ``r`` returned by ``Greedy`` (``nan`` when the covering
        was built by :func:`update_coreset`, which takes ``delta``
        directly).
    eps:
        The error parameter the covering was built for.
    """

    coreset: WeightedPointSet
    assignment: np.ndarray
    mini_ball_radius: float
    greedy_radius: float
    eps: float

    @property
    def size(self) -> int:
        """Number of representatives ``|P*|``."""
        return len(self.coreset)


#: 3^d neighbor cells per representative; beyond this the enumeration
#: overtakes the saved distance work
_GRID_MAX_DIM = 4
#: below this the grid's setup cost exceeds the whole scalar loop
_GRID_MIN_POINTS = 192
#: candidate pairs the vectorized neighbor-list pass may expand (the
#: list decisions' budget, shared); denser inputs (duplicate floods) keep
#: the per-representative grid queries
_ABSORB_MAX_PAIRS = _LIST_MAX_PAIRS
#: mean neighbour-list length (a point's list includes itself) up to which
#: the absorb runs :func:`first_fit` rounds instead of walking the lists.
#: Measured on 8,000 uniform points (one core of a 2-core Xeon VM,
#: ``benchmarks/first_fit_inputs.py density``): rounds 7 vs walk 28 ms at
#: mean length 1.2 and 14 vs 19 ms at 7, even at 17, 42 vs 36 ms at 31
#: and 68 vs 59 ms at 59, so the rounds run only where they clearly win
_ROUNDS_MAX_MEAN_LIST = 8
#: a first-fit round that settles less than this share of the open
#: vertices (long dependency chains, e.g. ordered input) hands the rest
#: to the in-order walk
_WALK_BELOW_SHARE = 1 / 8


def first_fit(
    n: int,
    later: np.ndarray,
    earlier: np.ndarray,
    stats: "dict | None" = None,
) -> np.ndarray:
    """The first-fit set of a graph on the vertices ``0..n-1``: vertex
    ``v`` is in it iff none of its neighbours ``u < v`` is (the greedy
    maximal independent set in vertex order).  Edge ``e`` joins
    ``later[e]`` to the earlier vertex ``earlier[e] < later[e]``; repeated
    edges are harmless.  Returns the set as a boolean mask.

    Computed in vectorized rounds (Blelloch, Fineman & Shun, SPAA 2012):
    an open vertex with no open earlier neighbour joins the set, and its
    open later neighbours close in the same round, so an open vertex
    never has an earlier neighbour in the set.  The lowest open vertex
    always joins, so every round settles one vertex at least; once a round
    settles less than :data:`_WALK_BELOW_SHARE` of the open vertices, the
    rest are walked in order, each open vertex joining and closing its
    later neighbours.  ``stats``, when given, receives ``rounds`` and the
    number of vertices ``walked``.
    """
    later = np.asarray(later, dtype=np.int64)
    earlier = np.asarray(earlier, dtype=np.int64)
    chosen = np.zeros(n, dtype=bool)
    is_open = np.ones(n, dtype=bool)
    live = np.arange(n)
    rounds = 0
    while len(live):
        rounds += 1
        blocked = np.zeros(n, dtype=bool)
        blocked[later] = True
        new = live[~blocked[live]]
        chosen[new] = True
        is_open[new] = False
        is_open[later[chosen[earlier]]] = False
        keep = is_open[later] & is_open[earlier]
        later, earlier = later[keep], earlier[keep]
        before = len(live)
        live = live[is_open[live]]
        if before - len(live) < _WALK_BELOW_SHARE * before:
            break
    if stats is not None:
        stats["rounds"] = rounds
        stats["walked"] = len(live)
    if len(live):
        o = np.argsort(earlier, kind="stable")
        earlier, later = earlier[o], later[o]
        lo = np.searchsorted(earlier, live, side="left").tolist()
        hi = np.searchsorted(earlier, live, side="right").tolist()
        for v, a, b in zip(live.tolist(), lo, hi):
            if is_open[v]:
                chosen[v] = True
                is_open[later[a:b]] = False
    return chosen


def _greedy_absorb(
    wps: WeightedPointSet,
    delta: float,
    metric: Metric,
    order: "np.ndarray | None" = None,
) -> "tuple[WeightedPointSet, np.ndarray]":
    """Greedy absorption: repeatedly take the first remaining point and
    absorb every remaining point within ``delta`` of it.

    ``order`` optionally permutes the 'arbitrary point' choice (Algorithm 1
    line 4 allows any order; tests use this to check order-independence of
    the guarantees).  Returns the representative set and the assignment.

    Bit-identical to the pre-refactor scalar loop
    (``greedy_absorb_reference``).  The walk in ``order`` is written
    once; only where each pick's within-``delta`` points come from
    differs: the precomputed neighbour lists while their pair count fits
    :data:`_ABSORB_MAX_PAIRS`, a grid query per pick when the grid
    applies but the lists do not fit, else a scan of the still-remaining
    points.  Lists of mean length at most :data:`_ROUNDS_MAX_MEAN_LIST`
    skip the walk: the picks are their :func:`first_fit` set
    (:func:`_absorb_rounds`).
    """
    n = len(wps)
    if n == 0:
        return wps, np.zeros(0, dtype=np.int64)
    pts = wps.points
    if order is None:
        order = np.arange(n)
    remaining = np.ones(n, dtype=bool)
    assignment = np.full(n, -1, dtype=np.int64)
    rep_rows: list[int] = []
    rep_weights: list[int] = []
    tol = 1e-9 * max(1.0, delta)
    cutoff = delta + tol

    grid = None
    # only the built-in norm metrics operate on actual coordinates with
    # dist <= delta implying per-coordinate distance <= delta (L2 and L1
    # dominate Linf), making the 3^d neighborhood a sound candidate
    # superset; an isinstance gate (not metric.name, which Callable/
    # PrecomputedMetric document as cosmetic) keeps e.g. a
    # PrecomputedMetric(name="euclidean") off the grid — its "points" are
    # element ids, meaningless to bucket
    if (
        n >= _GRID_MIN_POINTS
        and pts.shape[1] <= _GRID_MAX_DIM
        and isinstance(metric, _KernelMetric)
    ):
        grid = PointGrid.build(pts, cutoff_side(cutoff, pts), max_ring=1)

    lists = None
    if grid is not None:
        lists = neighbour_lists(grid, pts, metric.name, cutoff,
                                _ABSORB_MAX_PAIRS)
    if lists is not None and len(lists[1]) <= _ROUNDS_MAX_MEAN_LIST * n:
        return _absorb_rounds(wps, grid.order, *lists, order)
    # one walk; near(idx) is every point within the cutoff of idx (the
    # lists and grid queries may include absorbed ones, filtered below)
    if lists is not None:
        ptr, nbrs, row_of = lists  # a point's list includes itself

        def near(idx):
            return nbrs[ptr[row_of[idx]]:ptr[row_of[idx] + 1]]
    elif grid is not None:
        def near(idx):
            cand = grid.query_point(int(idx), cutoff)
            return cand[metric.to_set(pts[idx], pts[cand]) <= cutoff]
    else:
        def near(idx):
            rem = np.flatnonzero(remaining)
            return rem[metric.to_set(pts[idx], pts[rem]) <= cutoff]
    for idx in order:
        if not remaining[idx]:
            continue
        cand = near(idx)
        sel = cand[remaining[cand]]
        assignment[sel] = len(rep_rows)
        rep_rows.append(int(idx))
        rep_weights.append(int(wps.weights[sel].sum()))
        remaining[sel] = False
    coreset = WeightedPointSet(
        pts[rep_rows], np.asarray(rep_weights, dtype=np.int64)
    )
    return coreset, assignment


def _absorb_rounds(
    wps: WeightedPointSet,
    grid_order: np.ndarray,
    ptr: np.ndarray,
    nbrs: np.ndarray,
    row_of: np.ndarray,
    order: np.ndarray,
) -> "tuple[WeightedPointSet, np.ndarray]":
    """:func:`_greedy_absorb` over symmetric neighbour lists as one
    :func:`first_fit`: the walk picks a point iff no earlier point (in
    ``order``) of its list was picked, and hands every other point to the
    earliest pick in its list.  ``ptr``/``nbrs``/``row_of`` are
    :func:`~repro.core.greedy.neighbour_lists` over a grid whose row
    ``r`` holds point ``grid_order[r]``."""
    n = len(wps)
    order = np.asarray(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    at = rank[np.repeat(grid_order, np.diff(ptr))]
    to = rank[nbrs]
    edge = to < at
    picked = first_fit(n, at[edge], to[edge])
    # each point goes to the earliest picked rank in its list (a pick's
    # own list holds no earlier pick, so it goes to itself)
    key = np.where(picked[to], to, n)
    first = np.minimum.reduceat(key, ptr[:-1])[row_of]
    ordinal = np.cumsum(picked) - 1
    assignment = ordinal[first]
    weights = np.zeros(int(picked.sum()), dtype=np.int64)
    np.add.at(weights, assignment, wps.weights)
    coreset = WeightedPointSet(wps.points[order[picked]], weights)
    return coreset, assignment


def mbc_construction(
    wps: WeightedPointSet,
    k: int,
    z: int,
    eps: float,
    metric: "Metric | str | None" = None,
    radius: "float | None" = None,
    order: "np.ndarray | None" = None,
) -> MiniBallCovering:
    """Algorithm 1: ``MBCConstruction(P, k, z, eps)``.

    Parameters
    ----------
    radius:
        Optional externally supplied ``Greedy`` radius (the MPC algorithms
        reuse radii computed in an earlier round); when ``None``,
        ``Greedy(P,k,z)`` is invoked.
    order:
        Optional permutation controlling which 'arbitrary point' is picked
        first (the guarantee holds for any order).

    Returns an ``(eps', k, z)``-mini-ball covering with
    ``eps' = eps * (r / (3 opt))`` (Lemma 7).  That is ``<= eps`` when
    ``r`` comes from :func:`charikar_greedy`'s exact pairwise path
    (``r <= 3 opt``, at most ``pairwise_limit`` points), but only
    ``<= eps * (1 + tol)`` when it comes from the geometric ladder of
    larger inputs (``r <= 3 (1 + tol) opt``), and it is whatever a
    caller-supplied ``radius`` makes it.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    metric = get_metric(metric)
    if radius is None:
        radius = charikar_greedy(wps, k, z, metric).radius
    delta = eps * radius / 3.0
    coreset, assignment = _greedy_absorb(wps, delta, metric, order)
    return MiniBallCovering(
        coreset=coreset,
        assignment=assignment,
        mini_ball_radius=delta,
        greedy_radius=float(radius),
        eps=float(eps),
    )


def update_coreset(
    wps: WeightedPointSet,
    delta: float,
    metric: "Metric | str | None" = None,
    order: "np.ndarray | None" = None,
) -> MiniBallCovering:
    """Algorithm 4: ``UpdateCoreset(Q, delta)``.

    Greedy absorption at absolute distance ``delta``; used by the streaming
    algorithm (Algorithm 3 line 10) after doubling its radius estimate.
    """
    metric = get_metric(metric)
    coreset, assignment = _greedy_absorb(wps, delta, metric, order)
    return MiniBallCovering(
        coreset=coreset,
        assignment=assignment,
        mini_ball_radius=float(delta),
        greedy_radius=float("nan"),
        eps=float("nan"),
    )


def compose_errors(gamma: float, eps: float) -> float:
    """Lemma 5: composing a ``gamma``-MBC with an ``eps``-MBC of it yields
    an ``(eps + gamma + eps*gamma)``-MBC of the original set."""
    return eps + gamma + eps * gamma


def mbc_size_bound(k: int, z: int, eps: float, d: int) -> int:
    """Lemma 7's size bound ``k * ceil(12/eps)^d + z`` on Algorithm 1's
    output (doubling dimension ``d``)."""
    if eps <= 0:
        raise ValueError("size bound needs eps > 0")
    return int(k * ceil(12.0 / eps) ** d + z)
