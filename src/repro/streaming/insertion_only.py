"""Algorithm 3 — the space-optimal insertion-only streaming coreset (§4.3).

Maintains a radius estimate ``r <= opt_{k,z}(P(t))`` and a weighted
representative set ``P*``:

* a new point within ``(eps/2) r`` of a representative is absorbed into
  its weight;
* otherwise it becomes a representative itself;
* while ``r == 0``, once ``|P*| = k + z + 1`` the estimate is initialized
  to half the minimum pairwise distance (two representatives must share an
  optimal ball);
* whenever ``|P*|`` reaches ``k (16/eps)^d + z``, the radius is *doubled*
  and ``UpdateCoreset`` (Algorithm 4) re-absorbs at ``(eps/2) r`` —
  doubling (rather than a gentler growth) is what keeps the accumulated
  assignment error telescoping to ``eps * r`` (Lemma 16).

Theorem 18: the structure is an ``(eps,k,z)``-coreset of the prefix at all
times and stores at most ``k (16/eps)^d + z`` points, matching the
Omega(k/eps^d + z) lower bound of §4.1-4.2.

Implementation notes: representatives live in a pre-allocated, doubling
NumPy buffer (the guides' "no per-point Python objects" rule), and
:meth:`InsertionOnlyCoreset.extend` ingests in chunks, all decided one
way.  Each chunk finds every row's nearest representative at once;
absorptions become one weight update per chunk.  A row opens a
representative iff no representative is within the cutoff when it
arrives, so the chunk's openers are the *first-fit* set of the rows
``P*`` leaves unabsorbed (:func:`~repro.core.mbc.first_fit`, computed in
vectorized rounds); the chunk ends at the opener after which ``r``
changes, and every other row then takes its nearest representative
among ``P*`` and the earlier openers with one lexsort.

Only where the candidate pairs come from differs.  Once ``r > 0`` the
nearest-representative query goes through a
:class:`~repro.geometry.CellIndex` over ``P*`` whose cells are just wider
than the absorb cutoff ``(eps/2) r``.  Any representative within the
cutoff lies in the ``3^d`` cells around an arrival, so only those are
evaluated, and the earliest-index tie-break of a dense ``argmin`` is
kept: every representative that can win lies in that neighborhood, and a
row with no candidate simply opens a representative.  The index is
rebuilt when ``r`` changes (initialization, doubling) and grows with the
representatives in between.  Each chunk sorts its cell codes once: the
distinct cells are the index's queries, so rows sharing a cell share its
searches, and the sorted rows are the members the openers' within-cutoff
pairs are searched in, so no second index is built.  For ``r == 0``,
metrics without coordinates, ``d > 4``, coordinates the grid cannot
quantize, and small blocks where it is cheaper, two dense blocks serve
instead: ``chunk x P*``, and the rows from the first possible opener on
against the possible openers.  Both are bit-identical to the per-point
:meth:`~InsertionOnlyCoreset.insert` loop (parity-tested).

The paper threshold is astronomical for small ``eps`` and moderate
``d``, so ``size_cap`` lets applications bound the structure (at the
documented cost of the worst-case guarantee — the cap is exercised by
the failure-injection tests).
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..core.mbc import _GRID_MAX_DIM, first_fit, update_coreset
from ..core.metrics import _KernelMetric, get_metric
from ..core.points import WeightedPointSet
from ..core.radius import min_pairwise_distance
from ..geometry.grid import CellIndex, cutoff_side, distinct_cells
from ..kernels import pair_distances

__all__ = ["paper_size_threshold", "InsertionOnlyCoreset"]


def paper_size_threshold(k: int, z: int, eps: float, d: int) -> int:
    """Algorithm 3's re-clustering threshold ``k * ceil(16/eps)^d + z``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return int(k * ceil(16.0 / eps) ** d + z)


#: rows per chunk of :meth:`InsertionOnlyCoreset.extend`; a chunk that
#: takes the dense block stops after _DENSE_CHUNK_ROWS rows, which bounds
#: the block at _DENSE_CHUNK_ROWS x |P*|.  Either bounds the work thrown
#: away when a change of r invalidates a chunk's distances
_CHUNK_ROWS = 2048
_DENSE_CHUNK_ROWS = 256
#: chunk rows x |P*| below which one dense distance block is taken
#: instead of the cell index.  One extend of a 2-D clustered stream, as
#: dense/index medians (one core of a 2-core Xeon VM;
#: AB_PR27_index_threshold.json): the dense block wins small blocks
#: (21/89 us at 16 rows x 210 representatives, 140/174 us at 256 x 210),
#: the index most shapes from about 3*10^4 pairs (102/91 us at 16 x 1795,
#: 211/140 us at 128 x 668, 325/183 us at 32 x 4061) and every measured
#: shape above 2^17 (646/193 us at 16 x 15973).  Below 2^17 neither path
#: wins at every shape, so the threshold stays there; serve-sized
#: extends (32 rows x ~256 representatives) stay on the dense block
_INDEX_MIN_PAIRS = 1 << 17


def _nearest(q: np.ndarray, ids: np.ndarray, d: np.ndarray,
             m: int) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row ``(min distance, argmin id)`` of candidate pairs grouped
    by row ``q``; ties go to the smallest id, like ``np.argmin`` over the
    full row.  Rows without candidates get ``(inf, -1)``."""
    cur_min = np.full(m, np.inf)
    cur_arg = np.full(m, -1, dtype=np.int64)
    if len(q):
        starts = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
        mins = np.minimum.reduceat(d, starts)
        lens = np.diff(np.append(starts, len(q)))
        tied = np.where(d == np.repeat(mins, lens), ids,
                        np.iinfo(np.int64).max)
        cur_min[q[starts]] = mins
        cur_arg[q[starts]] = np.minimum.reduceat(tied, starts)
    return cur_min, cur_arg


class InsertionOnlyCoreset:
    """Streaming ``(eps,k,z)``-coreset for insertion-only streams.

    Parameters
    ----------
    k, z, eps:
        Problem parameters (``0 < eps <= 1``).
    d:
        Doubling dimension used in the size threshold (for point sets in
        ``R^dim`` under the built-in norms, ``d = dim``).
    metric:
        Metric instance or name; Euclidean by default.
    size_cap:
        Override for the re-clustering threshold.  ``None`` uses the
        paper's ``k (16/eps)^d + z``.  Values below ``k + z + 2`` are
        rejected (the structure could not even initialize ``r``).

    Attributes
    ----------
    r:
        Current radius estimate (always ``<= opt_{k,z}`` of the prefix
        when running with the paper threshold).
    doublings:
        Number of radius doublings performed (diagnostics).
    """

    def __init__(
        self,
        k: int,
        z: int,
        eps: float,
        d: int,
        metric=None,
        size_cap: "int | None" = None,
    ):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if k < 1 or z < 0 or d < 1:
            raise ValueError("need k >= 1, z >= 0, d >= 1")
        self.k, self.z, self.eps, self.d = int(k), int(z), float(eps), int(d)
        self.metric = get_metric(metric)
        self.threshold = (
            paper_size_threshold(k, z, eps, d) if size_cap is None else int(size_cap)
        )
        if self.threshold < k + z + 2:
            raise ValueError("size_cap must be at least k + z + 2")
        self.r = 0.0
        self.doublings = 0
        self._n = 0
        self._dim: "int | None" = None
        self._buf = np.zeros((0, 0))
        self._w = np.zeros(0, dtype=np.int64)
        self._size = 0
        #: kernel name of a coordinate norm (the cell index applies), else None
        self._kind = (self.metric.name
                      if isinstance(self.metric, _KernelMetric) else None)
        #: cell index over P*[:_indexed], built for radius _index_r
        #: (None there: not built yet, or the grid refused P*)
        self._index: "CellIndex | None" = None
        self._indexed = 0
        self._index_r: "float | None" = None

    # -- buffer plumbing ---------------------------------------------------

    def _ensure_capacity(self, dim: int, rows: int = 0) -> None:
        """Room for ``rows`` more representatives and one free slot."""
        if self._dim is None:
            self._dim = dim
            self._buf = np.zeros((16, dim))
            self._w = np.zeros(16, dtype=np.int64)
        elif dim != self._dim:
            raise ValueError(f"point dim {dim} != stream dim {self._dim}")
        cap = len(self._buf)
        while self._size + rows >= cap:
            cap *= 2
        if cap > len(self._buf):
            grow = cap - len(self._buf)
            self._buf = np.concatenate([self._buf, np.zeros((grow, dim))])
            self._w = np.concatenate([self._w, np.zeros(grow, dtype=np.int64)])

    def _set_reps(self, wps: WeightedPointSet) -> None:
        n = len(wps)
        cap = max(16, 1 << int(np.ceil(np.log2(max(n, 1)))))
        self._buf = np.zeros((cap, self._dim))
        self._buf[:n] = wps.points
        self._w = np.zeros(cap, dtype=np.int64)
        self._w[:n] = wps.weights
        self._size = n

    # -- public interface ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of stored representatives ``|P*|``."""
        return self._size

    @property
    def points_seen(self) -> int:
        """Stream length so far."""
        return self._n

    def coreset(self) -> WeightedPointSet:
        """The current ``(eps,k,z)``-coreset ``P*`` (Theorem 18)."""
        if self._size == 0:
            return WeightedPointSet.empty(self._dim or 1)
        return WeightedPointSet(
            self._buf[: self._size].copy(), self._w[: self._size].copy()
        )

    def snapshot(self) -> dict:
        """The full mutable state: representatives, weights, radius ladder.

        Buffer capacity (a power-of-two growth artifact) is not state:
        only ``P*[:size]`` ever affects outputs, so restore may repack it.
        The cell index is derived state and is rebuilt on demand.
        """
        return {
            "n": int(self._n),
            "r": float(self.r),
            "doublings": int(self.doublings),
            "threshold": int(self.threshold),
            "dim": int(self._dim) if self._dim is not None else None,
            "points": self._buf[: self._size].copy(),
            "weights": self._w[: self._size].copy(),
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot`; continuing the stream afterwards is
        bit-identical to never having snapshotted (parity-tested).

        Snapshots of earlier versions carry a ``batch_dense`` flag (the
        retired scalar-insert fallback); it never affected results and
        is ignored."""
        from ..persist import SnapshotError

        if int(state["threshold"]) != self.threshold:
            raise SnapshotError(
                f"snapshot threshold {state['threshold']} != structure "
                f"threshold {self.threshold} (size_cap/eps mismatch)"
            )
        dim = state["dim"]
        pts = np.asarray(state["points"], dtype=float)
        w = np.asarray(state["weights"], dtype=np.int64)
        if len(pts) != len(w):
            raise SnapshotError("representative/weight length mismatch")
        if not np.isfinite(pts).all():
            raise SnapshotError("snapshot holds a non-finite representative")
        self.r = float(state["r"])
        self.doublings = int(state["doublings"])
        self._n = int(state["n"])
        self._index, self._indexed, self._index_r = None, 0, None
        if dim is None:
            self._dim = None
            self._buf = np.zeros((0, 0))
            self._w = np.zeros(0, dtype=np.int64)
            self._size = 0
            return
        self._dim = int(dim)
        self._set_reps(WeightedPointSet(pts.reshape(len(pts), self._dim), w))

    # -- Algorithm 3 -----------------------------------------------------------

    def _cutoff(self) -> float:
        """The absorb distance ``(eps/2) r`` plus the float tolerance."""
        absorb = self.eps / 2.0 * self.r
        return absorb + 1e-12 * max(1.0, absorb)

    def _init_radius(self) -> None:
        """Lines 5-6: once ``|P*| = k + z + 1``, ``r`` = half the minimum
        pairwise distance (two representatives share an optimal ball)."""
        if self.r == 0.0 and self._size >= self.k + self.z + 1:
            delta_min = min_pairwise_distance(self._buf[: self._size], self.metric)
            if delta_min > 0:
                self.r = delta_min / 2.0

    def _double_while_full(self) -> None:
        """Lines 8-10: double ``r`` and recompress (Algorithm 4) while
        ``|P*|`` is at the threshold."""
        while self.r > 0.0 and self._size >= self.threshold:
            self.r *= 2.0
            self.doublings += 1
            mbc = update_coreset(self.coreset(), self.eps / 2.0 * self.r, self.metric)
            self._set_reps(mbc.coreset)

    def _open(self, rows: np.ndarray) -> None:
        """Append ``rows`` (shape ``(c, dim)``) to ``P*``, weight 1 each."""
        self._ensure_capacity(rows.shape[1], len(rows))
        end = self._size + len(rows)
        self._buf[self._size: end] = rows
        self._w[self._size: end] = 1
        self._size = end

    def insert(self, point) -> None:
        """HandleArrival(p_t) of Algorithm 3 — the scalar reference
        :meth:`extend` is bit-identical to."""
        p = np.asarray(point, dtype=float).reshape(-1)
        self._ensure_capacity(len(p))
        self._n += 1
        if self._size:
            dists = self.metric.to_set(p, self._buf[: self._size])
            j = int(np.argmin(dists))
            if dists[j] <= self._cutoff():
                self._w[j] += 1
                return
        self._open(p[None, :])
        self._init_radius()
        self._double_while_full()

    def extend(self, points) -> None:
        """Insert a batch of points in order — the vectorized hot path.

        Semantically identical to calling :meth:`insert` per row (same
        representatives, weights and radius estimate, bit for bit), but
        processed in chunks (see the module docstring).  A change of
        ``r`` (initialization, or a doubling, which rebuilds ``P*``)
        invalidates the chunk's distances, so the loop restarts from the
        next unprocessed row.  A one-row batch goes through
        :meth:`insert`, which answers it without the chunk's first-fit
        and lexsort steps.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) == 1:
            self.insert(pts[0])
            return
        i = 0
        while i < len(pts):
            i += self._extend_chunk(pts[i: i + _CHUNK_ROWS])

    def _cell_index(self, chunk: np.ndarray):
        """``(index, chunk cell codes)`` when the chunk should query the
        cell index over ``P*``, else ``None`` (the dense block applies).

        The index is rebuilt when ``r`` has changed since it was built
        and catches up with representatives appended since its last use;
        when the grid refuses a representative, the dense block serves
        until ``r`` changes again.
        """
        if (self.r <= 0.0 or self._kind is None or self._dim > _GRID_MAX_DIM
                or len(chunk) * self._size < _INDEX_MIN_PAIRS):
            return None
        if self._index_r != self.r:
            self._index_r = self.r
            cutoff = self._cutoff()
            side = cutoff_side(cutoff, self._buf[: self._size])
            self._index, self._indexed = CellIndex(side, self._dim, cutoff), 0
        index = self._index
        if index is None:
            return None
        if self._indexed < self._size:
            codes = index.encode(self._buf[self._indexed: self._size])
            if codes is None:
                self._index = None
                return None
            index.add(codes, np.arange(self._indexed, self._size))
            self._indexed = self._size
        codes = index.encode(chunk)
        return None if codes is None else (index, codes)

    def _extend_chunk(self, chunk: np.ndarray) -> int:
        """Vectorized insertion of ``chunk`` rows in order.

        Returns the number of rows consumed — fewer than ``len(chunk)``
        when ``r`` changes mid-chunk (the caller restarts from the next
        row).  A row opens a representative iff no representative is
        within the cutoff when it arrives: none of ``P*`` and none of the
        rows of this chunk opened before it.  So the openers are the
        :func:`~repro.core.mbc.first_fit` set of the rows ``P*`` does not
        absorb, joined when within the cutoff.  Only the candidate pairs
        depend on the path: through the cell index, ``P*``'s come from
        its query and the chunk's own are searched among its rows sorted
        by cell; otherwise two dense blocks serve, the chunk against
        ``P*`` and its rows from the first possible opener on against
        the possible openers.  The chunk ends at the opener after which
        ``r`` may change (``|P*|`` reaching ``k + z + 1`` while
        ``r == 0``, the threshold after).  Each consumed row then takes
        its nearest representative among ``P*`` and the earlier openers,
        ties to the lowest index (``P*`` first, then the openers in
        order) like ``np.argmin`` in :meth:`insert`: one lexsort over the
        openers' within-cutoff pairs.
        """
        self._ensure_capacity(chunk.shape[1])
        found = self._cell_index(chunk)
        if found is None:
            chunk = chunk[:_DENSE_CHUNK_ROWS]
        m = len(chunk)
        cutoff = self._cutoff()
        if found is not None:
            index, codes = found
            # one sort: the query cells of the P* lookup, and the chunk's
            # rows as sorted members for the openers' lookup
            order, cells, of = distinct_cells(codes)
            q, ids = index.cell_pairs(cells, of)
            cur_min, cur_arg = _nearest(
                q, ids, pair_distances(self._kind, chunk, q, ids,
                                       other=self._buf), m)
        elif self._size:
            # np.argmin keeps the earliest index
            D = self.metric.pairwise(chunk, self._buf[: self._size])
            cur_arg = np.argmin(D, axis=1)
            cur_min = D[np.arange(m), cur_arg]
        else:
            cur_min = np.full(m, np.inf)
            cur_arg = np.full(m, -1, dtype=np.int64)
        absorbed = cur_min <= cutoff
        if absorbed.all():
            self._credit(cur_arg)
            return m
        opening = np.flatnonzero(~absorbed)
        # (earlier candidate q, later row) pairs within the cutoff, q
        # indexing ``opening``
        if found is not None:
            used = np.zeros(len(cells), dtype=bool)
            used[of[opening]] = True
            q, later = index.cell_pairs(cells[used],
                                        (np.cumsum(used) - 1)[of[opening]],
                                        (codes[order], order))
            keep = later > opening[q]
            q, later = q[keep], later[keep]
            d = pair_distances(self._kind, chunk, opening[q], later)
            near = d <= cutoff
            q, later, d = q[near], later[near], d[near]
        else:
            # the arriving row first, the representative second, as in
            # insert; rows before the first candidate meet no opener
            s = int(opening[0]) + 1
            D = self.metric.pairwise(chunk[s:], chunk[opening])
            later, q = np.nonzero((D <= cutoff)
                                  & (np.arange(s, m)[:, None] > opening))
            d = D[later, q]
            later += s
        src = opening[q]
        both = ~absorbed[later]
        opens = opening[first_fit(len(opening),
                                  np.searchsorted(opening, later[both]),
                                  q[both])]
        full_at = self.threshold if self.r > 0.0 else self.k + self.z + 1
        room = max(full_at - self._size, 1)
        full = len(opens) >= room
        if full:
            opens = opens[:room]
        end = int(opens[-1]) + 1 if full else m
        # each row's nearest opener: (row, distance, index) ascending
        rep_id = np.full(m, -1, dtype=np.int64)
        rep_id[opens] = self._size + np.arange(len(opens))
        take = (rep_id[src] >= 0) & (later < end)
        t, dt, rid = later[take], d[take], rep_id[src[take]]
        o = np.lexsort((rid, dt, t))
        t, dt, rid = t[o], dt[o], rid[o]
        first = np.ones(len(t), dtype=bool)
        np.not_equal(t[1:], t[:-1], out=first[1:])
        t, dt, rid = t[first], dt[first], rid[first]
        # strict < keeps P*'s lower indices on ties
        win = dt < cur_min[t]
        cur_arg[t[win]] = rid[win]
        # every consumed row but the openers is now within the cutoff
        absorbed = rep_id[:end] < 0
        self._open(chunk[opens])
        self._credit(cur_arg[:end], absorbed)
        self._init_radius()
        self._double_while_full()
        return end

    def _credit(self, arg: np.ndarray,
                absorbed: "np.ndarray | None" = None) -> None:
        """Count a chunk prefix as seen and add its absorbed rows (all
        rows when ``absorbed`` is None) to their representatives'
        weights (one ``bincount``)."""
        self._n += len(arg)
        self._w[: self._size] += np.bincount(
            arg if absorbed is None else arg[absorbed], minlength=self._size)
