"""Frozen dict-of-lists reference for the sliding-window ladder (test-only oracle).

This is the per-rung Python implementation the library used before its
sliding-window state became stacked arrays: :class:`GuessStructure` keeps
one rung's cells as a dict of ``(time, point)`` lists in creation order,
with the scalar ``insert`` (full scan per arrival) and the batch ``extend``
(lazy recency heap), and :class:`ReferenceSlidingWindow` is the ladder of
them.  Its snapshot trees are the library's snapshot format, so the parity
tests compare snapshots, coresets and poison watermarks step by step and
restore each side's snapshots into the other.  Do not optimize this file.
"""

from __future__ import annotations

import heapq
from math import ceil, sqrt

import numpy as np

from repro.core.greedy import charikar_greedy
from repro.core.metrics import get_metric
from repro.core.points import WeightedPointSet
from repro.streaming.sliding_window import default_cell_capacity

__all__ = ["GuessStructure", "ReferenceSlidingWindow"]


class GuessStructure:
    """The per-radius-guess sliding-window cover (see module docstring)."""

    def __init__(self, r: float, k: int, z: int, eps: float, d: int, window: int,
                 capacity: "int | None" = None):
        if r <= 0:
            raise ValueError("guess radius must be positive")
        self.r = float(r)
        self.k, self.z, self.eps, self.d = int(k), int(z), float(eps), int(d)
        self.window = int(window)
        self.side = eps * r / sqrt(d)
        self.capacity = (
            default_cell_capacity(k, z, eps, d) if capacity is None else int(capacity)
        )
        #: cell key -> list of (time, point) pairs, newest last, length <= z+1
        self.cells: "dict[tuple, list[tuple[int, np.ndarray]]]" = {}
        #: queries whose window still contains an evicted arrival are invalid
        self.invalid_through: int = -1
        #: lazy min-heap of (newest-arrival time, key) used by the batch
        #: path; entries go stale when a cell receives a newer arrival and
        #: are skipped on pop.  None until first batch (the scalar path
        #: invalidates it rather than maintaining it).
        self._recency: "list[tuple[int, tuple]] | None" = None

    def _key(self, p: np.ndarray) -> tuple:
        return tuple(np.floor(np.asarray(p, dtype=float) / self.side).astype(np.int64).tolist())

    def _purge_expired(self, now: int) -> None:
        cutoff = now - self.window + 1
        dead = [key for key, buf in self.cells.items() if buf[-1][0] < cutoff]
        for key in dead:
            del self.cells[key]

    def insert(self, p: np.ndarray, t: int) -> None:
        """Record arrival of ``p`` at time ``t`` (times must be
        non-decreasing).  This is the scalar reference path; the batch
        path (:meth:`extend`) is bit-identical to it (the parity test in
        ``tests/test_sliding_window.py`` proves both)."""
        self._recency = None  # scalar path does not maintain the heap
        p = np.asarray(p, dtype=float).reshape(-1)
        key = self._key(p)
        buf = self.cells.setdefault(key, [])
        buf.append((int(t), p))
        if len(buf) > self.z + 1:
            buf.pop(0)
        self._purge_expired(int(t))
        while len(self.cells) > self.capacity:
            # evict the cell whose newest arrival is oldest
            victim = min(self.cells, key=lambda c: self.cells[c][-1][0])
            newest = self.cells[victim][-1][0]
            # windows [tq-W+1, tq] containing `newest` are poisoned
            self.invalid_through = max(self.invalid_through, newest + self.window - 1)
            del self.cells[victim]

    def _live_top(self) -> "tuple[int, tuple]":
        """Smallest (newest-arrival, key) over live cells, skipping stale
        heap entries.  Newest times are unique (one arrival per time per
        guess), so this is exactly the scalar path's ``min()`` victim."""
        heap = self._recency
        while True:
            tn, key = heap[0]
            buf = self.cells.get(key)
            if buf is None or buf[-1][0] != tn:
                heapq.heappop(heap)
                continue
            return tn, key

    def extend(self, pts: np.ndarray, t0: int, keys: "np.ndarray | None" = None) -> None:
        """Record a batch of arrivals at times ``t0, t0+1, ...``.

        Bit-identical to ``insert`` per row, but the cell keys for the
        whole batch are computed in one vectorized pass (``keys`` lets
        :class:`SlidingWindowCoreset` hand in keys computed for the whole
        ladder at once) and expiry/eviction run off a recency heap
        instead of a full scan per point.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if len(pts) == 0:
            return
        if keys is None:
            keys = np.floor(pts / self.side).astype(np.int64)
        if self._recency is None:
            self._recency = [(buf[-1][0], key) for key, buf in self.cells.items()]
            heapq.heapify(self._recency)
        heap = self._recency
        cap = self.z + 1
        for i in range(len(pts)):
            t = int(t0) + i
            key = tuple(keys[i].tolist())
            buf = self.cells.setdefault(key, [])
            buf.append((t, pts[i].copy()))
            if len(buf) > cap:
                buf.pop(0)
            heapq.heappush(heap, (t, key))
            # purge: drop every cell whose newest arrival expired
            cutoff = t - self.window + 1
            while self.cells:
                tn, kk = self._live_top()
                if tn >= cutoff:
                    break
                heapq.heappop(heap)
                del self.cells[kk]
            while len(self.cells) > self.capacity:
                tn, kk = self._live_top()
                self.invalid_through = max(self.invalid_through, tn + self.window - 1)
                heapq.heappop(heap)
                del self.cells[kk]

    @property
    def stored_items(self) -> int:
        """Stored (time, point) pairs — the Table 1 storage unit."""
        return sum(len(buf) for buf in self.cells.values())

    def snapshot(self) -> dict:
        """Cells in insertion order (dict order is part of the state:
        ``query`` reports representatives in that order), flattened into
        four arrays plus the poison watermark."""
        keys: "list[tuple]" = []
        sizes: "list[int]" = []
        times: "list[int]" = []
        pts: "list[np.ndarray]" = []
        for key, buf in self.cells.items():
            keys.append(key)
            sizes.append(len(buf))
            for t, p in buf:
                times.append(int(t))
                pts.append(p)
        d = self.d
        return {
            "r": float(self.r),
            "window": int(self.window),
            "z": int(self.z),
            "capacity": int(self.capacity),
            "invalid_through": int(self.invalid_through),
            "cell_keys": np.asarray(keys, dtype=np.int64).reshape(len(keys), d),
            "cell_sizes": np.asarray(sizes, dtype=np.int64),
            "times": np.asarray(times, dtype=np.int64),
            "points": (np.asarray(pts, dtype=float).reshape(len(times), d)
                       if pts else np.zeros((0, d))),
        }

    def restore(self, state: dict) -> None:
        """Rebuild the cell map (in snapshot order) from a :meth:`snapshot`.

        The rung's geometry (guess radius, window, outlier budget,
        capacity) is part of the state's meaning — expiry, eviction and
        the poison watermark were all computed under it — so a mismatch
        raises instead of silently reinterpreting the cells.
        """
        from repro.persist import SnapshotError

        if (float(state.get("r", -1.0)) != self.r
                or int(state.get("window", -1)) != self.window
                or int(state.get("z", -1)) != self.z
                or int(state.get("capacity", -1)) != self.capacity):
            raise SnapshotError(
                "sliding-window snapshot was taken under different "
                "(r, window, z, capacity) parameters; geometry-changing "
                "option overrides cannot be applied to restored state"
            )
        cell_keys = np.asarray(state["cell_keys"], dtype=np.int64)
        sizes = np.asarray(state["cell_sizes"], dtype=np.int64)
        times = np.asarray(state["times"], dtype=np.int64)
        pts = np.asarray(state["points"], dtype=float)
        if len(cell_keys) != len(sizes) or int(sizes.sum()) != len(times) \
                or len(times) != len(pts):
            raise SnapshotError("inconsistent sliding-window snapshot arrays")
        self.cells = {}
        pos = 0
        for i in range(len(cell_keys)):
            key = tuple(int(v) for v in cell_keys[i])
            cnt = int(sizes[i])
            self.cells[key] = [
                (int(times[pos + j]), pts[pos + j].copy()) for j in range(cnt)
            ]
            pos += cnt
        self.invalid_through = int(state["invalid_through"])
        self._recency = None  # rebuilt lazily by the next batch

    def query(self, now: int) -> "WeightedPointSet | None":
        """Coreset of the window ``[now-W+1, now]`` or ``None`` when this
        guess cannot serve the window (poisoned or over capacity)."""
        if now <= self.invalid_through:
            return None
        cutoff = now - self.window + 1
        reps: "list[np.ndarray]" = []
        weights: "list[int]" = []
        live_cells = 0
        for buf in self.cells.values():
            in_window = [(t, p) for t, p in buf if t >= cutoff]
            if not in_window:
                continue
            live_cells += 1
            reps.append(in_window[-1][1])
            weights.append(len(in_window))
        if live_cells > self.capacity:
            return None
        if not reps:
            return WeightedPointSet.empty(self.d)
        return WeightedPointSet(np.asarray(reps), np.asarray(weights, dtype=np.int64))


class ReferenceSlidingWindow:
    """Ladder of :class:`GuessStructure` over ``[r_min, r_max]`` (the frozen
    per-rung reference of :class:`repro.streaming.SlidingWindowCoreset`).

    Parameters
    ----------
    r_min, r_max:
        Bounds on the distance scale (the ladder has
        ``ceil(log2(r_max/r_min)) + 1`` rungs — the ``log sigma`` factor).
    window:
        Window length ``W`` in arrivals.
    ladder_ratio:
        Spacing of consecutive guesses (2.0 by default; the granularity
        ``eps*r`` scales with the guess, so a constant ratio suffices for
        a ``(1+O(eps))``-quality cover).
    """

    def __init__(self, k: int, z: int, eps: float, d: int, window: int,
                 r_min: float, r_max: float, metric=None, ladder_ratio: float = 2.0,
                 capacity: "int | None" = None):
        if not (0 < r_min <= r_max):
            raise ValueError("need 0 < r_min <= r_max")
        if ladder_ratio <= 1:
            raise ValueError("ladder_ratio must exceed 1")
        self.k, self.z, self.eps, self.d = int(k), int(z), float(eps), int(d)
        self.window = int(window)
        self.metric = get_metric(metric)
        self._t = -1
        rungs = int(ceil(np.log(r_max / r_min) / np.log(ladder_ratio))) + 1
        self.guesses = [
            GuessStructure(r_min * ladder_ratio**i, k, z, eps, d, window, capacity)
            for i in range(rungs)
        ]

    @property
    def num_guesses(self) -> int:
        """Ladder length (the ``log sigma`` factor)."""
        return len(self.guesses)

    @property
    def stored_items(self) -> int:
        """Total stored items across the ladder."""
        return sum(g.stored_items for g in self.guesses)

    @property
    def now(self) -> int:
        """Time of the latest arrival."""
        return self._t

    def snapshot(self) -> dict:
        """The clock plus every rung's cell state."""
        return {
            "t": int(self._t),
            "guesses": {str(i): g.snapshot()
                        for i, g in enumerate(self.guesses)},
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` across the ladder."""
        from repro.persist import SnapshotError

        guesses = state["guesses"]
        if len(guesses) != len(self.guesses):
            raise SnapshotError(
                f"snapshot has {len(guesses)} ladder rungs, structure has "
                f"{len(self.guesses)} (r_min/r_max/ladder_ratio mismatch)"
            )
        self._t = int(state["t"])
        for i, g in enumerate(self.guesses):
            g.restore(guesses[str(i)])

    def insert(self, p) -> None:
        """Process the next arrival (time advances by one per insert;
        scalar reference path)."""
        self._t += 1
        for g in self.guesses:
            g.insert(np.asarray(p, dtype=float), self._t)

    def extend(self, points) -> None:
        """Process a batch of arrivals (the vectorized hot path).

        Cell keys for the whole batch are computed against every rung of
        the guess ladder in a single broadcast ``floor(points / side)``
        pass; each :class:`GuessStructure` then only does per-point
        bookkeeping.  Bit-identical to per-point :meth:`insert`.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) == 0:
            return
        t0 = self._t + 1
        self._t += len(pts)
        sides = np.array([g.side for g in self.guesses])
        # (rungs, n, d) key tensor: one vectorized pass for the whole ladder
        ladder_keys = np.floor(pts[None, :, :] / sides[:, None, None]).astype(np.int64)
        for g, keys in zip(self.guesses, ladder_keys):
            g.extend(pts, t0, keys=keys)

    def coreset(self) -> WeightedPointSet:
        """Coreset of the current window from the smallest serving guess
        (empty before the first arrival)."""
        if self._t < 0:
            return WeightedPointSet.empty(self.d)
        for g in self.guesses:
            cs = g.query(self._t)
            if cs is not None:
                return cs
        raise RuntimeError(
            "no guess can serve the window; r_max below the window's scale"
        )

    def radius(self) -> float:
        """``O(1)``-approximate ``opt_{k,z}`` of the window (greedy on the
        reported coreset)."""
        cs = self.coreset()
        if len(cs) == 0 or cs.total_weight <= self.z:
            return 0.0
        return charikar_greedy(cs, self.k, self.z, self.metric).radius
