"""Sliding-window k-center with outliers — the DBMZ structure (§1, §6).

De Berg, Monemizadeh and Zhong (ESA 2021) maintain, for every radius guess
``r`` in a geometric ladder, a cover of the window at granularity
``eps * r`` in which every mini-cell remembers the ``z+1`` most recent
arrivals it received.  The ``z+1`` recency buffers are what make expiration
survivable: a cell remains certifiably non-outlier as long as at least one
unexpired arrival is stored, and any cell that received more than ``z+1``
arrivals inside the window can never be all-outliers.  Storage is
``O((k z / eps^d) log sigma)`` over the ladder — the bound this paper's §6
proves optimal (Theorem 30).

This reproduction (a substrate — the paper under reproduction contributes
the *lower* bound) keeps, per guess (a *rung* of the ladder):

* mini-cells of ``L_inf`` side ``eps * r / sqrt(d)`` (so the Euclidean
  cell diameter is at most ``eps * r``), each holding the latest ``z+1``
  ``(time, point)`` pairs;
* a capacity of ``k * O(1/eps)^d + z`` live cells; exceeding it evicts the
  cell with the oldest newest-arrival and poisons the guess for all query
  windows that still contain the evicted arrival (the guess is then
  provably too small for those windows anyway, or a coarser guess serves
  them).

Per arrival at time ``t`` and per rung, in this order: the arrival joins its
cell (a missing cell is created and goes last in the rung's cell order),
every cell whose newest arrival left the window ``[t-W+1, t]`` is dropped,
and while the rung holds more than ``capacity`` cells the one with the
oldest newest arrival is evicted.

Queries walk the ladder from the smallest guess and return the first valid
cover as a weighted coreset of the window (weights are recency-buffer
counts, capped at ``z+1`` — sufficient for outlier accounting, as weights
beyond ``z+1`` can never be declared outliers).

State layout.  The whole ladder is one stacked cell table: a
``(rung, cell key) -> slot`` dict and, per slot, the newest arrival time, a
creation stamp (the cell order), a stored count, a ring head and ring
buffers of ``z+1`` times and ``(z+1, d)`` points; the slot arrays grow on
demand.  A batch computes every rung's keys in one pass and writes every
append straight into the rings.  Expiry is one vectorized "newest time <
cutoff" test, and Python runs only on the rungs where a capacity eviction
can happen, over their cell creations and oldest cells in time order.  The
result equals the per-arrival rule above bit for bit; the frozen
per-arrival implementation is ``tests/_sliding_window_reference.py``.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from ..core.greedy import charikar_greedy
from ..core.metrics import get_metric
from ..core.points import WeightedPointSet

__all__ = ["default_cell_capacity", "SlidingWindowCoreset"]

#: time of an empty ring entry: older than every window
_NO_TIME = np.iinfo(np.int64).min
#: newest time of a free slot: never expires
_FREE = np.iinfo(np.int64).max
#: cell keys are int64; a finest-rung key outside this range would wrap
_KEY_LIMIT = 2.0**63


def default_cell_capacity(k: int, z: int, eps: float, d: int) -> int:
    """Live-cell capacity per guess, ``k * ceil(6 sqrt(d)/eps)^d + z``.

    ``k`` optimal balls of radius ``opt`` intersect at most
    ``(O(sqrt(d))/eps)^d`` cells of side ``eps*opt/sqrt(d)`` each, plus one
    cell per outlier (the Lemma 25 argument at window scope).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return int(k * ceil(6.0 * sqrt(d) / eps) ** d + z)


class SlidingWindowCoreset:
    """The ladder of radius guesses over ``[r_min, r_max]`` (see the
    module docstring).

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
    capacity:
        Live cells per rung (default :func:`default_cell_capacity`).
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
        self.capacity = (
            default_cell_capacity(k, z, eps, d) if capacity is None else int(capacity)
        )
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._t = -1
        rungs = int(ceil(np.log(r_max / r_min) / np.log(ladder_ratio))) + 1
        #: guess radius of each rung, finest first
        self.radii = [float(r_min * ladder_ratio**i) for i in range(rungs)]
        sides = np.array([self.eps * r / sqrt(self.d) for r in self.radii])
        self._sides = sides[:, None, None]
        #: a (rung, key) row and a point as single items, so gathers and
        #: scatters of rows are 1-D
        self._void = np.dtype((np.void, 8 * (self.d + 1)))
        self._point = np.dtype((np.void, 8 * self.d))
        #: per rung: queries with ``now <= invalid_through`` are poisoned
        self.invalid_through = np.full(rungs, -1, dtype=np.int64)
        self._clear()

    # -- slot table ----------------------------------------------------------

    def _clear(self) -> None:
        """Empty every rung (the slot arrays start small and grow)."""
        R, C, d = self.num_guesses, self.z + 1, self.d
        self._ncells = np.zeros(R, dtype=np.int64)
        #: (rung, cell key) row bytes -> slot
        self._table: "dict[bytes, int]" = {}
        self._free: "list[int]" = []
        #: per slot: the (rung, cell key) row, rung (-1 when free), newest
        #: arrival time, creation stamp (cell order), arrivals appended so
        #: far (``min(total, z+1)`` are stored; ``total % (z+1)`` is the
        #: ring position of the next write), and the rings of stored times
        #: and points
        self._rows = np.zeros((0, d + 1), dtype=np.int64)
        self._rung = np.zeros(0, dtype=np.int64)
        self._newest = np.zeros(0, dtype=np.int64)
        self._stamp = np.zeros(0, dtype=np.int64)
        self._total = np.zeros(0, dtype=np.int64)
        self._times = np.zeros((0, C), dtype=np.int64)
        self._points = np.zeros((0, C, d))
        self._grow(0)

    def _grow(self, need: int) -> None:
        """Make room for ``need`` more cells (the slot arrays double)."""
        old = len(self._newest)
        size = max(2 * old, old + need, 64)

        def grown(a, fill):
            b = np.full((size,) + a.shape[1:], fill, dtype=a.dtype)
            b[:old] = a
            return b

        self._rows = grown(self._rows, 0)
        #: each slot's row as the bytes that key the table
        self._cells = self._rows.view(self._void).ravel()
        self._rung = grown(self._rung, -1)
        self._newest = grown(self._newest, _FREE)
        self._stamp = grown(self._stamp, 0)
        self._total = grown(self._total, 0)
        self._times = grown(self._times, _NO_TIME)
        self._points = grown(self._points, 0.0)
        #: flat views of the rings: entry ``slot * (z+1) + position``
        self._time_at = self._times.reshape(-1)
        self._point_at = self._points.reshape(-1, self.d).view(self._point).ravel()
        self._free.extend(range(size - 1, old - 1, -1))

    def _new_cells(self, cells: np.ndarray, rung: np.ndarray,
                   stamps: np.ndarray) -> np.ndarray:
        """Empty cells for the ``(rung, key)`` rows ``cells`` (as bytes
        items) of the given rungs; returns their slots."""
        k = len(cells)
        if len(self._free) < k:
            self._grow(k - len(self._free))
        slots = self._free[-k:]
        del self._free[-k:]
        self._table.update(zip(cells.tolist(), slots))
        slots = np.array(slots, dtype=np.intp)
        self._cells[slots] = cells
        self._rung[slots] = rung
        self._stamp[slots] = stamps
        self._ncells += np.bincount(rung, minlength=self.num_guesses)
        return slots

    def _drop_cells(self, slots: np.ndarray) -> None:
        """Delete the cells in ``slots`` and free the slots."""
        for cell in self._cells[slots].tolist():
            del self._table[cell]
        self._ncells -= np.bincount(self._rung[slots], minlength=self.num_guesses)
        # free slots are empty, so a new cell starts from them as they are
        self._rung[slots] = -1
        self._newest[slots] = _FREE
        self._total[slots] = 0
        self._times[slots] = _NO_TIME
        self._free.extend(slots.tolist())

    def _rung_cells(self, r: int) -> np.ndarray:
        """Slots of rung ``r`` in cell order (creation order)."""
        slots = np.flatnonzero(self._rung == r)
        return slots[np.argsort(self._stamp[slots])]

    def _group(self, rows: np.ndarray, code):
        """Sort a step's ``(rung, key)`` rows (``rung * L + offset``
        order) by cell.

        Returns the stable permutation and a mask of the sorted rows that
        start a cell (one entry longer, ending in ``True``).  ``code =
        (lo, strides)`` packs a row into one int64 without collisions
        (see :meth:`extend`); without it the rows' bytes are sorted.
        """
        N = len(rows)
        start = np.empty(N + 1, dtype=bool)
        start[0] = start[N] = True
        if code is not None:
            lo, strides = code
            packed = (rows - lo) @ strides
            perm = np.argsort(packed, kind="stable")
            packed = packed[perm]
            np.not_equal(packed[1:], packed[:-1], out=start[1:N])
        else:
            exact = rows.view(self._void).ravel()
            perm = np.argsort(exact, kind="stable")
            exact = exact[perm]
            start[1:N] = exact[1:] != exact[:-1]
        return perm, start

    # -- ingest --------------------------------------------------------------

    def insert(self, p) -> None:
        """Process the next arrival (a one-row :meth:`extend`)."""
        self.extend(np.asarray(p, dtype=float).reshape(1, -1))

    def extend(self, points) -> None:
        """Process a batch of arrivals at the next ``len(points)`` times.

        The whole ladder's cell keys come from one broadcast
        ``floor(points / side)`` pass.  Batch and chunking do not change
        the result.  A point whose finest-rung key leaves the int64 range
        (too large or non-finite) raises :class:`ValueError` before any
        state changes.
        """
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
        if len(pts) == 0:
            return
        R, n, d = self.num_guesses, len(pts), self.d
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError(f"points must have shape (n, {d}), got {pts.shape}")
        # (rungs, n, d) keys in one pass; rung 0 has the finest cells, so
        # every rung's keys lie in [min(rung-0 key, 0), max(rung-0 key, 0)]
        scaled = np.floor(pts[None, :, :] / self._sides)
        lo, hi = scaled[0].min(), scaled[0].max()
        if not (-_KEY_LIMIT <= lo and hi < _KEY_LIMIT):
            raise ValueError(
                "a point's cell key leaves the int64 range (coordinate "
                "non-finite or too large for r_min)"
            )
        rows = np.empty((R, n, d + 1), dtype=np.int64)
        rows[:, :, 0] = np.arange(R)[:, None]
        rows[:, :, 1:] = scaled
        # a (rung, key) row packs into one int64 as base-`span` digits
        # when every column lies in [lo, lo + span)
        lo = min(int(lo), 0)
        span = max(int(hi), R - 1) - lo + 1
        code = None
        if span ** (d + 1) < 2**62:
            code = (lo, span ** np.arange(d, -1, -1, dtype=np.int64))
        # a step of at most `window` arrivals never expires a cell it
        # touched, and one of at most `capacity` arrivals only ever evicts
        # cells from before the step (see _step)
        step = min(self.window, self.capacity)
        for begin in range(0, n, step):
            self._step(pts[begin:begin + step], rows[:, begin:begin + step], code)

    def _step(self, pts: np.ndarray, rows: np.ndarray, code) -> None:
        """Apply ``L <= min(window, capacity)`` arrivals to every rung.

        Cells live before the step form the *pool*; they alone can expire
        or be evicted during the step, in ascending newest time, unless an
        arrival reaches them first.  An arrival creates a cell when its key
        is missing or its pool cell was removed before it.
        """
        R, L = rows.shape[:2]
        W, C, cap = self.window, self.z + 1, self.capacity
        t0 = self._t + 1
        # arrivals flattened to rung * L + offset, grouped by cell
        rows = rows.reshape(R * L, self.d + 1)
        perm, start = self._group(rows, code)
        edges = np.flatnonzero(start)
        starts = edges[:-1]
        n = edges[1:] - starts  # arrivals per cell
        first = perm[starts]
        rung, off = np.divmod(first, L)
        cells = rows.view(self._void).ravel()[first]
        get = self._table.get
        slot = np.array([get(c, -1) for c in cells.tolist()], dtype=np.intp)
        old = slot >= 0
        pool_hit = slot[old]
        newest = self._newest
        create = ~old
        create[old] = newest[pool_hit] + W < t0 + off[old]
        hit = np.full(len(newest), _FREE)  # slot -> offset of its first arrival
        hit[pool_hit] = off[old]
        # pool cells that expire before their first arrival of the step
        # (or get none)
        gone = np.flatnonzero(newest < t0 + L - W)
        gone = gone[hit[gone] > newest[gone] + W - t0]
        # without expiries a rung evicts this many pool cells
        over = self._ncells + np.bincount(rung[create], minlength=R) - cap
        busy = over > 0
        removed = [gone[~busy[self._rung[gone]]]]
        if busy.any():
            fast = busy.copy()
            fast[self._rung[gone]] = False
            for r in np.flatnonzero(fast).tolist():
                # no expiries: the victims are the `over` oldest pool cells,
                # unless an arrival reaches one of them
                pool = np.flatnonzero(self._rung == r)
                low = np.argpartition(newest[pool], over[r] - 1)[:over[r]]
                victims = pool[low]
                if hit[victims].min() == _FREE:
                    removed.append(victims)
                    self.invalid_through[r] = max(
                        self.invalid_through[r], newest[victims].max() + W - 1)
                    busy[r] = False
            if busy.any():
                by_rung = np.argsort(first)
                bounds = np.searchsorted(first[by_rung], np.arange(R + 1) * L)
                for r in np.flatnonzero(busy).tolist():
                    us = by_rung[bounds[r]:bounds[r + 1]]
                    dead, made = self._evict_rung(r, us, slot, off, t0, L)
                    removed.append(dead)
                    create[us] = False
                    create[made] = True
        removed = np.concatenate(removed)
        if len(removed):
            self._drop_cells(removed)
        made = np.flatnonzero(create)
        if len(made):
            slot[made] = self._new_cells(cells[made], rung[made], t0 + off[made])
        # append every arrival to its cell's ring, in time order per cell
        cell = np.repeat(np.arange(len(n)), n)
        rank = np.arange(len(perm)) - starts[cell]
        arrival = perm
        if L > C:  # only the last z+1 arrivals of a cell survive the step
            kept = rank >= n[cell] - C
            arrival, cell, rank = arrival[kept], cell[kept], rank[kept]
        ks = slot[cell]
        at = ks * C + (self._total[ks] + rank) % C
        i = arrival % L
        self._time_at[at] = t0 + i
        self._point_at[at] = pts.view(self._point).ravel()[i]
        self._total[slot] += n
        self._newest[slot] = t0 + perm[starts + n - 1] % L
        self._t = t0 + L - 1

    def _evict_rung(self, r: int, us: np.ndarray, slot: np.ndarray,
                    off: np.ndarray, t0: int, L: int):
        """Replay one rung's step over its events in time order.

        ``us`` are the rung's cells of the step (indices into ``slot``) in
        order of first arrival.  Returns the removed pool slots and the
        cells the step creates; raises the rung's poison watermark for
        each eviction.
        """
        W, cap = self.window, self.capacity
        pool = np.flatnonzero(self._rung == r)
        pool = pool[np.argsort(self._newest[pool])]
        pool_t = self._newest[pool].tolist() + [_FREE]
        pool = pool.tolist()
        offs, slots = off[us].tolist(), slot[us].tolist()
        # pool slot -> offset of its first arrival; L when it gets none
        first_hit = {s: h for s, h in zip(slots, offs) if s >= 0}
        count, inval = int(self._ncells[r]), int(self.invalid_through[r])
        made: "list[int]" = []
        gone: "set[int]" = set()  # removed pool slots
        p = 0
        # the trailing (-2, L - 1) entry only expires through the last time
        for u, h, s in zip(us.tolist() + [-2], offs + [L - 1], slots + [-2]):
            cutoff = t0 + h - W + 1
            while pool_t[p] < cutoff:
                c = pool[p]
                if first_hit.get(c, L) > pool_t[p] + W - t0:
                    gone.add(c)
                    count -= 1
                p += 1
            if u == -2:
                break
            if s >= 0 and s not in gone:
                continue
            made.append(u)
            count += 1
            if count > cap:
                # the oldest pool cell without an arrival so far; steps of
                # at most `capacity` arrivals never run out of them
                while first_hit.get(pool[p], L) <= h:
                    p += 1
                gone.add(pool[p])
                count -= 1
                inval = max(inval, pool_t[p] + W - 1)
                p += 1
        self.invalid_through[r] = inval
        return (np.fromiter(gone, dtype=np.intp, count=len(gone)),
                np.array(made, dtype=np.intp))

    # -- queries -------------------------------------------------------------

    @property
    def num_guesses(self) -> int:
        """Ladder length (the ``log sigma`` factor)."""
        return len(self.radii)

    @property
    def stored_items(self) -> int:
        """Stored (time, point) pairs across the ladder — the Table 1
        storage unit."""
        return int(np.minimum(self._total, self.z + 1).sum())

    @property
    def now(self) -> int:
        """Time of the latest arrival."""
        return self._t

    def coreset(self) -> WeightedPointSet:
        """Coreset of the current window from the smallest serving guess
        (empty before the first arrival).

        A rung serves unless the window is poisoned or it holds more than
        ``capacity`` cells.  Its coreset is each cell's newest point,
        weighted by the cell's stored arrivals inside the window, in cell
        order.
        """
        if self._t < 0:
            return WeightedPointSet.empty(self.d)
        serving = np.flatnonzero((self.invalid_through < self._t)
                                 & (self._ncells <= self.capacity))
        if not len(serving):
            raise RuntimeError(
                "no guess can serve the window; r_max below the window's scale"
            )
        slots = self._rung_cells(int(serving[0]))
        if not len(slots):
            return WeightedPointSet.empty(self.d)
        weights = (self._times[slots] >= self._t - self.window + 1).sum(axis=1)
        reps = self._points[slots, (self._total[slots] - 1) % (self.z + 1)]
        return WeightedPointSet(reps, weights.astype(np.int64))

    def radius(self) -> float:
        """``O(1)``-approximate ``opt_{k,z}`` of the window (greedy on the
        reported coreset)."""
        cs = self.coreset()
        if len(cs) == 0 or cs.total_weight <= self.z:
            return 0.0
        return charikar_greedy(cs, self.k, self.z, self.metric).radius

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The clock plus, per rung, its geometry, poison watermark and
        cells in cell order, flattened into four arrays (keys, sizes, then
        every cell's stored times and points, oldest first)."""
        R, C = self.num_guesses, self.z + 1
        live = np.flatnonzero(self._rung >= 0)
        live = live[np.lexsort((self._stamp[live], self._rung[live]))]
        total = self._total[live]
        sizes = np.minimum(total, C)
        end = np.cumsum(sizes)
        # item j of a cell (oldest first) sits at ring position total-size+j
        cell = np.repeat(live, sizes)
        at = (np.repeat(total - end, sizes) + np.arange(len(cell))) % C
        times = self._times[cell, at]
        points = self._points[cell, at]
        cell_at = np.searchsorted(self._rung[live], np.arange(R + 1))
        item_at = np.concatenate(([0], end))[cell_at]
        guesses = {}
        for i, r in enumerate(self.radii):
            a, b = cell_at[i], cell_at[i + 1]
            x, y = item_at[i], item_at[i + 1]
            guesses[str(i)] = {
                "r": r,
                "window": self.window,
                "z": self.z,
                "capacity": self.capacity,
                "invalid_through": int(self.invalid_through[i]),
                "cell_keys": self._rows[live[a:b], 1:],
                "cell_sizes": sizes[a:b].copy(),
                "times": times[x:y].copy(),
                "points": points[x:y].copy(),
            }
        return {"t": int(self._t), "guesses": guesses}

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot`; all or nothing.

        The rungs' geometry (guess radius, window, outlier budget,
        capacity) is part of the state's meaning — expiry, eviction and
        the poison watermarks were all computed under it — so a mismatch
        raises instead of silently reinterpreting the cells.  So does any
        cell state a run cannot produce.
        """
        from ..persist import SnapshotError

        guesses = state["guesses"]
        if len(guesses) != self.num_guesses:
            raise SnapshotError(
                f"snapshot has {len(guesses)} ladder rungs, structure has "
                f"{self.num_guesses} (r_min/r_max/ladder_ratio mismatch)"
            )
        t = int(state["t"])
        if t < -1:
            raise SnapshotError(f"sliding-window clock {t} is below -1")
        rungs = [self._checked_rung(i, guesses[str(i)], t)
                 for i in range(self.num_guesses)]
        self._clear()
        for i, (inval, keys, sizes, times, pts) in enumerate(rungs):
            self.invalid_through[i] = inval
            n = len(keys)
            if not n:
                continue
            rows = np.empty((n, self.d + 1), dtype=np.int64)
            rows[:, 0] = i
            rows[:, 1:] = keys
            slots = self._new_cells(rows.view(self._void).ravel(), rows[:, 0],
                                    np.arange(n) - n)
            end = np.cumsum(sizes)
            cell = np.repeat(slots, sizes)
            at = np.arange(len(times)) - np.repeat(end - sizes, sizes)
            self._times[cell, at] = times
            self._points[cell, at] = pts
            self._total[slots] = sizes
            self._newest[slots] = times[end - 1]
        self._t = t

    def _checked_rung(self, i: int, state: dict, t: int) -> tuple:
        """Rung ``i``'s snapshot as validated arrays, or
        :class:`~repro.persist.SnapshotError`."""
        from ..persist import SnapshotError

        r, W, z, d = self.radii[i], self.window, self.z, self.d
        if (float(state.get("r", -1.0)) != r
                or int(state.get("window", -1)) != W
                or int(state.get("z", -1)) != z
                or int(state.get("capacity", -1)) != self.capacity):
            raise SnapshotError(
                "sliding-window snapshot was taken under different "
                "(r, window, z, capacity) parameters; geometry-changing "
                "option overrides cannot be applied to restored state"
            )

        def bad(what: str):
            return SnapshotError(f"sliding-window rung {i}: {what}")

        try:
            keys = np.asarray(state["cell_keys"], dtype=np.int64)
            sizes = np.asarray(state["cell_sizes"], dtype=np.int64)
            times = np.asarray(state["times"], dtype=np.int64)
            pts = np.asarray(state["points"], dtype=float)
            inval = int(state["invalid_through"])
        except (KeyError, TypeError, ValueError) as exc:
            raise bad(f"unreadable cell arrays ({exc})") from exc
        n = len(keys)
        if (keys.ndim != 2 or keys.shape[1] != d or sizes.shape != (n,)
                or times.ndim != 1 or pts.shape != (len(times), d)):
            raise bad("inconsistent sliding-window snapshot arrays")
        if n > self.capacity:
            raise bad(f"{n} cells exceed the capacity {self.capacity}")
        if n and (sizes.min() < 1 or sizes.max() > z + 1):
            raise bad(f"cell sizes must lie in [1, {z + 1}]")
        if int(sizes.sum()) != len(times):
            raise bad("inconsistent sliding-window snapshot arrays")
        if not np.isfinite(pts).all():
            raise bad("non-finite point")
        if len(times) and (times.min() < 0 or times.max() > t):
            raise bad(f"arrival times must lie in [0, {t}]")
        cell = np.repeat(np.arange(n), sizes)
        if np.any((np.diff(times) <= 0) & (cell[1:] == cell[:-1])):
            raise bad("times must ascend within a cell")
        if len(np.unique(times)) != len(times):
            raise bad("two stored arrivals share a time")
        if n and times[np.cumsum(sizes) - 1].min() < t - W + 1:
            raise bad("a cell's newest arrival is outside the window")
        if len(np.unique(keys, axis=0)) != n:
            raise bad("duplicate cell keys")
        home = np.floor(pts / self._sides[i, 0, 0])
        if not (np.all((home >= -_KEY_LIMIT) & (home < _KEY_LIMIT))
                and np.array_equal(home.astype(np.int64), keys[cell])):
            raise bad("a point lies outside its cell")
        return inval, keys, sizes, times, pts
