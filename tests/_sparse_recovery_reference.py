"""Frozen cell-object reference for the array sketches (test-only oracle).

These are the per-cell Python implementations the library used before its
sketches became stacked arrays: :class:`OneSparseCell`, the sweep-peeling
:class:`SSparseRecovery`, the per-level :class:`F0Estimator`, and the
per-grid loop of Algorithm 5 (:class:`ReferenceDynamicCoreset`).  They
draw randomness in the same order as the library classes, so a library
structure and its reference built from equal seeds hold identical hash
functions; the parity tests compare snapshot arrays, decodes and coresets.
Do not optimize this file.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from repro.core.points import WeightedPointSet
from repro.geometry.grid import GridHierarchy
from repro.geometry.packing import grid_cell_bound
from repro.sketches.hashing import MERSENNE_P, KWiseHash

__all__ = ["OneSparseCell", "SSparseRecovery", "F0Estimator",
           "ReferenceDynamicCoreset"]


class OneSparseCell:
    """A single 1-sparse recovery cell (supports +/- integer updates).

    Parameters
    ----------
    zeta:
        Fingerprint evaluation point, shared by all cells of one sketch
        row so decodes are consistent.
    """

    __slots__ = ("w", "ws", "fp", "zeta")

    def __init__(self, zeta: int):
        self.w = 0  # total frequency in the bucket
        self.ws = 0  # frequency-weighted key sum
        self.fp = 0  # fingerprint sum mod p
        self.zeta = int(zeta)

    def update(self, key: int, delta: int) -> None:
        """Apply ``F[key] += delta``."""
        key = int(key)
        delta = int(delta)
        self.w += delta
        self.ws += delta * key
        self.fp = (self.fp + delta * pow(self.zeta, key, MERSENNE_P)) % MERSENNE_P

    def subtract_item(self, key: int, weight: int) -> None:
        """Remove a decoded item (used by the peeling decoder)."""
        self.update(key, -weight)

    @property
    def is_zero(self) -> bool:
        """True when the cell summarises the all-zero vector (exactly, for
        the ``w``/``ws`` part; whp for the fingerprint)."""
        return self.w == 0 and self.ws == 0 and self.fp == 0

    def decode(self) -> "tuple[int, int] | None":
        """Return ``(key, frequency)`` if the cell is (whp) 1-sparse with a
        positive frequency, else ``None``.

        Strict-turnstile streams (the paper's setting, §5.1) guarantee
        true frequencies are non-negative, so ``w <= 0`` cells are never
        singletons.
        """
        if self.w <= 0:
            return None
        if self.ws % self.w != 0:
            return None
        key = self.ws // self.w
        if key < 0:
            return None
        if self.fp != (self.w * pow(self.zeta, key, MERSENNE_P)) % MERSENNE_P:
            return None
        return int(key), int(self.w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OneSparseCell(w={self.w}, ws={self.ws})"


class SparseRecoveryResult:
    """Outcome of :meth:`SSparseRecovery.decode`.

    Attributes
    ----------
    success:
        True when peeling terminated with every cell zero — the returned
        items are then the *complete* frequency vector (whp).
    items:
        ``{key: frequency}`` of recovered items (complete iff ``success``).
    """

    __slots__ = ("success", "items")

    def __init__(self, success: bool, items: "dict[int, int]"):
        self.success = success
        self.items = items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseRecoveryResult(success={self.success}, n={len(self.items)})"


class SSparseRecovery:
    """Peeling-based s-sparse recovery over universe ``[universe]``.

    Parameters
    ----------
    s:
        Target sparsity: decoding is guaranteed (whp) whenever at most
        ``s`` keys have non-zero frequency.
    universe:
        Key range (keys are ``0 .. universe-1``).
    delta:
        Failure probability knob; sets the number of rows to
        ``max(3, ceil(log2(s/delta)) )`` capped at 12.
    bucket_factor:
        Buckets per row = ``ceil(bucket_factor * s)``; 2.0 gives peeling
        success whp for random hashing.
    rng:
        Source of hash randomness (pass a seeded generator for
        reproducibility).

    Notes
    -----
    Space is ``O(s * log(s/delta))`` cells of ``O(log U)`` bits, matching
    the ``O(s log(s/delta) log^2 U)`` bound of Lemma 20 up to the encoding
    of a cell.  :attr:`storage_cells` exposes the cell count for the
    storage accounting used in the experiments.
    """

    def __init__(
        self,
        s: int,
        universe: int,
        delta: float = 0.01,
        bucket_factor: float = 2.0,
        rng: "np.random.Generator | None" = None,
    ):
        if s < 1:
            raise ValueError("s must be >= 1")
        if universe < 1:
            raise ValueError("universe must be >= 1")
        rng = rng or np.random.default_rng()
        self.s = int(s)
        self.universe = int(universe)
        self.rows = max(3, min(12, int(ceil(log2(max(s, 2) / max(delta, 1e-12))))))
        self.buckets = int(ceil(bucket_factor * s))
        self._hashes = [KWiseHash(self.buckets, k=2, rng=rng) for _ in range(self.rows)]
        zeta = int(rng.integers(2, MERSENNE_P - 1))
        self._cells = [
            [OneSparseCell(zeta) for _ in range(self.buckets)] for _ in range(self.rows)
        ]
        self._updates = 0

    # -- stream interface -------------------------------------------------

    def update(self, key: int, delta: int) -> None:
        """Apply ``F[key] += delta`` (use ``delta=+1`` for insert, ``-1``
        for delete; arbitrary integers allowed)."""
        key = int(key)
        if not 0 <= key < self.universe:
            raise ValueError(f"key {key} outside universe [0, {self.universe})")
        if delta == 0:
            return
        self._updates += 1
        for r in range(self.rows):
            b = self._hashes[r].hash_int(key)
            self._cells[r][b].update(key, delta)

    def update_many(self, keys, deltas) -> None:
        """Batch form of :meth:`update`."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        deltas = np.broadcast_to(np.atleast_1d(np.asarray(deltas, dtype=np.int64)), keys.shape)
        for k, dlt in zip(keys.tolist(), deltas.tolist()):
            self.update(k, dlt)

    # -- accounting --------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        """Number of one-sparse cells held (the sketch's storage in
        ``O(log U)``-bit words, the unit Table 1 counts)."""
        return self.rows * self.buckets

    @property
    def is_empty(self) -> bool:
        """True when every cell is zero (the summarised vector is zero)."""
        return all(c.is_zero for row in self._cells for c in row)

    # -- persistence --------------------------------------------------------

    def params_digest(self) -> str:
        """Fingerprint of the sketch's immutable randomness/geometry.

        Covers ``(s, universe, rows, buckets)``, every row hash and the
        shared fingerprint point ``zeta``.  Snapshots embed it so
        :meth:`restore` can detect a seed/parameter mismatch instead of
        silently mixing cell state with foreign hash functions.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.s}:{self.universe}:{self.rows}:{self.buckets}".encode())
        for hh in self._hashes:
            h.update(hh.digest().encode())
        h.update(str(self._cells[0][0].zeta).encode())
        return h.hexdigest()[:16]

    def snapshot(self) -> dict:
        """Mutable state: the (w, ws, fp) triple of every cell.

        The hash functions and ``zeta`` are *not* serialized — they are
        re-derived from the owning structure's seed on reconstruction and
        cross-checked via :meth:`params_digest`.
        """
        w = [[c.w for c in row] for row in self._cells]
        ws = [[c.ws for c in row] for row in self._cells]
        fp = [[c.fp for c in row] for row in self._cells]
        for name, rows in (("w", w), ("ws", ws), ("fp", fp)):
            for row in rows:
                for v in row:
                    if not -(2**63) <= v < 2**63:
                        from repro.persist import SnapshotError

                        raise SnapshotError(
                            f"sketch cell field {name!r} value {v} exceeds "
                            "int64; this sketch state cannot be snapshotted"
                        )
        return {
            "digest": self.params_digest(),
            "updates": int(self._updates),
            "w": np.array(w, dtype=np.int64),
            "ws": np.array(ws, dtype=np.int64),
            "fp": np.array(fp, dtype=np.int64),
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree (validates the params digest)."""
        from repro.persist import SnapshotError

        if str(state.get("digest")) != self.params_digest():
            raise SnapshotError(
                "sparse-recovery snapshot was taken under different sketch "
                "randomness/parameters (seed or options mismatch)"
            )
        shape = (self.rows, self.buckets)
        w = np.asarray(state["w"], dtype=np.int64)
        ws = np.asarray(state["ws"], dtype=np.int64)
        fp = np.asarray(state["fp"], dtype=np.int64)
        if w.shape != shape or ws.shape != shape or fp.shape != shape:
            raise SnapshotError(
                f"sparse-recovery snapshot shape {w.shape} != sketch {shape}"
            )
        for r, row in enumerate(self._cells):
            for b, cell in enumerate(row):
                cell.w = int(w[r, b])
                cell.ws = int(ws[r, b])
                cell.fp = int(fp[r, b])
        self._updates = int(state.get("updates", 0))

    # -- decoding -----------------------------------------------------------

    def decode(self, max_items: "int | None" = None) -> SparseRecoveryResult:
        """Attempt full recovery by peeling.

        Returns a :class:`SparseRecoveryResult`; ``success`` is True iff
        peeling zeroed out every cell, in which case ``items`` is exactly
        the set of keys with non-zero frequency (whp).  Decoding is
        non-destructive (peels a copy).
        """
        cap = self.buckets * self.rows if max_items is None else int(max_items)
        # copy cell state (ints are immutable; shallow-copy cell fields)
        work = [
            [self._clone_cell(c) for c in row] for row in self._cells
        ]
        items: dict[int, int] = {}
        progress = True
        while progress and len(items) <= cap:
            progress = False
            for r in range(self.rows):
                for b in range(self.buckets):
                    cell = work[r][b]
                    if cell.is_zero:
                        continue
                    dec = cell.decode()
                    if dec is None:
                        continue
                    key, w = dec
                    if key >= self.universe:
                        continue  # corrupted decode; treat as collision
                    items[key] = items.get(key, 0) + w
                    for rr in range(self.rows):
                        bb = self._hashes[rr].hash_int(key)
                        work[rr][bb].subtract_item(key, w)
                    progress = True
        success = all(c.is_zero for row in work for c in row)
        if not success:
            # partial recovery: report what we got but flag failure
            return SparseRecoveryResult(False, items)
        # drop zero-frequency artifacts (insert-then-delete leaves none, but
        # peeling order can transiently create them)
        items = {k: v for k, v in items.items() if v != 0}
        return SparseRecoveryResult(True, items)

    @staticmethod
    def _clone_cell(c: OneSparseCell) -> OneSparseCell:
        out = OneSparseCell(c.zeta)
        out.w, out.ws, out.fp = c.w, c.ws, c.fp
        return out


class _F0Instance:
    """One independent level-sampling estimator (combined by median)."""

    def __init__(self, universe: int, capacity: int, rng: np.random.Generator):
        self.universe = int(universe)
        self.capacity = int(capacity)
        self.levels = int(ceil(log2(max(universe, 2)))) + 1
        self._level_hash = KWiseHash(1 << 62, k=2, rng=rng)
        self._sketches = [
            SSparseRecovery(capacity, universe, delta=0.05, rng=rng)
            for _ in range(self.levels)
        ]

    def _key_level(self, key: int) -> int:
        """Number of trailing zero bits of the key's hash (capped)."""
        h = self._level_hash.hash_int(key)
        if h == 0:
            return self.levels - 1
        tz = (h & -h).bit_length() - 1
        return min(tz, self.levels - 1)

    def update(self, key: int, delta: int) -> None:
        lvl = self._key_level(key)
        # key participates in levels 0..lvl
        for l in range(lvl + 1):
            self._sketches[l].update(key, delta)

    def estimate(self) -> float:
        for l, sk in enumerate(self._sketches):
            res = sk.decode(max_items=self.capacity + 1)
            if res.success and len(res.items) <= self.capacity:
                return float(len(res.items) * (1 << l))
        return float("inf")  # every level overflowed (astronomically unlikely)

    def snapshot(self) -> dict:
        """Per-level sketch states plus the level-hash fingerprint."""
        return {
            "level_digest": self._level_hash.digest(),
            "sketches": {str(l): sk.snapshot()
                         for l, sk in enumerate(self._sketches)},
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree (validates hash fingerprints)."""
        from repro.persist import SnapshotError

        if str(state.get("level_digest")) != self._level_hash.digest():
            raise SnapshotError(
                "F0 level-hash mismatch: snapshot was taken under different "
                "sketch randomness (seed or options mismatch)"
            )
        sketches = state["sketches"]
        if len(sketches) != len(self._sketches):
            raise SnapshotError(
                f"F0 snapshot has {len(sketches)} levels, estimator has "
                f"{len(self._sketches)}"
            )
        for l, sk in enumerate(self._sketches):
            sk.restore(sketches[str(l)])

    @property
    def storage_cells(self) -> int:
        return sum(sk.storage_cells for sk in self._sketches)


class F0Estimator:
    """``(1 +- eps)``-approximate distinct-count over a +/-1 stream.

    Parameters
    ----------
    universe:
        Keys are ``0 .. universe-1``.
    eps:
        Relative accuracy target (capacity per level is
        ``ceil(12/eps^2)``, capped below at 8).
    repetitions:
        Independent instances combined by median (amplifies success
        probability; 3 by default).
    rng:
        Seeded generator for reproducibility.
    """

    def __init__(
        self,
        universe: int,
        eps: float = 0.5,
        repetitions: int = 3,
        rng: "np.random.Generator | None" = None,
    ):
        if eps <= 0 or eps > 1:
            raise ValueError("eps must be in (0, 1]")
        rng = rng or np.random.default_rng()
        capacity = max(8, int(ceil(12.0 / (eps * eps))))
        self.universe = int(universe)
        self.eps = float(eps)
        self._instances = [
            _F0Instance(universe, capacity, rng) for _ in range(max(1, repetitions))
        ]

    def update(self, key: int, delta: int) -> None:
        """Apply ``F[key] += delta``."""
        key = int(key)
        if not 0 <= key < self.universe:
            raise ValueError(f"key {key} outside universe [0, {self.universe})")
        if delta == 0:
            return
        for inst in self._instances:
            inst.update(key, delta)

    def estimate(self) -> float:
        """Median-of-instances ``(1 +- eps)`` estimate of ``||F||_0``."""
        return float(np.median([inst.estimate() for inst in self._instances]))

    def snapshot(self) -> dict:
        """Mutable state of every independent instance."""
        return {"instances": {str(i): inst.snapshot()
                              for i, inst in enumerate(self._instances)}}

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree across the instances."""
        from repro.persist import SnapshotError

        instances = state["instances"]
        if len(instances) != len(self._instances):
            raise SnapshotError(
                f"F0 snapshot has {len(instances)} instances, estimator has "
                f"{len(self._instances)}"
            )
        for i, inst in enumerate(self._instances):
            inst.restore(instances[str(i)])

    def at_most(self, s: int) -> bool:
        """Decide (whp) whether at most ``s`` keys are non-zero, allowing
        the estimator's relative slack on the high side."""
        return self.estimate() <= (1.0 + self.eps) * s

    @property
    def storage_cells(self) -> int:
        """Total cells held (for storage accounting)."""
        return sum(inst.storage_cells for inst in self._instances)


class ReferenceDynamicCoreset:
    """Algorithm 5's per-grid loop over the reference sketches: the
    construction order, batched updates and grid walk of the library's
    ``DynamicCoreset`` before its sketches were stacked."""

    def __init__(self, k, z, eps, delta_universe, dim, failure=0.05,
                 rng=None, use_f0=True, s_override=None):
        rng = rng or np.random.default_rng()
        self.hier = GridHierarchy(delta_universe, dim)
        self.s = int(s_override) if s_override is not None else grid_cell_bound(k, z, eps, dim)
        self.use_f0 = bool(use_f0)
        self._updates = 0
        self._levels = self.hier.levels()
        self._sparse = []
        self._f0 = []
        for lvl in self._levels:
            self._sparse.append(
                SSparseRecovery(self.s, lvl.num_cells, delta=failure, rng=rng)
            )
            self._f0.append(
                F0Estimator(lvl.num_cells, eps=0.5, rng=rng) if use_f0 else None
            )

    def _apply_batch(self, points, sign):
        pts = np.atleast_2d(np.asarray(points, dtype=np.int64))
        if len(pts) == 0:
            return
        per_level = [
            np.unique(lvl.cell_ids(pts), return_counts=True)
            for lvl in self._levels
        ]
        self._updates += len(pts)
        for (cids, counts), sk, f0 in zip(per_level, self._sparse, self._f0):
            for cid, c in zip(cids.tolist(), counts.tolist()):
                sk.update(int(cid), sign * int(c))
                if f0 is not None:
                    f0.update(int(cid), sign * int(c))

    def extend(self, points):
        self._apply_batch(points, +1)

    def delete_many(self, points):
        self._apply_batch(points, -1)

    def snapshot(self):
        state = {
            "updates": int(self._updates),
            "sparse": {str(i): sk.snapshot()
                       for i, sk in enumerate(self._sparse)},
        }
        if self.use_f0:
            state["f0"] = {str(i): f0.snapshot()
                           for i, f0 in enumerate(self._f0)}
        return state

    def coreset(self):
        for lvl, sk, f0 in zip(self._levels, self._sparse, self._f0):
            if f0 is not None and not f0.at_most(self.s):
                continue
            res = sk.decode(max_items=2 * self.s + 2)
            if not res.success or len(res.items) > 2 * self.s:
                continue
            if not res.items:
                return WeightedPointSet.empty(self.hier.dim)
            cells = np.array(sorted(res.items))
            weights = np.array([res.items[c] for c in cells], dtype=np.int64)
            centers = np.array([lvl.cell_center(int(c)) for c in cells])
            return WeightedPointSet(centers, weights)
        raise RuntimeError("all grid sketches failed to decode (sketch failure)")
