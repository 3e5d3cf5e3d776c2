"""s-sparse recovery sketch (the paper's Lemma 20 substrate).

Algorithm 5 maintains, for every grid ``G_i``, a sketch from which *all*
non-empty cells (with exact counts) can be recovered whenever at most ``s``
cells are non-empty (Lemma 22).  We implement the standard peeling
construction: ``R`` rows of ``B = c*s`` one-sparse cells each, with row-
private pairwise-independent hash functions.  Decoding repeatedly finds a
cell that is 1-sparse, outputs its item, and subtracts it from every row —
an invertible-Bloom-lookup-table style peel that succeeds with probability
``1 - delta`` when ``||F||_0 <= s`` and otherwise *detects* failure
(non-zero residue after peeling stalls).

This is a space-for-simplicity substitution for Barkay-Porat-Shalem:
the interface and guarantee used by the
paper — "recover everything exactly when sparsity <= s, else fail
detectably" — are identical.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from .hashing import MERSENNE_P, KWiseHash
from .onesparse import OneSparseCell

__all__ = ["SparseRecoveryResult", "SSparseRecovery"]


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
                        from ..persist import SnapshotError

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
        from ..persist import SnapshotError

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
