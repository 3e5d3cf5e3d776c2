"""F0 (distinct elements) estimation over dynamic streams (Lemma 19).

Algorithm 5 uses an ``||F||_0``-estimator per grid to find the finest grid
with at most ``s`` non-empty cells.  The paper cites Kane-Nelson-Woodruff;
we implement the classical *level sampling* linear sketch, which supports
insertions and deletions:

* level ``l`` samples keys whose hash has ``l`` trailing zero bits
  (rate ``2^-l``),
* each level keeps a small s-sparse recovery sketch of capacity ``c``
  (all levels of all repetitions in one
  :class:`~repro.sketches.sparse_recovery.SketchStack`, so a batch of
  updates is one vectorized pass),
* the estimate is ``n_l * 2^l`` for the smallest level ``l`` whose sketch
  decodes with ``n_l <= c`` items.  Level 0 decoding succeeds iff the true
  ``F0 <= c``, in which case the answer is *exact* — precisely the
  " <= s non-empty cells?" query Algorithm 5 needs.

Accuracy: with ``c = O(1/eps^2)`` the estimate is ``(1 +- eps) F0`` with
constant probability per query, amplified by ``log(1/delta)`` independent
repetitions (median).  This matches Lemma 19's contract; the space is
``O((1/eps^2) log U log(1/delta))`` words, a polylog factor above the
optimal Kane-Nelson-Woodruff sketch.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from .hashing import KWiseHash, poly_mod_p, to_field
from .sparse_recovery import SketchParams, SketchStack

__all__ = ["F0Estimator"]


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
        self.capacity = max(8, int(ceil(12.0 / (eps * eps))))
        self.universe = int(universe)
        self.eps = float(eps)
        self.levels = int(ceil(log2(max(universe, 2)))) + 1
        # per instance: its level hash, then one sketch per level
        self._level_hashes: "list[KWiseHash]" = []
        params: "list[SketchParams]" = []
        for _ in range(max(1, repetitions)):
            self._level_hashes.append(KWiseHash(1 << 62, k=2, rng=rng))
            params += [SketchParams(self.capacity, universe, delta=0.05, rng=rng)
                       for _ in range(self.levels)]
        self._level_coeffs = np.array([lh.coeffs for lh in self._level_hashes],
                                      dtype=np.uint64)
        # sketch i * levels + l is level l of instance i
        self._stack = SketchStack(params)

    def _entries(self, keys, deltas):
        """``(sketch, key, delta)`` entries of a batch: a key joins levels
        ``0 .. tz`` of each instance, ``tz`` its hash's trailing zero bits
        (capped at the top level; a zero hash goes to the top)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        deltas = np.broadcast_to(np.asarray(deltas, dtype=np.int64), keys.shape)
        top = self.levels - 1
        # every instance's level hash at once (its range 2^62 exceeds p)
        h = poly_mod_p(self._level_coeffs[:, None, :], to_field(keys)).astype(np.int64)
        low = np.where(h == 0, 1, h & -h)
        tz = np.where(h == 0, top,
                      np.minimum(np.frexp(low.astype(np.float64))[1] - 1, top))
        tops = (tz + self.levels * np.arange(len(h))[:, None]).ravel()
        counts = tops % self.levels + 1
        starts = np.repeat(tops - counts + 1, counts)
        run = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        reps = len(self._level_hashes)
        return (starts + run, np.repeat(np.tile(keys, reps), counts),
                np.repeat(np.tile(deltas, reps), counts))

    def prepare(self, keys, deltas):
        """Validate a batch of ``F[key] += delta`` updates without applying
        it; ``.apply()`` on the result commits (see
        :meth:`SketchStack.prepare`, which rejects keys outside the
        universe)."""
        return self._stack.prepare(*self._entries(keys, deltas))

    def update_many(self, keys, deltas) -> None:
        """Apply ``F[key] += delta`` for a batch (all or nothing)."""
        self.prepare(keys, deltas).apply()

    def update(self, key: int, delta: int) -> None:
        """Apply ``F[key] += delta``."""
        self.update_many([int(key)], [int(delta)])

    def _instance_estimate(self, i: int) -> float:
        for l in range(self.levels):
            res = self._stack.decode(i * self.levels + l, max_items=self.capacity + 1)
            if res.success and len(res.items) <= self.capacity:
                return float(len(res.items) * (1 << l))
        return float("inf")  # every level overflowed (astronomically unlikely)

    def estimate(self) -> float:
        """Median-of-instances ``(1 +- eps)`` estimate of ``||F||_0``."""
        return float(np.median([self._instance_estimate(i)
                                for i in range(len(self._level_hashes))]))

    def snapshot(self) -> dict:
        """Mutable state of every independent instance: its level-hash
        fingerprint and per-level sketch states."""
        return {"instances": {
            str(i): {
                "level_digest": lh.digest(),
                "sketches": {str(l): self._stack.snapshot(i * self.levels + l)
                             for l in range(self.levels)},
            }
            for i, lh in enumerate(self._level_hashes)
        }}

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree across the instances (validates
        hash fingerprints; nothing changes unless all of it is valid)."""
        from ..persist import SnapshotError

        instances = state["instances"]
        if len(instances) != len(self._level_hashes):
            raise SnapshotError(
                f"F0 snapshot has {len(instances)} instances, estimator has "
                f"{len(self._level_hashes)}"
            )
        sketches = []
        for i, lh in enumerate(self._level_hashes):
            inst = instances[str(i)]
            if str(inst.get("level_digest")) != lh.digest():
                raise SnapshotError(
                    "F0 level-hash mismatch: snapshot was taken under different "
                    "sketch randomness (seed or options mismatch)"
                )
            levels = inst["sketches"]
            if len(levels) != self.levels:
                raise SnapshotError(
                    f"F0 snapshot has {len(levels)} levels, estimator has "
                    f"{self.levels}"
                )
            sketches += [levels[str(l)] for l in range(self.levels)]
        self._stack.restore(sketches)

    def at_most(self, s: int) -> bool:
        """Decide (whp) whether at most ``s`` keys are non-zero, allowing
        the estimator's relative slack on the high side."""
        return self.estimate() <= (1.0 + self.eps) * s

    @property
    def storage_cells(self) -> int:
        """Total cells held (for storage accounting)."""
        return self._stack.storage_cells
