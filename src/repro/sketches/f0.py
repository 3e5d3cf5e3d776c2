"""F0 (distinct elements) estimation over dynamic streams (Lemma 19).

Algorithm 5 uses an ``||F||_0``-estimator per grid to find the finest grid
with at most ``s`` non-empty cells.  The paper cites Kane-Nelson-Woodruff;
we implement the classical *level sampling* linear sketch, which supports
insertions and deletions:

* level ``l`` samples keys whose hash has ``l`` trailing zero bits
  (rate ``2^-l``),
* each level keeps a small :class:`~repro.sketches.sparse_recovery.SSparseRecovery`
  of capacity ``c``,
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

from .hashing import KWiseHash
from .sparse_recovery import SSparseRecovery

__all__ = ["F0Estimator"]


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
        from ..persist import SnapshotError

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
        from ..persist import SnapshotError

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
