"""s-sparse recovery sketch (the paper's Lemma 20 substrate).

Algorithm 5 maintains, for every grid ``G_i``, a sketch from which *all*
non-empty cells (with exact counts) can be recovered whenever at most ``s``
cells are non-empty (Lemma 22).  We implement the standard peeling
construction: ``R`` rows of ``B = c*s`` one-sparse cells each, with row-
private pairwise-independent hash functions.  Decoding repeatedly finds
cells that are 1-sparse, outputs their items, and subtracts them from
every row — an invertible-Bloom-lookup-table style peel that succeeds with
probability ``1 - delta`` when ``||F||_0 <= s`` and otherwise *detects*
failure (non-zero residue after peeling stalls).

A one-sparse cell summarises the frequencies ``F`` hashed to it by
``w = sum F[i]``, ``ws = sum F[i] * i`` and ``fp = sum F[i] zeta^i
(mod p)`` for a random point ``zeta`` shared by the sketch.  If exactly one
key ``a`` is present, ``ws / w == a`` and ``fp == w zeta^a``; a collision
passes this test with probability at most ``U / p`` (Schwartz-Zippel).

State layout: :class:`SketchStack` holds ``L`` equally shaped sketches —
an owner's grid levels, or an F0 estimator's sampling levels — as three
``(L, rows, buckets)`` arrays, ``w`` and ``ws`` in int64 and ``fp`` in
uint64 below ``p = 2^61 - 1``.  One batch of ``(level, key, delta)``
updates is one vectorized pass (bucket hashing, ``zeta^key`` from 8-bit
digit tables, ``np.add.at``), and decoding peels every singleton cell of
a round at once.  :class:`SSparseRecovery` is the ``L = 1`` stack.

This is a space-for-simplicity substitution for Barkay-Porat-Shalem:
the interface and guarantee used by the
paper — "recover everything exactly when sparsity <= s, else fail
detectably" — are identical.
"""

from __future__ import annotations

import hashlib
from math import ceil, log2

import numpy as np

from .hashing import MERSENNE_P, KWiseHash, addmod, mulmod, poly_mod_p, reduce_mod_p, to_field

__all__ = [
    "SketchOverflowError",
    "SketchParams",
    "SketchStack",
    "SparseRecoveryResult",
    "SSparseRecovery",
]

_P = np.uint64(MERSENNE_P)
_LO30 = np.uint64((1 << 30) - 1)
_LO31 = np.uint64((1 << 31) - 1)
#: a batch whose running bound ``(M + sum |delta|) * universe`` stays
#: below this cannot move any cell's ``|ws|`` past 2^63 (a factor-2
#: margin absorbs float rounding); above it, the touched cells are checked
_FAST_LIMIT = 2.0**62


class SketchOverflowError(OverflowError):
    """An update would take a cell's int64 ``w`` or key sum ``ws`` to
    ``2^63`` or beyond; raised before any state changes."""


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


class SketchParams:
    """The randomness and geometry of one sketch: ``rows`` row hashes into
    ``buckets`` buckets and the fingerprint point ``zeta``, drawn from
    ``rng`` in a fixed order (row hashes first, then ``zeta``) so a
    structure rebuilt from the same seed re-draws them identically."""

    __slots__ = ("s", "universe", "rows", "buckets", "hashes", "zeta")

    def __init__(self, s: int, universe: int, delta: float = 0.01,
                 bucket_factor: float = 2.0,
                 rng: "np.random.Generator | None" = None):
        if s < 1:
            raise ValueError("s must be >= 1")
        if universe < 1:
            raise ValueError("universe must be >= 1")
        rng = rng or np.random.default_rng()
        self.s = int(s)
        self.universe = int(universe)
        self.rows = max(3, min(12, int(ceil(log2(max(s, 2) / max(delta, 1e-12))))))
        self.buckets = int(ceil(bucket_factor * s))
        self.hashes = [KWiseHash(self.buckets, k=2, rng=rng) for _ in range(self.rows)]
        self.zeta = int(rng.integers(2, MERSENNE_P - 1))

    def digest(self) -> str:
        """Fingerprint of ``(s, universe, rows, buckets)``, every row hash
        and ``zeta`` (what :meth:`SketchStack.snapshot` records)."""
        h = hashlib.sha256()
        h.update(f"{self.s}:{self.universe}:{self.rows}:{self.buckets}".encode())
        for hh in self.hashes:
            h.update(hh.digest().encode())
        h.update(str(self.zeta).encode())
        return h.hexdigest()[:16]


def _add_mod_p(acc: np.ndarray, idx: np.ndarray, c: np.ndarray) -> None:
    """``acc[idx] += c (mod p)`` exactly, repeated indices accumulating:
    the addends are summed per cell in 31-bit limbs (exact in uint64 for
    fewer than 2^33 addends) and folded once."""
    cells, inv = np.unique(idx, return_inverse=True)
    lo = np.zeros(len(cells), dtype=np.uint64)
    hi = np.zeros(len(cells), dtype=np.uint64)
    np.add.at(lo, inv, c & _LO31)
    np.add.at(hi, inv, c >> np.uint64(31))
    hi = reduce_mod_p(hi)
    # hi * 2^31 = (hi >> 30) 2^61 + (hi mod 2^30) 2^31 = (hi >> 30) + ... (mod p)
    hi = reduce_mod_p((hi >> np.uint64(30)) + ((hi & _LO30) << np.uint64(31)))
    acc[cells] = addmod(acc[cells], addmod(hi, reduce_mod_p(lo)))


def _neg_mod_p(c: np.ndarray) -> np.ndarray:
    return np.where(c == 0, c, _P - c)


class _PendingUpdate:
    """A validated batch for one :class:`SketchStack`; :meth:`apply`
    cannot fail, so an owner can prepare every stack's batch before
    touching any (all-or-nothing updates)."""

    __slots__ = ("stack", "idx", "dw", "dws", "dfp", "mass", "counts", "stale")

    def __init__(self, stack, idx, dw, dws, dfp, mass, counts, stale):
        self.stack, self.idx = stack, idx
        self.dw, self.dws, self.dfp = dw, dws, dfp
        self.mass, self.counts, self.stale = mass, counts, stale

    def apply(self) -> None:
        st = self.stack
        if self.idx is None:
            return
        np.add.at(st.w.reshape(-1), self.idx, self.dw)
        np.add.at(st.ws.reshape(-1), self.idx, self.dws)
        _add_mod_p(st.fp.reshape(-1), self.idx, self.dfp)
        st._mass += self.mass
        if self.stale.any():
            st._mass[self.stale] = st._cell_bound(self.stale)
        st.updates += self.counts


class SketchStack:
    """``L`` equally shaped s-sparse recovery sketches as stacked arrays.

    Parameters
    ----------
    params:
        One :class:`SketchParams` per sketch; all must share ``rows`` and
        ``buckets`` (universes may differ).

    Attributes
    ----------
    w, ws:
        ``(L, rows, buckets)`` int64 cell sums of frequencies and of
        frequency-weighted keys.
    fp:
        ``(L, rows, buckets)`` uint64 fingerprint sums, each ``< p``.
    updates:
        ``(L,)`` int64 count of non-zero updates applied per sketch.
    """

    def __init__(self, params: "list[SketchParams]"):
        if not params:
            raise ValueError("a sketch stack needs at least one sketch")
        self.rows, self.buckets = params[0].rows, params[0].buckets
        if any((p.rows, p.buckets) != (self.rows, self.buckets) for p in params):
            raise ValueError("stacked sketches must share rows and buckets")
        self._params = list(params)
        self._digests: "list[str | None]" = [None] * len(params)
        n = len(params)
        shape = (n, self.rows, self.buckets)
        self.universe = np.array([p.universe for p in params], dtype=np.int64)
        self._coeffs = np.array([[h.coeffs for h in p.hashes] for p in params],
                                dtype=np.uint64)
        self._ztab = self._zeta_tables([p.zeta for p in params],
                                       int(self.universe.max()) - 1)
        self.w = np.zeros(shape, dtype=np.int64)
        self.ws = np.zeros(shape, dtype=np.int64)
        self.fp = np.zeros(shape, dtype=np.uint64)
        self.updates = np.zeros(n, dtype=np.int64)
        # running upper bound on _cell_bound() per sketch: its value at the
        # last restore or refresh plus every |delta| applied since
        self._mass = np.zeros(n, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._params)

    @staticmethod
    def _zeta_tables(zetas: "list[int]", max_key: int) -> np.ndarray:
        """``T[l, j, d] = zeta_l^(d * 256^j) mod p`` for every byte ``j``
        a key below the largest universe can have."""
        nd = max(1, -(-max(max_key, 1).bit_length() // 8))
        chain = np.empty((len(zetas), 8 * nd), dtype=np.uint64)
        for i, x in enumerate(zetas):
            row = []
            for _ in range(8 * nd):
                row.append(x)
                x = x * x % MERSENNE_P
            chain[i] = row
        chain = chain.reshape(len(zetas), nd, 8)
        tab = np.ones((len(zetas), nd, 256), dtype=np.uint64)
        for bit in range(8):
            lo = 1 << bit
            tab[:, :, lo:2 * lo] = mulmod(tab[:, :, :lo], chain[:, :, bit, None])
        return tab

    # -- arithmetic ----------------------------------------------------------

    def _buckets(self, lev, keys: np.ndarray) -> np.ndarray:
        """``(n, rows)`` bucket of each key in every row of its sketch
        (``lev``: one sketch index per key, or one for all)."""
        h = poly_mod_p(self._coeffs[lev], to_field(keys)[:, None])
        return (h % np.uint64(self.buckets)).astype(np.int64)

    def _zeta_pow(self, lev, keys: np.ndarray) -> np.ndarray:
        """``zeta_lev^key mod p`` per entry, one table lookup per byte."""
        k = keys.astype(np.uint64)
        out = self._ztab[lev, 0, k & np.uint64(255)]
        for j in range(1, self._ztab.shape[1]):
            digit = (k >> np.uint64(8 * j)) & np.uint64(255)
            out = mulmod(out, self._ztab[lev, j, digit])
        return out

    def _flat_cells(self, lev, buckets: np.ndarray) -> np.ndarray:
        """Flat ``(L * rows * buckets)`` index of every ``(entry, row)``."""
        rows = np.arange(self.rows, dtype=np.int64)
        lev = np.asarray(lev, dtype=np.int64).reshape(-1, 1)
        return ((lev * self.rows + rows) * self.buckets + buckets).ravel()

    # -- stream interface ----------------------------------------------------

    def prepare(self, lev, keys, deltas) -> _PendingUpdate:
        """Validate ``F_lev[key] += delta`` for every entry and compute the
        cell updates, changing no cell.

        Raises ``ValueError`` for a key outside its sketch's universe and
        :class:`SketchOverflowError` when a cell's ``w`` or ``ws`` would
        reach ``2^63``.  Whether a batch is accepted depends only on the
        cells and the batch, so a restored sketch accepts exactly what its
        original would.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        lev = np.broadcast_to(np.asarray(lev, dtype=np.int64), keys.shape)
        deltas = np.broadcast_to(np.asarray(deltas, dtype=np.int64), keys.shape)
        universe = self.universe[lev]
        bad = (keys < 0) | (keys >= universe)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"key {int(keys[i])} outside universe [0, {int(universe[i])})"
            )
        live = deltas != 0
        if not live.all():
            lev, keys, deltas = lev[live], keys[live], deltas[live]
        n = len(self)
        if len(keys) == 0:
            return _PendingUpdate(self, None, None, None, None, 0.0, 0, None)
        mass = np.bincount(lev, weights=np.abs(deltas.astype(np.float64)),
                           minlength=n)
        # fast path: the running bound proves every cell stays far from
        # 2^63; only sketches where it cannot have their cells checked
        stale = (self._mass + mass) * self.universe >= _FAST_LIMIT
        idx = self._flat_cells(lev, self._buckets(lev, keys))
        if stale.any():
            self._check_fits(idx, lev, keys, deltas, stale)
        dfp = mulmod(to_field(deltas), self._zeta_pow(lev, keys))
        # int64 products may wrap, but the cell sums they feed are exact
        # mod 2^64 and checked to lie in int64, so they come out right
        return _PendingUpdate(
            self, idx,
            np.repeat(deltas, self.rows),
            np.repeat(deltas * keys, self.rows),
            np.repeat(dfp, self.rows),
            mass, np.bincount(lev, minlength=n), stale,
        )

    def _check_fits(self, idx, lev, keys, deltas, stale) -> None:
        """Raise :class:`SketchOverflowError` unless every cell the batch
        touches in a ``stale`` sketch keeps ``|w|`` and ``|ws|`` below
        ``2^63``.  The new values are summed in float64 with an error bound
        on the rounding (so cancelling inserts and deletes pass); a value
        within that error of ``2^63`` is rejected."""
        sel = np.repeat(stale[lev], self.rows)
        cells, inv = np.unique(idx[sel], return_inverse=True)
        slack = (np.bincount(inv) + 4) * 2.0**-50
        dw = np.repeat(deltas.astype(np.float64), self.rows)[sel]
        dws = dw * np.repeat(keys.astype(np.float64), self.rows)[sel]
        for name, cur, add in (("w", self.w, dw), ("ws", self.ws, dws)):
            old = cur.reshape(-1)[cells].astype(np.float64)
            new = old + np.bincount(inv, weights=add)
            size = np.abs(old) + np.bincount(inv, weights=np.abs(add))
            over = np.abs(new) + slack * size >= 2.0**63
            if over.any():
                cell = int(cells[np.argmax(over)])
                raise SketchOverflowError(
                    f"sketch {cell // (self.rows * self.buckets)}: a cell's "
                    f"{name} would reach 2^63 (about {new[np.argmax(over)]:.4g})"
                )

    def update(self, lev, keys, deltas) -> None:
        """Apply ``F_lev[key] += delta`` for every entry (all or nothing)."""
        self.prepare(lev, keys, deltas).apply()

    def _cell_bound(self, levels) -> np.ndarray:
        """Per selected sketch, the least ``M`` with ``|w| <= M`` and
        ``|ws| <= M * universe`` in every cell."""
        w_max = np.abs(self.w[levels].astype(np.float64)).max(axis=(1, 2))
        ws_max = np.abs(self.ws[levels].astype(np.float64)).max(axis=(1, 2))
        return np.maximum(w_max, ws_max / self.universe[levels])

    # -- accounting ----------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        """One-sparse cells held across the stack."""
        return self.w.size

    def is_empty(self, level: int) -> bool:
        """True when every cell of sketch ``level`` is zero."""
        return not (self.w[level].any() or self.ws[level].any()
                    or self.fp[level].any())

    # -- persistence ---------------------------------------------------------

    def params_digest(self, level: int) -> str:
        """:meth:`SketchParams.digest` of sketch ``level`` (cached)."""
        if self._digests[level] is None:
            self._digests[level] = self._params[level].digest()
        return self._digests[level]

    def snapshot(self, level: int) -> dict:
        """Mutable state of sketch ``level``: its digest, update count and
        the ``(rows, buckets)`` int64 arrays ``w``, ``ws`` and ``fp``.

        The hash functions and ``zeta`` are *not* serialized — they are
        re-derived from the owning structure's seed on reconstruction and
        cross-checked via the digest.
        """
        return {
            "digest": self.params_digest(level),
            "updates": int(self.updates[level]),
            "w": self.w[level].copy(),
            "ws": self.ws[level].copy(),
            "fp": self.fp[level].astype(np.int64),
        }

    def restore(self, states: "list[dict]") -> None:
        """Apply one :meth:`snapshot` tree per sketch, in order.

        Fails closed with ``SnapshotError`` — before changing anything —
        on a digest mismatch, a missing field, a non-integer dtype, a wrong
        shape, an int64 overflow or a fingerprint outside ``[0, p)``.
        """
        from ..persist import SnapshotError

        if len(states) != len(self):
            raise SnapshotError(
                f"snapshot has {len(states)} sketches, structure has {len(self)}"
            )
        shape = (self.rows, self.buckets)
        fields = {"w": [], "ws": [], "fp": []}
        updates = []
        for level, state in enumerate(states):
            if not isinstance(state, dict):
                raise SnapshotError("sparse-recovery snapshot is not a state tree")
            if str(state.get("digest")) != self.params_digest(level):
                raise SnapshotError(
                    "sparse-recovery snapshot was taken under different sketch "
                    "randomness/parameters (seed or options mismatch)"
                )
            for name, out in fields.items():
                arr = np.asarray(state.get(name))
                if arr.dtype.kind not in "iu":
                    raise SnapshotError(
                        f"sparse-recovery snapshot field {name!r} has dtype "
                        f"{arr.dtype}, expected integers"
                    )
                if arr.shape != shape:
                    raise SnapshotError(
                        f"sparse-recovery snapshot shape {arr.shape} != sketch "
                        f"{shape}"
                    )
                if arr.dtype.kind == "u" and arr.size and arr.max() >= 2**63:
                    raise SnapshotError(
                        f"sparse-recovery snapshot field {name!r} exceeds int64"
                    )
                out.append(arr.astype(np.int64))
            fp = fields["fp"][-1]
            if fp.size and (fp.min() < 0 or fp.max() >= MERSENNE_P):
                raise SnapshotError(
                    "sparse-recovery snapshot fingerprint outside [0, 2^61 - 1)"
                )
            count = state.get("updates", 0)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise SnapshotError(
                    f"sparse-recovery snapshot update count {count!r} is not "
                    "an integer"
                )
            updates.append(int(count))
        self.w[...] = fields["w"]
        self.ws[...] = fields["ws"]
        self.fp[...] = np.asarray(fields["fp"]).astype(np.uint64)
        self.updates[...] = updates
        self._mass = self._cell_bound(slice(None))

    # -- decoding ------------------------------------------------------------

    def decode(self, level: int, max_items: "int | None" = None) -> SparseRecoveryResult:
        """Recover sketch ``level`` by peeling in rounds (non-destructive).

        Each round takes every cell that passes the one-sparse test —
        ``w > 0``, ``w`` divides ``ws``, ``0 <= ws / w < universe`` and
        the fingerprint matches — keeps one cell per key (the first in
        row-major order) and subtracts all of them at once.  Peeling
        stops when a round finds no singleton, or after a round once more
        than ``max_items`` keys are out.  ``success`` is True iff every
        cell is then zero, in which case ``items`` is exactly the set of
        keys with non-zero frequency (whp).  Peeling is confluent, so an
        accepted result is the one a cell-by-cell sweep reaches.
        """
        cap = self.rows * self.buckets if max_items is None else int(max_items)
        universe = int(self.universe[level])
        w, ws, fp = self.w[level].copy(), self.ws[level].copy(), self.fp[level].copy()
        w_flat, ws_flat, fp_flat = w.reshape(-1), ws.reshape(-1), fp.reshape(-1)
        items: "dict[int, int]" = {}
        while len(items) <= cap:
            pos = w > 0
            if not pos.any():
                break
            wpos = np.where(pos, w, 1)
            key = ws // wpos
            rows, cols = np.nonzero(pos & (ws % wpos == 0) & (key >= 0)
                                    & (key < universe))
            if len(rows) == 0:
                break
            keys, weights = key[rows, cols], w[rows, cols]
            contrib = mulmod(to_field(weights), self._zeta_pow(level, keys))
            single = fp[rows, cols] == contrib
            if not single.any():
                break
            keys, first = np.unique(keys[single], return_index=True)
            weights = weights[single][first]
            contrib = contrib[single][first]
            for k, v in zip(keys.tolist(), weights.tolist()):
                items[k] = items.get(k, 0) + v
            # flat indices into this sketch's (rows, buckets) work arrays
            idx = self._flat_cells(0, self._buckets(level, keys))
            np.add.at(w_flat, idx, np.repeat(-weights, self.rows))
            np.add.at(ws_flat, idx, np.repeat(-weights * keys, self.rows))
            _add_mod_p(fp_flat, idx, np.repeat(_neg_mod_p(contrib), self.rows))
        if w.any() or ws.any() or fp.any():
            # partial recovery: report what we got but flag failure
            return SparseRecoveryResult(False, items)
        return SparseRecoveryResult(True, {k: v for k, v in items.items() if v != 0})


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
    storage accounting used in the experiments.  The state is a
    one-sketch :class:`SketchStack`.
    """

    def __init__(
        self,
        s: int,
        universe: int,
        delta: float = 0.01,
        bucket_factor: float = 2.0,
        rng: "np.random.Generator | None" = None,
    ):
        params = SketchParams(s, universe, delta, bucket_factor, rng)
        self.s, self.universe = params.s, params.universe
        self.rows, self.buckets = params.rows, params.buckets
        self._stack = SketchStack([params])

    # -- stream interface -------------------------------------------------

    def update(self, key: int, delta: int) -> None:
        """Apply ``F[key] += delta`` (use ``delta=+1`` for insert, ``-1``
        for delete; arbitrary int64 integers allowed)."""
        self.update_many([int(key)], [int(delta)])

    def update_many(self, keys, deltas) -> None:
        """Batch form of :meth:`update`: every key is validated before any
        cell changes, so a bad batch leaves the sketch untouched."""
        self._stack.update(0, keys, deltas)

    # -- accounting --------------------------------------------------------

    @property
    def storage_cells(self) -> int:
        """Number of one-sparse cells held (the sketch's storage in
        ``O(log U)``-bit words, the unit Table 1 counts)."""
        return self._stack.storage_cells

    @property
    def is_empty(self) -> bool:
        """True when every cell is zero (the summarised vector is zero)."""
        return self._stack.is_empty(0)

    # -- persistence --------------------------------------------------------

    def params_digest(self) -> str:
        """Fingerprint of the sketch's immutable randomness/geometry.

        Covers ``(s, universe, rows, buckets)``, every row hash and the
        shared fingerprint point ``zeta``.  Snapshots embed it so
        :meth:`restore` can detect a seed/parameter mismatch instead of
        silently mixing cell state with foreign hash functions.
        """
        return self._stack.params_digest(0)

    def snapshot(self) -> dict:
        """Mutable state: the (w, ws, fp) arrays (see
        :meth:`SketchStack.snapshot`)."""
        return self._stack.snapshot(0)

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot` tree (validates digest, dtypes, shapes
        and fingerprint range)."""
        self._stack.restore([state])

    # -- decoding -----------------------------------------------------------

    def decode(self, max_items: "int | None" = None) -> SparseRecoveryResult:
        """Attempt full recovery by peeling (see :meth:`SketchStack.decode`)."""
        return self._stack.decode(0, max_items)
