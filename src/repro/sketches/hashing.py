"""k-wise independent hashing and vectorized arithmetic over a prime field.

The sparse-recovery sketch (Lemma 20) and the F0 estimator (Lemma 19) both
need hash functions with bounded independence.  We use polynomial hashing
over the Mersenne prime ``p = 2^61 - 1``: a random degree-``(k-1)``
polynomial evaluated at the key is k-wise independent.

Field elements live in ``uint64`` arrays.  :func:`mulmod` multiplies two
of them exactly by splitting each factor into 32-bit halves (every
partial product fits in 64 bits) and folding with ``2^61 = 1 (mod p)``,
so hashing, fingerprints and powers are whole-array NumPy passes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MERSENNE_P", "KWiseHash", "addmod", "mulmod", "poly_mod_p",
           "reduce_mod_p", "to_field"]

#: The Mersenne prime 2^61 - 1 used as the field size.
MERSENNE_P = (1 << 61) - 1

_P = np.uint64(MERSENNE_P)
_LO32 = np.uint64(0xFFFFFFFF)
_LO29 = np.uint64((1 << 29) - 1)


def reduce_mod_p(x) -> np.ndarray:
    """``x mod p`` for any ``uint64`` array (``2^61 = 1`` folds the top
    three bits onto the bottom)."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x & _P) + (x >> np.uint64(61))
    return np.where(x >= _P, x - _P, x)


def addmod(a, b) -> np.ndarray:
    """``(a + b) mod p`` for ``uint64`` arrays with ``a, b < p``."""
    s = np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)
    return np.where(s >= _P, s - _P, s)


def mulmod(a, b) -> np.ndarray:
    """``(a * b) mod p`` for broadcastable ``uint64`` arrays with
    ``a, b < p``.

    With ``a = a1 2^32 + a0`` and ``b = b1 2^32 + b0`` (``a1, b1 < 2^29``)
    the product is ``a1 b1 2^64 + (a1 b0 + a0 b1) 2^32 + a0 b0``; each
    term fits in 64 bits, ``2^64 = 8`` and the middle term's bits above
    29 wrap to weight ``2^61 = 1``, so the folded sum stays below
    ``2^63``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a1, a0 = a >> np.uint64(32), a & _LO32
    b1, b0 = b >> np.uint64(32), b & _LO32
    mid = a1 * b0 + a0 * b1
    low = a0 * b0
    t = ((a1 * b1) << np.uint64(3)) + (mid >> np.uint64(29)) \
        + ((mid & _LO29) << np.uint64(32)) + (low & _P) + (low >> np.uint64(61))
    return reduce_mod_p(t)


def poly_mod_p(coeffs, x) -> np.ndarray:
    """Horner evaluation ``(c_0 x^(k-1) + ... + c_(k-1)) mod p`` for
    ``coeffs`` of shape ``(..., k)`` (``uint64``, each ``< p``) broadcast
    against field elements ``x``."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    acc = coeffs[..., 0]
    for j in range(1, coeffs.shape[-1]):
        acc = addmod(mulmod(acc, x), coeffs[..., j])
    return np.broadcast_to(acc, np.broadcast_shapes(acc.shape, np.shape(x)))


def to_field(values) -> np.ndarray:
    """Integers (any sign, any size) reduced into ``[0, p)`` as ``uint64``."""
    arr = np.asarray(values)
    if arr.dtype.kind == "i":
        return np.mod(arr.astype(np.int64), MERSENNE_P).astype(np.uint64)
    if arr.dtype.kind == "u":
        return np.mod(arr.astype(np.uint64), _P)
    return np.array([int(v) % MERSENNE_P for v in arr.ravel().tolist()],
                    dtype=np.uint64).reshape(arr.shape)


class KWiseHash:
    """A k-wise independent hash ``h : [U] -> [m]``.

    Parameters
    ----------
    m:
        Range size (outputs are in ``0..m-1``).
    k:
        Independence (degree of the random polynomial); ``k >= 2``.
    rng:
        NumPy random generator supplying the coefficients.

    Notes
    -----
    Outputs are ``(poly(x) mod p) mod m``; the modular bias is at most
    ``m / p``, negligible for ``m << 2^61``.
    """

    def __init__(self, m: int, k: int = 2, rng: "np.random.Generator | None" = None):
        if m <= 0:
            raise ValueError("range m must be positive")
        if k < 1:
            raise ValueError("independence k must be >= 1")
        rng = rng or np.random.default_rng()
        self.m = int(m)
        self.k = int(k)
        # leading coefficient non-zero to keep full degree
        coeffs = [int(rng.integers(1, MERSENNE_P))]
        coeffs += [int(rng.integers(0, MERSENNE_P)) for _ in range(k - 1)]
        self.coeffs = coeffs

    def __call__(self, keys) -> np.ndarray:
        """Hash an integer array (or scalar), returning ``int64`` values in
        ``0..m-1``."""
        scalar = np.isscalar(keys)
        acc = poly_mod_p(self.coeffs, to_field(np.atleast_1d(keys)))
        out = (acc % np.uint64(self.m)).astype(np.int64)
        return int(out[0]) if scalar else out

    def hash_int(self, key: int) -> int:
        """Hash a single Python int (no array overhead)."""
        acc = 0
        key = int(key)
        for c in self.coeffs:
            acc = (acc * key + c) % MERSENNE_P
        return int(acc % self.m)

    def digest(self) -> str:
        """Short stable fingerprint of (range, independence, coefficients).

        Snapshots store this so a restore can verify the reconstructed
        hash function is the one the state was accumulated under (the
        coefficients themselves are re-derived from the spec's seed, not
        serialized).
        """
        import hashlib

        payload = f"{self.m}:{self.k}:" + ",".join(map(str, self.coeffs))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
