"""Linear-sketch substrates for the fully dynamic streaming algorithm
(§5.1): k-wise hashing, s-sparse recovery held as stacked arrays
(Lemma 20) and F0 estimation (Lemma 19)."""

from .f0 import F0Estimator
from .hashing import MERSENNE_P, KWiseHash
from .sparse_recovery import (
    SketchOverflowError,
    SketchParams,
    SketchStack,
    SparseRecoveryResult,
    SSparseRecovery,
)
from .vandermonde import PRIME_31, VandermondeSketch, berlekamp_massey

__all__ = [
    "F0Estimator",
    "KWiseHash",
    "MERSENNE_P",
    "PRIME_31",
    "SSparseRecovery",
    "SketchOverflowError",
    "SketchParams",
    "SketchStack",
    "SparseRecoveryResult",
    "VandermondeSketch",
    "berlekamp_massey",
]
