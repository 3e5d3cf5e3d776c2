"""Shared distance kernels (see :mod:`repro.kernels.distance`).

One exact float64 block-kernel implementation under every metric,
radius search and absorption loop in the library.  Block sizes are
worked out from the input (:func:`auto_chunk`).
"""

from .distance import (
    DEFAULT_BLOCK_BYTES,
    auto_chunk,
    pair_distances,
    pairwise_kernel,
)

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "auto_chunk",
    "pair_distances",
    "pairwise_kernel",
]
