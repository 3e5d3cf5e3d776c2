"""Shared distance kernels (see :mod:`repro.kernels.distance`).

One block-kernel implementation under every metric, radius search and
absorption loop in the library, with one knob — ``dtype`` (float64 =
bit-exact reference, float32 = GEMM/broadcast fast path) — threaded
through :class:`repro.api.ProblemSpec` and the MPC task tuples.  Block
sizes are worked out from the input (:func:`auto_chunk`).
"""

from .distance import (
    DEFAULT_BLOCK_BYTES,
    KERNEL_DTYPES,
    Workspace,
    auto_chunk,
    pair_distances,
    pairwise_kernel,
    resolve_dtype,
    sqnorms,
)

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "KERNEL_DTYPES",
    "Workspace",
    "auto_chunk",
    "pair_distances",
    "pairwise_kernel",
    "resolve_dtype",
    "sqnorms",
]
