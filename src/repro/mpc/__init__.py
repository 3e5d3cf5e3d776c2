"""Massively Parallel Computing algorithms (§3, §7) on a simulated
synchronous cluster with storage and communication accounting.

Each name imports its defining module on first access (see
``repro._lazy``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baselines": ("ceccarello_one_round_deterministic",
                  "ceccarello_one_round_randomized", "cpp_local_coreset"),
    "cluster": ("MPCStats", "SimulatedMPC"),
    "machine": ("Machine",),
    "multi_round": ("multi_round_coreset",),
    "one_round": ("one_round_coreset", "random_outlier_budget"),
    "partition": ("partition_adversarial_outliers", "partition_contiguous",
                  "partition_random", "recommended_num_machines"),
    "result": ("MPCCoresetResult",),
    "two_round": ("compute_rhat", "outlier_vector_length",
                  "two_round_coreset"),
})
