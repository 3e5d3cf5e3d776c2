"""Massively Parallel Computing algorithms (§3, §7) on a simulated
synchronous cluster with storage and communication accounting."""

from .baselines import (
    ceccarello_one_round_deterministic,
    ceccarello_one_round_randomized,
    cpp_local_coreset,
)
from .cluster import MPCStats, SimulatedMPC
from .machine import Machine
from .multi_round import multi_round_coreset
from .one_round import one_round_coreset, random_outlier_budget
from .partition import (
    partition_adversarial_outliers,
    partition_contiguous,
    partition_random,
    recommended_num_machines,
)
from .result import MPCCoresetResult
from .two_round import compute_rhat, outlier_vector_length, two_round_coreset

__all__ = [
    "MPCCoresetResult",
    "MPCStats",
    "Machine",
    "SimulatedMPC",
    "ceccarello_one_round_deterministic",
    "ceccarello_one_round_randomized",
    "compute_rhat",
    "cpp_local_coreset",
    "multi_round_coreset",
    "one_round_coreset",
    "outlier_vector_length",
    "partition_adversarial_outliers",
    "partition_contiguous",
    "partition_random",
    "random_outlier_budget",
    "recommended_num_machines",
    "two_round_coreset",
]
