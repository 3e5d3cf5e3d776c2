"""Parallel execution layer: executors, deterministic seeding, machine-
accounting-preserving fan-out, and the on-disk experiment result cache.

The MPC round protocols (:mod:`repro.mpc`) and the sharded experiment
runner (:mod:`repro.experiments.__main__`) both run their independent
units of work through an :class:`Executor`; serial, thread-pool and
process-pool implementations are interchangeable and bit-identical (see
:mod:`repro.engine.executor` for the determinism contract).
"""

from .cache import RESULTS_DIR_ENV, ResultsCache, default_results_dir
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derive_rngs,
    derive_seeds,
    get_executor,
    map_machines,
)

__all__ = [
    "RESULTS_DIR_ENV",
    "Executor",
    "ProcessExecutor",
    "ResultsCache",
    "SerialExecutor",
    "ThreadExecutor",
    "default_results_dir",
    "derive_rngs",
    "derive_seeds",
    "get_executor",
    "map_machines",
]
