"""Parallel execution layer: executors, deterministic seeding, machine-
accounting-preserving fan-out, and the on-disk experiment result cache.

The MPC round protocols (:mod:`repro.mpc`) and the sharded experiment
runner (:mod:`repro.experiments.__main__`) both run their independent
units of work through an :class:`Executor`; serial, thread-pool and
process-pool implementations are interchangeable and bit-identical (see
:mod:`repro.engine.executor` for the determinism contract).

Each name imports its defining module on first access (see
``repro._lazy``): ``concurrent.futures.process`` loads with
:mod:`repro.engine.executor`, not with the package.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("RESULTS_DIR_ENV", "ResultsCache", "default_results_dir"),
    "executor": ("Executor", "ProcessExecutor", "SerialExecutor",
                 "ThreadExecutor", "derive_rngs", "derive_seeds",
                 "get_executor", "map_machines"),
})
