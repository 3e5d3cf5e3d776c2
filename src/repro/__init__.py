"""repro — full reproduction of *k-Center Clustering with Outliers in the
MPC and Streaming Model* (de Berg, Biabani, Monemizadeh, 2023).

Public API overview
-------------------

Facade (``repro.api``)
    The unified entry point: :class:`~repro.api.ProblemSpec` (validated
    ``k, z, eps, metric, seed, dim``), the string-keyed backend registry
    (``register_backend`` / ``get_backend`` / ``available_backends``)
    over every coreset algorithm in the library, and
    :class:`~repro.api.KCenterSession` with batched ``extend`` and an
    enriched, provenance-carrying ``solve()``.
Core (``repro.core``)
    :class:`~repro.core.WeightedPointSet`, metrics, the ``Greedy``
    3-approximation, ``MBCConstruction`` (Algorithm 1), coreset
    verification.
Kernels (``repro.kernels``)
    The shared distance-computation layer under every radius search and
    absorption loop: exact float64 block and pair-list kernels with
    chunk autotuning.
Persist (``repro.persist``)
    Durable session state: a versioned snapshot container (JSON manifest
    + npz payload) behind ``KCenterSession.save``/``load``, implemented
    by every registered backend with bit-identical restore-then-continue.
Engine (``repro.engine``)
    The parallel execution layer: interchangeable serial/thread/process
    executors with bit-identical results, deterministic per-task seed
    derivation, machine-accounting-preserving fan-out, and the on-disk
    experiment results cache.
MPC (``repro.mpc``)
    Simulated MPC cluster with storage/communication accounting; the
    deterministic 2-round (Algorithm 2), randomized 1-round (Algorithm 6)
    and R-round (Algorithm 7) coreset algorithms, plus
    Ceccarello-Pietracaprina-Pucci baselines.
Streaming (``repro.streaming``)
    Insertion-only streaming (Algorithm 3), the fully dynamic sketch-based
    algorithm (Algorithm 5), sliding-window and prior-work baselines.
Serve (``repro.serve``)
    Multi-tenant clustering-as-a-service over the session API: a
    stdlib-only threaded HTTP/JSON server with per-session locking,
    snapshot-backed LRU eviction, checkpoint-cadence crash recovery,
    Prometheus ``/metrics`` and a scenario-replay load generator.
Sketches (``repro.sketches``)
    s-sparse recovery and F0 estimation over dynamic streams.
Lower bounds (``repro.lowerbounds``)
    Executable versions of every lower-bound construction (§4.1, §4.2,
    §5.2, §6) and an adversary harness.
Workloads / experiments (``repro.workloads``, ``repro.experiments``)
    Synthetic data generators and the drivers that regenerate Table 1.
"""

from ._lazy import lazy_exports

__version__ = "1.10.0"

# ``import repro`` loads nothing else: each name below imports its
# subpackage on first access (see ``repro._lazy``)
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": ("api", "KCenterSession", "ProblemSpec", "available_backends",
            "get_backend", "register_backend"),
    "core": ("core", "WeightedPointSet", "charikar_greedy", "gonzalez",
             "mbc_construction", "solve_kcenter_outliers",
             "solve_via_coreset", "update_coreset"),
    "engine": ("engine",),
    "kernels": ("kernels",),
    "persist": ("persist",),
})
__all__ += ["__version__"]
