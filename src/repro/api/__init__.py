"""`repro.api` — the unified facade over every model in the library.

One problem, five computational models, one API:

* :class:`ProblemSpec` — the validated ``(k, z, eps, metric, seed, dim)``
  instance description every backend consumes;
* the **backend registry** — ``register_backend`` / ``get_backend`` /
  ``available_backends``, under which all coreset algorithms (offline,
  insertion-only, fully dynamic, sliding window, MPC, baselines)
  self-register behind the :class:`CoresetBackend` protocol;
* :class:`KCenterSession` — the driver: batched ``extend``, model-aware
  ``insert``/``delete``, ``coreset()``, an enriched ``solve()``, and
  ``save()``/``load()`` durable checkpoints (:mod:`repro.persist`)
  whose restore-then-continue is bit-identical to an uninterrupted run.

Import contract: ``import repro.api`` loads the facade (spec, registry
with every backend's metadata, session, adapters) and what every
session's solve uses (``repro.core``'s points, metrics, radius, greedy
and MBC modules, ``repro.kernels``, ``repro.geometry.grid``).  A backend
family loads when its first session is built: ``repro.streaming.*``
(with ``repro.sketches`` for the dynamic backends), or ``repro.mpc.*``
with ``repro.engine``; the snapshot container format
(:mod:`repro.persist.format`) loads at the first ``save`` or ``load``.
``tests/test_lazy_imports.py`` holds it to that.

Quickstart::

    from repro.api import ProblemSpec, KCenterSession

    spec = ProblemSpec(k=3, z=10, eps=0.5, dim=2, seed=0)
    sess = KCenterSession.from_spec(spec, backend="insertion-only")
    sess.extend(points)
    print(sess.solve())
"""

from .spec import ProblemSpec
from .registry import (
    BackendError,
    BackendInfo,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    backend_table,
    get_backend,
    register_backend,
    unregister_backend,
)
from .backends import (  # noqa: F401 - importing registers the builtins
    CoresetBackend,
    Guarantee,
    UnsupportedOperationError,
)
from ..persist import SnapshotError
from .session import KCenterSession, Solution

__all__ = [
    "BackendError",
    "SnapshotError",
    "BackendInfo",
    "CoresetBackend",
    "DuplicateBackendError",
    "Guarantee",
    "KCenterSession",
    "ProblemSpec",
    "Solution",
    "UnknownBackendError",
    "UnsupportedOperationError",
    "available_backends",
    "backend_table",
    "get_backend",
    "register_backend",
    "unregister_backend",
]
