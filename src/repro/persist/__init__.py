"""``repro.persist`` — durable session state for every backend.

The ROADMAP's production framing needs sessions that survive process
death: a streaming service must not replay an unbounded stream after a
crash, and a killed evaluation sweep should resume mid-stream rather
than at whole-cell granularity.  This package provides the two halves:

* the **snapshot protocol** — every registered backend implements
  ``snapshot() -> dict`` / ``restore(state)`` over a nested dict of
  arrays and JSON scalars (:class:`Snapshottable`), with restore-then-
  continue guaranteed bit-identical to the uninterrupted run (enforced
  by ``tests/test_persist.py`` for all registered backends);
* the **container format** (:mod:`repro.persist.format`) — a versioned
  single-file zip holding a human-readable ``manifest.json`` (spec,
  backend name, format version, update count) plus a ``payload.npz``
  of the array state.  Its names load on first access, so a process
  that only raises or catches :class:`SnapshotError` (defined in
  :mod:`repro.persist.errors`) never imports it.

The user-facing surface is :meth:`repro.api.KCenterSession.save` /
:meth:`~repro.api.KCenterSession.load`; the scenario matrix builds its
per-cell checkpoints (``--checkpoint-dir``) on the same primitives.
See ``docs/persistence.md`` for the format and versioning policy.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .._lazy import lazy_exports
from .errors import SnapshotError

# the container format (zipfile, the npz payload) loads on first use
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "format": ("SNAPSHOT_FORMAT_VERSION", "DEFAULT_MAX_DECOMPRESSED_BYTES",
               "DEFAULT_MMAP_THRESHOLD", "MANIFEST_MEMBER", "PAYLOAD_MEMBER",
               "read_manifest", "read_snapshot", "write_snapshot"),
})
__all__ += ["SnapshotError", "Snapshottable", "supports_snapshot"]


@runtime_checkable
class Snapshottable(Protocol):
    """Structural protocol for checkpointable structures.

    ``snapshot()`` returns one nested dict of string keys whose leaves
    are ``np.ndarray``s or JSON-serializable scalars/lists — everything
    needed so that ``restore(state)`` on a freshly constructed twin
    (same spec/options, hence same derived randomness) continues the
    stream bit-identically to the uninterrupted original.
    """

    def snapshot(self) -> dict:
        """Capture the full mutable state as a portable tree."""
        ...  # pragma: no cover - protocol

    def restore(self, state: dict) -> None:
        """Apply a previously captured state tree to this instance."""
        ...  # pragma: no cover - protocol


def supports_snapshot(backend) -> bool:
    """Whether a backend instance or class implements the snapshot
    protocol: ``snapshot`` and ``restore`` are both callable."""
    return (callable(getattr(backend, "snapshot", None))
            and callable(getattr(backend, "restore", None)))
