"""The snapshot error type, apart from the container format so that
raising or catching it does not load :mod:`repro.persist.format`."""

from __future__ import annotations

__all__ = ["SnapshotError"]


class SnapshotError(RuntimeError):
    """A snapshot cannot be written, read, or applied.

    Raised for unreadable/corrupted files, unknown format versions,
    backend/spec mismatches at load time, and state trees that do not
    fit the container (non-string keys, unserializable leaves).
    """
