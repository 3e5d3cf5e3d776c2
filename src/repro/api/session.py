"""`KCenterSession` — one facade over every computational model.

A session binds a :class:`~repro.api.spec.ProblemSpec` to a registered
backend and exposes the uniform stream/query surface::

    spec = ProblemSpec(k=3, z=10, eps=0.5, dim=2, seed=0)
    sess = KCenterSession.from_spec(spec, backend="insertion-only")
    sess.extend(points)           # vectorized batched ingest (hot path)
    sol = sess.solve()            # enriched Solution with provenance

``extend(array)`` is the hot path: the array is handed to the backend in
one call, so vectorized backends evaluate one metric matrix (or one
cell-id pass) per batch instead of a per-point Python loop — the
difference ``tests/test_api_parity.py`` asserts (> 1.1x on a 10k-point
stream, bit-identical structure).

``solve()`` runs an offline solver on the maintained coreset (the
paper's end-to-end recipe) and returns a :class:`Solution` carrying full
provenance: backend name, the composed ``eps`` guarantee, coreset size,
update count and wall-clock time.

``save(path)`` / ``load(path)`` make a session durable: the backend's
full mutable state goes into a versioned snapshot file
(:mod:`repro.persist`), and a loaded session continues the stream
bit-identically to one that never stopped — the contract every
long-running streaming service and the matrix checkpointing rely on.

**Concurrency contract.** A session is thread-safe: every mutating or
state-reading operation (``insert``/``delete``/``extend``/
``delete_many``/``coreset``/``solve``/``save``/``stats``) runs under one
internal re-entrant lock, so concurrent callers serialize at operation
granularity — each batch is applied atomically and the accounting stays
exact.  What interleaved callers get is equivalent to *some* serial
order of their operations; for order-insensitive backends (the linear
dynamic sketches) that serial order is irrelevant and the final state is
bit-identical to any serial run of the same multiset
(``tests/test_api_threadsafety.py``).  The lock does not make multiple
*sessions* coordinate — that is the job of :mod:`repro.serve`'s session
manager.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.greedy import charikar_greedy
from ..core.metrics import get_metric
from ..core.points import WeightedPointSet
from ..core.solver import solve_kcenter_outliers
from ..persist import SnapshotError
from ..store import iter_point_chunks
from .backends import CoresetBackend, Guarantee, UnsupportedOperationError
from .registry import BackendInfo, get_backend
from .spec import ProblemSpec

__all__ = ["Solution", "KCenterSession"]

#: ``kind`` tag in session snapshot manifests.
_SNAPSHOT_KIND = "kcenter-session"

#: spec fields that older snapshots may still carry; dropped on load
_RETIRED_SPEC_KEYS = frozenset(
    {"kernel_chunk", "kernel_backend", "prune", "decision_jobs",
     "executor", "jobs", "dtype"}
)


@dataclass(frozen=True)
class Solution:
    """A k-center-with-outliers solution with provenance.

    Extends the shape of :class:`repro.core.Solution` (``centers``,
    ``radius``, ``method``) with the facade's provenance record, so a
    result can be logged, compared across backends, and audited.
    """

    centers: np.ndarray
    radius: float
    method: str
    backend: str
    spec: ProblemSpec
    eps_guarantee: float
    coreset_size: int
    updates: int
    wall_time: float
    stats: dict = field(default_factory=dict)

    @property
    def approx_factor(self) -> str:
        """The end-to-end approximation statement of the Table 1 recipe."""
        if self.method == "brute":
            return f"(1 + {self.eps_guarantee:.3g})"
        return f"3 * (1 + {self.eps_guarantee:.3g})"


class KCenterSession:
    """Spec-driven facade over any registered coreset backend.

    Parameters
    ----------
    spec:
        The validated problem instance.
    backend:
        Registry name (see :func:`repro.api.available_backends`).
    **options:
        Backend-specific options (``delta_universe``, ``window``,
        ``num_machines``, ...), forwarded to the backend factory.
    """

    def __init__(self, spec: ProblemSpec, backend: str = "insertion-only",
                 **options):
        self.spec = spec
        self.info: BackendInfo = get_backend(backend)
        self.backend: CoresetBackend = self.info.create(spec, **options)
        self._options = dict(options)  # retained for save()'s manifest
        self._updates = 0
        self._wall_time = 0.0
        # one re-entrant lock serializes every backend-touching operation
        # (see the module docstring's concurrency contract)
        self._lock = threading.RLock()

    @classmethod
    def from_spec(cls, spec: ProblemSpec, backend: str = "insertion-only",
                  **options) -> "KCenterSession":
        """Construct a session (the canonical entry point)."""
        return cls(spec, backend=backend, **options)

    # -- ingest ------------------------------------------------------------

    def _check_points(self, pts: np.ndarray) -> None:
        """Refuse a chunk no backend may see: it must be 2-D, finite and,
        when the spec fixes ``dim``, exactly that wide."""
        if pts.ndim != 2:
            raise ValueError(f"points must form an (n, d) array, got shape {pts.shape}")
        dim = self.spec.dim
        if dim is not None and pts.shape[1] != dim:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, the spec's dim is {dim}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite (no NaN or infinite coordinates)")

    def insert(self, point) -> None:
        """Insert a single point."""
        self._check_points(np.atleast_2d(np.asarray(point, dtype=float)))
        with self._lock:
            t0 = time.perf_counter()
            self.backend.insert(point)
            self._updates += 1
            self._wall_time += time.perf_counter() - t0

    def delete(self, point) -> None:
        """Delete a point (fully-dynamic backends only)."""
        delete = getattr(self.backend, "delete", None)
        if delete is None:
            raise UnsupportedOperationError(
                f"backend {self.info.name!r} does not support delete; use a "
                "fully-dynamic backend ('dynamic' or 'dynamic-deterministic')"
            )
        self._check_points(np.atleast_2d(np.asarray(point, dtype=float)))
        with self._lock:
            t0 = time.perf_counter()
            delete(point)
            self._updates += 1
            self._wall_time += time.perf_counter() - t0

    def extend(self, points, batch: "int | None" = None) -> None:
        """Batched ingest: the whole array goes to the backend in one
        call (the vectorized hot path).

        ``points`` may also be a :class:`~repro.store.PointSource` or a
        bare iterator/generator of ``(points, weights)`` chunks — the
        out-of-core path.  The session is the only chunk iterator: every
        carrier runs through one :func:`~repro.store.iter_point_chunks`
        loop (a dense array is one chunk), so backends only ever receive
        non-empty 2-D float arrays, and weighted chunks go to the
        backend's ``extend_weighted``.  Chunks are applied one at a time
        under the session lock, so the working set is one chunk while the
        batch as a whole stays atomic with respect to concurrent callers,
        and the final state is bit-identical to one monolithic ``extend``
        of the same stream (every backend's batch path is
        chunking-invariant).  ``batch`` re-chunks a :class:`PointSource`
        to that many rows; it is ignored for dense arrays and
        pre-chunked iterators.

        A chunk that is not 2-D, holds a NaN or infinite coordinate, or
        is not ``spec.dim`` wide raises :class:`ValueError` before the
        backend sees it (earlier chunks of the same call stay applied).
        """
        with self._lock:
            t0 = time.perf_counter()
            for pts, w in iter_point_chunks(points, batch):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                if not pts.size:  # no points (``[]`` reads as one 0-wide row)
                    continue
                self._check_points(pts)
                if w is None:
                    self.backend.extend(pts)
                else:
                    ew = getattr(self.backend, "extend_weighted", None)
                    if ew is None:
                        raise UnsupportedOperationError(
                            f"backend {self.info.name!r} does not accept "
                            "weighted chunks (no extend_weighted)"
                        )
                    ew(WeightedPointSet(pts, w))
                self._updates += len(pts)
            self._wall_time += time.perf_counter() - t0

    def delete_many(self, points) -> None:
        """Batched deletion (fully-dynamic backends only).

        Accounting is exact under failure: in the scalar fallback,
        ``updates_seen`` grows only by the deletions the backend actually
        applied; on the native ``delete_many`` path a failed batch counts
        zero, matching the built-in sketch backends' all-or-nothing batch
        contract (they validate the whole batch before mutating).
        Backends without any delete support raise a clear
        :class:`~repro.api.backends.UnsupportedOperationError` rather
        than an ``AttributeError``.  Points are checked as in
        :meth:`extend` before the backend sees them.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        delete_many = getattr(self.backend, "delete_many", None)
        delete = getattr(self.backend, "delete", None)
        if delete_many is None and delete is None:
            raise UnsupportedOperationError(
                f"backend {self.info.name!r} supports neither delete_many "
                "nor delete; use a fully-dynamic backend ('dynamic' or "
                "'dynamic-deterministic')"
            )
        self._check_points(pts)
        with self._lock:
            t0 = time.perf_counter()
            applied = 0
            try:
                if delete_many is not None:
                    delete_many(pts)
                    applied = len(pts)
                else:
                    for p in pts:
                        delete(p)
                        applied += 1
            finally:
                self._updates += applied
                self._wall_time += time.perf_counter() - t0

    # -- queries -----------------------------------------------------------

    def coreset(self) -> WeightedPointSet:
        """The backend's current ``(eps,k,z)``-coreset."""
        with self._lock:
            t0 = time.perf_counter()
            out = self.backend.coreset()
            self._wall_time += time.perf_counter() - t0
        return out

    def radius(self) -> float:
        """Greedy 3-approximate radius on the current coreset."""
        return self.solve(method="greedy3").radius

    def guarantee(self) -> Guarantee:
        """The backend's composed guarantee for its current output."""
        return self.backend.guarantee()

    def solve(self, method: str = "greedy3") -> Solution:
        """Run an offline solver on the maintained coreset.

        ``method="greedy3"`` (Charikar et al.) gives a
        ``3(1+eps)``-approximation; ``method="brute"`` an exact solve on
        the coreset, i.e. a ``(1+eps)``-approximation of the original
        instance (Definition 1).
        """
        with self._lock:
            t0 = time.perf_counter()
            cs = self.backend.coreset()
            spec = self.spec
            greedy_path = None
            greedy_stats = None
            if len(cs) == 0 or cs.total_weight <= spec.z:
                centers = np.zeros((0, cs.dim if len(cs) else (spec.dim or 1)))
                radius = 0.0
            elif method == "greedy3":
                res = charikar_greedy(cs, spec.k, spec.z,
                                      spec.resolved_metric)
                centers, radius = cs.points[res.centers_idx], res.radius
                greedy_path = res.path
                greedy_stats = res.stats
            else:
                sol = solve_kcenter_outliers(
                    cs, spec.k, spec.z, spec.resolved_metric, method=method
                )
                centers, radius = sol.centers, sol.radius
            self._wall_time += time.perf_counter() - t0
            stats = dict(self.backend.stats())
            # which decision path the greedy radius search took
            if greedy_path is not None:
                stats["greedy_path"] = greedy_path
            if greedy_stats:
                # the radius search's decisions on every path, plus the
                # grid path's list decisions and grid builds (JSON-safe
                # ints)
                stats["greedy_stats"] = dict(greedy_stats)
            return Solution(
                centers=centers,
                radius=float(radius),
                method=method,
                backend=self.info.name,
                spec=spec,
                eps_guarantee=self.backend.guarantee().eps,
                coreset_size=len(cs),
                updates=self._updates,
                wall_time=self._wall_time,
                stats=stats,
            )

    # -- persistence -------------------------------------------------------

    def save(self, path: str, extra: "dict | None" = None) -> str:
        """Checkpoint the session to a snapshot file.

        The snapshot (see :mod:`repro.persist`) carries the backend's
        full mutable state plus the session's provenance — spec, backend
        name, construction options, ``updates_seen`` and ``wall_time`` —
        so :meth:`load` rebuilds an exact twin.  Restoring and continuing
        the stream is bit-identical to never having stopped.

        Parameters
        ----------
        path:
            Destination file (any extension; parent dirs are created).
        extra:
            Optional JSON-serializable caller payload stored under the
            manifest's ``extra`` key (the matrix checkpoints keep their
            batch cursor there).

        Raises
        ------
        UnsupportedOperationError
            When the backend does not implement the snapshot protocol.
        SnapshotError
            When an option or the metric cannot be represented in the
            portable format (callables, custom metric instances).
        """
        snap = getattr(self.backend, "snapshot", None)
        if snap is None:
            raise UnsupportedOperationError(
                f"backend {self.info.name!r} does not implement snapshot(); "
                "it cannot be saved"
            )
        try:
            get_metric(self.spec.metric_name)
        except ValueError as exc:
            raise SnapshotError(
                f"metric {self.spec.metric_name!r} is not resolvable by "
                f"name and cannot be persisted: {exc}"
            ) from exc
        options = {}
        for key, value in self._options.items():
            if isinstance(value, np.generic):
                value = value.item()  # numpy scalars are trivially portable
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise SnapshotError(
                    f"session option {key!r} ({type(value).__name__}) is not "
                    "JSON-serializable; sessions built with callables or "
                    "instances cannot be saved"
                ) from None
            options[key] = value
        from .. import __version__
        from ..persist.format import write_snapshot

        with self._lock:
            manifest = {
                "kind": _SNAPSHOT_KIND,
                "repro_version": __version__,
                "backend": self.info.name,
                "spec": self.spec.as_dict(),
                "options": options,
                "updates": self._updates,
                "wall_time": self._wall_time,
                "extra": extra or {},
            }
            state = snap()
        return write_snapshot(path, manifest, state)

    @classmethod
    def load(cls, path: str, backend: "str | None" = None,
             spec: "ProblemSpec | None" = None,
             mmap_dir: "str | None" = None, **options) -> "KCenterSession":
        """Rebuild a session from a :meth:`save` snapshot.

        The spec and backend are reconstructed from the manifest; the
        backend is created fresh (re-deriving any seeded randomness) and
        its mutable state restored, so continuing the stream yields
        bit-identical coresets, radii and stats to the uninterrupted run.
        ``updates_seen`` and ``wall_time`` provenance carry over.

        Parameters
        ----------
        path:
            Snapshot file written by :meth:`save`.
        backend:
            Expected backend name; a mismatch with the manifest raises
            (pass ``None`` to accept whatever was saved).
        spec:
            Expected :class:`ProblemSpec`; a mismatch raises.  Spec keys
            older snapshots carry but the spec no longer has
            (``kernel_chunk``, ``kernel_backend``, ``prune``,
            ``decision_jobs``, ``executor``, ``jobs``) are dropped before
            the comparison, so they never cause a mismatch.
        mmap_dir:
            Out-of-core restore: extract the array payload here and
            memory-map large state arrays (copy-on-write, so backends
            that mutate restored arrays stay correct while untouched
            pages never enter RAM).  The extracted
            ``<snapshot>.payload.npz`` must outlive the session; the
            caller owns its cleanup.  See
            :func:`repro.persist.read_snapshot`.
        **options:
            Overrides layered over the saved construction options.
            Only *recompute-time* knobs may change on resume
            (``executor``, ``jobs``, ``num_machines``);
            geometry-defining options (``window``, ``r_min``/``r_max``,
            ``delta_universe``, sketch sizing) are part of the state's
            meaning and the backend's ``restore`` rejects a mismatch
            with :class:`SnapshotError`.

        Raises
        ------
        SnapshotError
            Unreadable file, unknown format version, kind/backend/spec
            mismatch, or state that fails the backend's validation.
        """
        from ..persist.format import read_snapshot

        manifest, state = read_snapshot(path, mmap_dir=mmap_dir,
                                        mmap_mode="c")
        if manifest.get("kind") != _SNAPSHOT_KIND:
            raise SnapshotError(
                f"{path!r} is not a KCenterSession snapshot "
                f"(kind={manifest.get('kind')!r})"
            )
        return cls.from_snapshot(manifest, state, backend=backend,
                                 spec=spec, **options)

    @classmethod
    def from_snapshot(cls, manifest: dict, state: dict,
                      backend: "str | None" = None,
                      spec: "ProblemSpec | None" = None,
                      **options) -> "KCenterSession":
        """Rebuild a session from an already-read ``(manifest, state)``
        pair (see :func:`repro.persist.read_snapshot`).

        :meth:`load` is this plus the file read; callers that inspect the
        manifest before deciding to resume (the matrix checkpoints) use
        this to avoid parsing the snapshot twice.  Same validation and
        provenance semantics as :meth:`load`.
        """
        if manifest.get("kind") != _SNAPSHOT_KIND:
            raise SnapshotError(
                f"manifest is not a KCenterSession snapshot "
                f"(kind={manifest.get('kind')!r})"
            )
        name = manifest.get("backend")
        if not isinstance(name, str):
            raise SnapshotError("snapshot manifest is missing a backend name")
        if backend is not None and backend != name:
            raise SnapshotError(
                f"snapshot holds backend {name!r}, caller expected "
                f"{backend!r}"
            )
        spec_dict = manifest.get("spec")
        if not isinstance(spec_dict, dict):
            raise SnapshotError("snapshot manifest is missing the spec dict")
        # knobs older snapshots carry.  Only the kernel precision
        # ``dtype`` ever changed a result: a snapshot that lowered it now
        # solves in exact float64
        spec_dict = {key: value for key, value in spec_dict.items()
                     if key not in _RETIRED_SPEC_KEYS}
        try:
            loaded_spec = ProblemSpec(**spec_dict)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot spec does not reconstruct: {exc}"
            ) from exc
        if spec is not None and spec.as_dict() != loaded_spec.as_dict():
            raise SnapshotError(
                f"snapshot spec {loaded_spec.as_dict()} != caller spec "
                f"{spec.as_dict()}"
            )
        opts = dict(manifest.get("options", {}))
        opts.update(options)
        sess = cls(loaded_spec, backend=name, **opts)
        restore = getattr(sess.backend, "restore", None)
        if restore is None:
            raise SnapshotError(
                f"backend {name!r} (as currently registered) does not "
                "implement restore()"
            )
        restore(state)
        sess._updates = int(manifest.get("updates", 0))
        sess._wall_time = float(manifest.get("wall_time", 0.0))
        return sess

    # -- accounting --------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend."""
        return self.info.name

    @property
    def updates_seen(self) -> int:
        """Points ingested (inserts + deletes + batched rows)."""
        return self._updates

    @property
    def wall_time(self) -> float:
        """Accumulated seconds spent inside backend calls."""
        return self._wall_time

    def stats(self) -> dict:
        """Merged provenance: spec, backend stats, session accounting.

        Session-level keys (``backend``, ``model``, ``updates``,
        ``wall_time``) are authoritative and cannot be shadowed by a
        backend's own stats.
        """
        with self._lock:
            out = dict(self.spec.as_dict())
            out.update(self.backend.stats())
            out.update({
                "backend": self.info.name,
                "model": self.info.model,
                "updates": self._updates,
                "wall_time": self._wall_time,
            })
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KCenterSession(backend={self.info.name!r}, spec={self.spec!r}, "
            f"updates={self._updates})"
        )
