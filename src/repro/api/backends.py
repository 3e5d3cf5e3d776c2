"""The common backend protocol and the built-in backend adapters.

The paper's thesis is that one object — the ``(eps, k, z)``-mini-ball-
covering coreset — underlies every computational model it studies.  This
module makes that concrete in code: every coreset algorithm in the
library (offline, insertion-only streaming, fully dynamic, sliding
window, and the three MPC algorithms plus prior-work baselines) is
wrapped in a :class:`CoresetBackend` with the same five operations

    ``insert / delete / extend / coreset() / guarantee()``

and self-registered in :mod:`repro.api.registry` under a stable name.
:class:`~repro.api.session.KCenterSession` drives any of them
interchangeably.

Batch discipline: ``extend(array)`` is the hot path.  The session is
the only chunk iterator: it turns every carrier (dense array,
:class:`~repro.store.PointSource`, chunk iterator) into non-empty dense
2-D float arrays, so ``extend`` never sees a chunked input.  Adapters
forward to the wrapped structure's vectorized batch entry point where
one exists (one metric-matrix / cell-id evaluation per batch) and buffer
whole arrays where the algorithm is inherently offline, so per-point
Python loops never appear on the facade's ingest path.

Adapters whose whole state is a wrapped ``algo`` structure derive from
one delegating base; buffered (offline and MPC) adapters derive from
another.  Operations a backend lacks are absent rather than stubbed:
the session probes with ``getattr``, and a backend is checkpointable
exactly when ``snapshot`` and ``restore`` are both callable.

Import cost: this module registers every backend's metadata but imports
no algorithm beyond the offline one.  Each adapter imports its own
family (``repro.streaming.*``, with ``repro.sketches`` for the dynamic
ones; ``repro.mpc.*`` with ``repro.engine``) when it is built, so
``import repro.api`` does not pay for the models a process never uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..core.mbc import MiniBallCovering, compose_errors, mbc_construction
from ..core.points import WeightedPointSet
from .registry import register_backend
from .spec import ProblemSpec, _as_int

if TYPE_CHECKING:
    from ..mpc.result import MPCCoresetResult
    from ..streaming.insertion_only import InsertionOnlyCoreset

__all__ = [
    "Guarantee",
    "UnsupportedOperationError",
    "CoresetBackend",
    "OfflineMBCBackend",
    "InsertionOnlyBackend",
    "CeccarelloStreamBackend",
    "DynamicBackend",
    "DeterministicDynamicBackend",
    "SlidingWindowBackend",
    "MPCBackend",
    "TwoRoundMPCBackend",
    "OneRoundMPCBackend",
    "MultiRoundMPCBackend",
    "CPPDeterministicMPCBackend",
    "CPPRandomizedMPCBackend",
]


class UnsupportedOperationError(NotImplementedError):
    """An operation the backend's computational model does not offer
    (e.g. ``delete`` on an insertion-only stream)."""


@dataclass(frozen=True)
class Guarantee:
    """What the backend's ``coreset()`` provably is.

    Attributes
    ----------
    eps:
        The composed error: the output is an ``(eps, k, z)``-coreset of
        the ingested input (whp for randomized backends).
    model:
        Computational model the guarantee holds in.
    space:
        Asymptotic storage statement from the paper's Table 1.
    note:
        Caveats (distribution assumptions, relaxed coresets, ...).
    """

    eps: float
    model: str
    space: str = ""
    note: str = ""


@runtime_checkable
class CoresetBackend(Protocol):
    """Structural protocol every registered backend satisfies."""

    spec: ProblemSpec

    def insert(self, point) -> None:
        """Insert a single point."""

    def delete(self, point) -> None:
        """Delete a point (fully-dynamic models only)."""

    def extend(self, points) -> None:
        """Batched ingest of a non-empty dense ``(n, d)`` float array;
        the session splits chunked carriers before calling this."""

    def coreset(self) -> WeightedPointSet:
        """The current ``(eps, k, z)``-coreset."""

    def guarantee(self) -> Guarantee:
        """The composed guarantee for the current output."""

    def stats(self) -> dict:
        """Backend-specific diagnostics (sizes, thresholds, sketch
        cells); may be empty.  Required: ``KCenterSession.solve`` and
        the scenario matrix read it."""


class _BackendBase:
    """Shared plumbing: spec storage, the ``delete`` refusal and empty
    stats.  Any other operation a backend lacks is absent, and the
    session's ``getattr`` probes report it."""

    def __init__(self, spec: ProblemSpec):
        if not isinstance(spec, ProblemSpec):
            raise TypeError(f"spec must be a ProblemSpec, got {type(spec).__name__}")
        self.spec = spec

    def delete(self, point) -> None:
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support deletions; use a "
            "fully-dynamic backend ('dynamic' or 'dynamic-deterministic')"
        )

    def stats(self) -> dict:
        """Backend-specific diagnostics (sizes, thresholds, sketch cells)."""
        return {}


class _AlgoBackend(_BackendBase):
    """Adapter whose entire mutable state lives in the wrapped
    ``self.algo`` structure: ingest, queries and checkpoints delegate to
    it, and ``extend`` reaches its vectorized batch path."""

    algo: object

    def insert(self, point) -> None:
        self.algo.insert(point)

    def extend(self, points) -> None:
        self.algo.extend(points)

    def coreset(self) -> WeightedPointSet:
        return self.algo.coreset()

    def snapshot(self) -> dict:
        return self.algo.snapshot()

    def restore(self, state: dict) -> None:
        self.algo.restore(state)


class _DynamicAlgoBackend(_AlgoBackend):
    """:class:`_AlgoBackend` over a fully dynamic sketch structure, which
    also takes single and batched deletions."""

    def delete(self, point) -> None:
        self.algo.delete(point)

    def delete_many(self, points) -> None:
        self.algo.delete_many(points)


def _optional_int(name: str, value) -> "int | None":
    """``None`` or ``value`` as an exact ``int >= 1`` (see ``_as_int``)."""
    return None if value is None else _as_int(name, value, 1)


def _finite(name: str, value) -> float:
    """``value`` as a finite float (bools rejected), or :class:`ValueError`."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = np.nan
    if isinstance(value, (bool, np.bool_)) or not np.isfinite(out):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return out


class _BufferedBackendBase(_BackendBase):
    """Shared plumbing for batch backends that buffer raw input and run
    their algorithm at ``coreset()`` time (offline MBC, the MPC round
    protocols).  Subclasses override :meth:`_invalidate` to drop their
    cached result when the buffer changes."""

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        self._chunks: "list[np.ndarray]" = []
        self._weights: "list[np.ndarray]" = []

    def _invalidate(self) -> None:
        """Called whenever the buffered input changes."""

    def insert(self, point) -> None:
        self.extend(np.asarray(point, dtype=float).reshape(1, -1))

    def extend(self, points) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(pts) == 0:
            return
        self._chunks.append(pts)
        self._weights.append(np.ones(len(pts), dtype=np.int64))
        self._invalidate()

    def extend_weighted(self, wps: WeightedPointSet) -> None:
        """Ingest an already-weighted point set (coreset hand-off)."""
        if len(wps) == 0:
            return
        self._chunks.append(np.asarray(wps.points, dtype=float))
        self._weights.append(np.asarray(wps.weights, dtype=np.int64))
        self._invalidate()

    def point_set(self) -> WeightedPointSet:
        """The buffered input as one weighted point set."""
        if not self._chunks:
            return WeightedPointSet.empty(self.spec.dim or 1)
        return WeightedPointSet(
            np.concatenate(self._chunks, axis=0),
            np.concatenate(self._weights),
        )

    @property
    def buffered(self) -> int:
        """Number of buffered input rows."""
        return int(sum(len(c) for c in self._chunks))

    def snapshot(self) -> dict:
        """The buffered input (chunk boundaries are not state: every
        consumer concatenates, so one chunk restores equivalently).
        Cached protocol results are recomputed on demand — deterministic
        given the spec's seed."""
        if self._chunks:
            pts = np.concatenate(self._chunks, axis=0)
            w = np.concatenate(self._weights)
        else:
            pts = np.zeros((0, self.spec.dim or 1))
            w = np.zeros(0, dtype=np.int64)
        return {"points": pts, "weights": w}

    def restore(self, state: dict) -> None:
        """Replace the buffer with a :meth:`snapshot`'s contents."""
        from ..persist import SnapshotError

        pts = np.asarray(state["points"], dtype=float)
        w = np.asarray(state["weights"], dtype=np.int64)
        if pts.ndim != 2 or w.shape != (len(pts),):
            raise SnapshotError(
                f"buffered snapshot arrays inconsistent: points {pts.shape}, "
                f"weights {w.shape}"
            )
        if not np.isfinite(pts).all():
            raise SnapshotError("buffered snapshot holds a non-finite point")
        self._chunks = [pts] if len(pts) else []
        self._weights = [w] if len(pts) else []
        self._invalidate()


# ---------------------------------------------------------------------------
# Offline (Algorithm 1)
# ---------------------------------------------------------------------------


@register_backend(
    "offline",
    model="offline",
    algorithm="Algorithm 1, MBCConstruction (Lemma 7)",
    guarantee="(eps,k,z)-coreset of size k*(12/eps)^d + z",
)
class OfflineMBCBackend(_BufferedBackendBase):
    """Buffers the input and runs ``MBCConstruction`` at query time.

    The buffered points are the ground truth; ``last_mbc`` retains the
    full :class:`MiniBallCovering` (with its assignment) from the most
    recent ``coreset()`` call so callers can verify the covering
    properties.
    """

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec)
        self.last_mbc: "MiniBallCovering | None" = None

    def _invalidate(self) -> None:
        self.last_mbc = None

    def coreset(self) -> WeightedPointSet:
        """Run ``MBCConstruction`` on the buffer (cached until it changes)."""
        if self.last_mbc is not None:  # buffer unchanged since last query
            return self.last_mbc.coreset
        P = self.point_set()
        if len(P) == 0:
            return P
        self.last_mbc = mbc_construction(
            P, self.spec.k, self.spec.z, self.spec.eps, self.spec.resolved_metric,
        )
        return self.last_mbc.coreset

    def guarantee(self) -> Guarantee:
        """Lemma 7: an ``(eps,k,z)``-coreset of the buffered input."""
        return Guarantee(
            eps=self.spec.eps,
            model="offline",
            space="k*(12/eps)^d + z (Lemma 7)",
        )

    def stats(self) -> dict:
        """Buffered rows and the size of the last coreset."""
        return {
            "buffered": self.buffered,
            "coreset": self.last_mbc.size if self.last_mbc else None,
        }


# ---------------------------------------------------------------------------
# Insertion-only streaming (Algorithm 3) and the CPP19 baseline
# ---------------------------------------------------------------------------


class _StreamingBackendBase(_AlgoBackend):
    """Common adapter over the Algorithm-3-shaped streaming structures."""

    algo: InsertionOnlyCoreset

    def stats(self) -> dict:
        return {
            "stored": self.algo.size,
            "threshold": self.algo.threshold,
            "r": self.algo.r,
            "doublings": self.algo.doublings,
        }


@register_backend(
    "insertion-only",
    model="insertion-only",
    algorithm="Algorithm 3 (Theorem 18)",
    guarantee="(eps,k,z)-coreset, O(k/eps^d + z) space (optimal)",
)
class InsertionOnlyBackend(_StreamingBackendBase):
    """The paper's space-optimal insertion-only streaming coreset."""

    def __init__(self, spec: ProblemSpec, size_cap: "int | None" = None):
        from ..streaming.insertion_only import InsertionOnlyCoreset

        super().__init__(spec)
        self.algo = InsertionOnlyCoreset(
            spec.k, spec.z, spec.eps, spec.require_dim(),
            metric=spec.resolved_metric,
            size_cap=_optional_int("size_cap", size_cap),
        )

    def guarantee(self) -> Guarantee:
        """Theorem 18: optimal ``O(k/eps^d + z)`` streaming space."""
        return Guarantee(
            eps=self.spec.eps,
            model="insertion-only",
            space="k*(16/eps)^d + z (Theorem 18)",
        )


@register_backend(
    "ceccarello-stream",
    model="insertion-only",
    algorithm="CPP19 streaming baseline (Table 1 row 6)",
    guarantee="(eps,k,z)-coreset, O((k+z)/eps^d) space",
)
class CeccarelloStreamBackend(_StreamingBackendBase):
    """Prior-work baseline whose storage pays 1/eps^d on the z term."""

    def __init__(self, spec: ProblemSpec):
        from ..streaming.baseline_ceccarello import CeccarelloStreamingCoreset

        super().__init__(spec)
        self.algo = CeccarelloStreamingCoreset(
            spec.k, spec.z, spec.eps, spec.require_dim(),
            metric=spec.resolved_metric,
        )

    def guarantee(self) -> Guarantee:
        """CPP19 baseline: ``1/eps^d`` paid on the z term too."""
        return Guarantee(
            eps=self.spec.eps,
            model="insertion-only",
            space="(k+z)*(16/eps)^d (CPP19)",
        )


# ---------------------------------------------------------------------------
# Fully dynamic (Algorithm 5 and the deterministic variant)
# ---------------------------------------------------------------------------


@register_backend(
    "dynamic",
    model="fully-dynamic",
    algorithm="Algorithm 5 (Theorem 21)",
    guarantee="relaxed (eps,k,z)-coreset whp, O((k/eps^d+z) polylog) space",
    supports_delete=True,
    deterministic=False,
)
class DynamicBackend(_DynamicAlgoBackend):
    """Sketch-based fully dynamic coreset over ``[Delta]^d``.

    Options
    -------
    delta_universe:
        Universe size ``Delta`` (coordinates are integers in
        ``1..Delta``).  Required.
    failure, use_f0, s_override:
        Forwarded to :class:`DynamicCoreset`.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        delta_universe: "int | None" = None,
        failure: float = 0.05,
        use_f0: bool = True,
        s_override: "int | None" = None,
    ):
        from ..streaming.dynamic import DynamicCoreset

        super().__init__(spec)
        if delta_universe is None:
            raise ValueError(
                "the 'dynamic' backend needs delta_universe (the integer "
                "universe size); pass it as a session option"
            )
        failure = _finite("failure", failure)
        if not 0 < failure < 1:
            raise ValueError(f"failure must be in (0, 1), got {failure}")
        self.algo = DynamicCoreset(
            spec.k, spec.z, spec.eps, _as_int("delta_universe", delta_universe, 2),
            spec.require_dim(), failure=failure, rng=spec.rng(), use_f0=use_f0,
            s_override=_optional_int("s_override", s_override),
        )

    def guarantee(self) -> Guarantee:
        """Theorem 21: relaxed coreset whp, polylog sketch cells."""
        return Guarantee(
            eps=self.spec.eps,
            model="fully-dynamic",
            space="O((k/eps^d + z) log^4(k Delta / eps delta)) (Theorem 21)",
            note="relaxed coreset; holds with high probability",
        )

    def stats(self) -> dict:
        """Sketch-cell storage and update accounting."""
        return {
            "storage_cells": self.algo.storage_cells,
            "sketch_updates": self.algo.updates_seen,
            "levels": self.algo.hier.num_levels,
        }


@register_backend(
    "dynamic-deterministic",
    model="fully-dynamic",
    algorithm="§5 deterministic variant (Vandermonde sketches)",
    guarantee="relaxed (eps,k,z)-coreset, O((k/eps^d+z) log Delta) space",
    supports_delete=True,
)
class DeterministicDynamicBackend(_DynamicAlgoBackend):
    """Deterministic fully dynamic coreset (no randomness anywhere).

    Options: ``delta_universe`` (required), ``check``, ``s_override``.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        delta_universe: "int | None" = None,
        check: int = 4,
        s_override: "int | None" = None,
    ):
        from ..streaming.dynamic_deterministic import (
            DeterministicDynamicCoreset,
        )

        super().__init__(spec)
        if delta_universe is None:
            raise ValueError(
                "the 'dynamic-deterministic' backend needs delta_universe; "
                "pass it as a session option"
            )
        self.algo = DeterministicDynamicCoreset(
            spec.k, spec.z, spec.eps, _as_int("delta_universe", delta_universe, 2),
            spec.require_dim(), check=_as_int("check", check, 0),
            s_override=_optional_int("s_override", s_override),
        )

    def guarantee(self) -> Guarantee:
        """Deterministic relaxed coreset, ``O(... log Delta)`` elements."""
        return Guarantee(
            eps=self.spec.eps,
            model="fully-dynamic",
            space="O((k/eps^d + z) log Delta) field elements",
            note="deterministic; sparsity test is the decoder consistency check",
        )

    def stats(self) -> dict:
        """Sketch-cell storage and update accounting."""
        return {
            "storage_cells": self.algo.storage_cells,
            "sketch_updates": self.algo.updates_seen,
        }


# ---------------------------------------------------------------------------
# Sliding window (DBMZ substrate, §6)
# ---------------------------------------------------------------------------


@register_backend(
    "sliding-window",
    model="sliding-window",
    algorithm="DBMZ (ESA 2021) substrate; optimal by Theorem 30",
    guarantee="window coreset, O((kz/eps^d) log sigma) space",
)
class SlidingWindowBackend(_AlgoBackend):
    """Per-radius-guess covers of the last ``W`` arrivals.

    Options
    -------
    window:
        Window length ``W`` in arrivals.  Required.
    r_min, r_max:
        Distance-scale bounds of the guess ladder.  Required.
    ladder_ratio, capacity:
        Forwarded to :class:`SlidingWindowCoreset`.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        window: "int | None" = None,
        r_min: "float | None" = None,
        r_max: "float | None" = None,
        ladder_ratio: float = 2.0,
        capacity: "int | None" = None,
    ):
        from ..streaming.sliding_window import SlidingWindowCoreset

        super().__init__(spec)
        if window is None or r_min is None or r_max is None:
            raise ValueError(
                "the 'sliding-window' backend needs window, r_min and r_max; "
                "pass them as session options"
            )
        self.algo = SlidingWindowCoreset(
            spec.k, spec.z, spec.eps, spec.require_dim(),
            _as_int("window", window, 1),
            r_min=_finite("r_min", r_min), r_max=_finite("r_max", r_max),
            metric=spec.resolved_metric, ladder_ratio=ladder_ratio,
            capacity=_optional_int("capacity", capacity),
        )

    def guarantee(self) -> Guarantee:
        """Theorem 30: optimal sliding-window space."""
        return Guarantee(
            eps=self.spec.eps,
            model="sliding-window",
            space="O((k z / eps^d) log sigma) (optimal, Theorem 30)",
            note="coreset of the current window only",
        )

    def stats(self) -> dict:
        """Ladder storage, guess count and the current clock."""
        return {
            "stored": self.algo.stored_items,
            "guesses": self.algo.num_guesses,
            "now": self.algo.now,
        }


# ---------------------------------------------------------------------------
# MPC (Algorithms 2, 6, 7 and the CPP19 baselines)
# ---------------------------------------------------------------------------


class MPCBackend(_BufferedBackendBase):
    """Shared machinery for the simulated-MPC backends.

    Points are buffered locally (the facade plays the role of the data
    source); ``coreset()`` partitions them over ``m`` machines and runs
    the round protocol, retaining the full :class:`MPCCoresetResult`
    (round/storage/communication accounting) as ``last_result``.

    Options
    -------
    num_machines:
        ``m``; ``None`` uses the paper's ``O(sqrt(n eps^d / k))``
        recommendation at query time.
    partition:
        ``"contiguous"`` (arbitrary/adversarial order), ``"random"``
        (the randomized algorithms' input model), or a callable
        ``P -> list[WeightedPointSet]`` for custom distributions.
    executor, jobs:
        How machine-local work fans out (see :mod:`repro.engine`):
        executor name or instance plus worker count.  ``jobs`` alone
        means a thread pool, neither means serial.  Results are
        bit-identical under every executor.

    Bad options raise :class:`ValueError` here, not at the first query.
    """

    #: default partition scheme; deterministic algorithms tolerate any
    default_partition = "contiguous"

    def __init__(
        self,
        spec: ProblemSpec,
        num_machines: "int | None" = None,
        partition=None,
        executor=None,
        jobs: "int | None" = None,
    ):
        from ..engine import get_executor

        super().__init__(spec)
        if num_machines is not None:
            num_machines = _as_int("num_machines", num_machines, 1)
        self.num_machines = num_machines
        self.partition = partition if partition is not None else self.default_partition
        if not (callable(self.partition)
                or self.partition in ("contiguous", "random")):
            raise ValueError(
                f"unknown partition scheme {self.partition!r}; use "
                "'contiguous', 'random', or a callable"
            )
        if executor is None and jobs is not None:
            executor = "thread"
        self.executor = get_executor(executor, jobs)
        self.last_result: "MPCCoresetResult | None" = None
        #: keyword options the subclass forwards to its protocol
        self._options: dict = {}
        self._protocol()  # the MPC family loads with its first session

    @staticmethod
    def _protocol():
        """The round protocol, imported when called: ``(parts, k, z,
        eps, metric=, executor=, **options) -> MPCCoresetResult``."""
        raise NotImplementedError

    def _invalidate(self) -> None:
        self.last_result = None

    def _partition(self, P: WeightedPointSet) -> "list[WeightedPointSet]":
        from ..mpc.partition import (
            partition_contiguous,
            partition_random,
            recommended_num_machines,
        )

        if callable(self.partition):
            return self.partition(P)
        m = self.num_machines
        if m is None:
            d = self.spec.dim if self.spec.dim is not None else P.dim
            m = recommended_num_machines(
                len(P), self.spec.k, self.spec.z, self.spec.eps, d
            )
        if self.partition == "contiguous":
            return partition_contiguous(P, m)
        return partition_random(P, m, self.spec.rng(salt=1))

    def coreset(self) -> WeightedPointSet:
        """Partition the buffer and run the round protocol (cached)."""
        if self.last_result is not None:  # buffer unchanged since last query
            return self.last_result.coreset
        P = self.point_set()
        if len(P) == 0:
            return P
        self.last_result = self._protocol()(
            self._partition(P), self.spec.k, self.spec.z, self.spec.eps,
            metric=self.spec.resolved_metric, executor=self.executor,
            **self._options,
        )
        return self.last_result.coreset

    def stats(self) -> dict:
        """Round/storage accounting of the last protocol run."""
        out = {"buffered": self.buffered}
        if self.last_result is not None:
            s = self.last_result.stats
            out.update({
                "rounds": s.rounds,
                "coordinator_peak": s.coordinator_peak,
                "worker_peak": s.worker_peak,
                "coreset": len(self.last_result.coreset),
            })
        return out


@register_backend(
    "mpc-two-round",
    model="mpc",
    algorithm="Algorithm 2 (Theorem 10)",
    guarantee="(3eps,k,z)-coreset in 2 rounds, arbitrary distribution",
)
class TwoRoundMPCBackend(MPCBackend):
    """Deterministic 2-round algorithm with outlier guessing."""

    def __init__(self, spec, num_machines=None, partition=None,
                 final_compress: bool = True,
                 outlier_guessing: "bool | None" = None,
                 executor=None, jobs: "int | None" = None):
        super().__init__(spec, num_machines, partition, executor, jobs)
        self.final_compress = bool(final_compress)
        self._options = {"final_compress": self.final_compress}
        # unset keeps two_round_coreset's own default (guessing on), so
        # the budget rule has one default, not a copy here
        if outlier_guessing is not None:
            self._options["outlier_guessing"] = bool(outlier_guessing)

    @staticmethod
    def _protocol():
        from ..mpc.two_round import two_round_coreset

        return two_round_coreset

    def guarantee(self) -> Guarantee:
        """Theorem 10: deterministic 2-round ``(3eps,k,z)``-coreset."""
        eps = self.spec.eps
        return Guarantee(
            eps=compose_errors(eps, eps) if self.final_compress else eps,
            model="mpc",
            space="O(sqrt(nk/eps^d) + k/eps^d + z) per machine (Theorem 10)",
            note="deterministic; any input distribution",
        )


@register_backend(
    "mpc-one-round",
    model="mpc",
    algorithm="Algorithm 6 (Theorem 33)",
    guarantee="(3eps,k,z)-coreset whp in 1 round, random distribution",
    deterministic=False,
)
class OneRoundMPCBackend(MPCBackend):
    """Randomized 1-round algorithm (random-distribution assumption)."""

    default_partition = "random"

    def __init__(self, spec, num_machines=None, partition=None,
                 final_compress: bool = True, executor=None,
                 jobs: "int | None" = None):
        super().__init__(spec, num_machines, partition, executor, jobs)
        self.final_compress = bool(final_compress)
        self._options = {"final_compress": self.final_compress}

    @staticmethod
    def _protocol():
        from ..mpc.one_round import one_round_coreset

        return one_round_coreset

    def guarantee(self) -> Guarantee:
        """Theorem 33: 1-round whp coreset under random distribution."""
        eps = self.spec.eps
        return Guarantee(
            eps=compose_errors(eps, eps) if self.final_compress else eps,
            model="mpc",
            space="O(sqrt(nk/eps^d) + k/eps^d + z) per machine (Theorem 33)",
            note="requires randomly distributed input; holds whp",
        )


@register_backend(
    "mpc-multi-round",
    model="mpc",
    algorithm="Algorithm 7 (Theorem 35)",
    guarantee="((1+eps)^R - 1, k, z)-coreset in R rounds",
)
class MultiRoundMPCBackend(MPCBackend):
    """Deterministic R-round reduction tree (rounds/storage trade-off)."""

    def __init__(self, spec, num_machines=None, partition=None,
                 rounds: int = 2, executor=None, jobs: "int | None" = None):
        super().__init__(spec, num_machines, partition, executor, jobs)
        self.rounds = _as_int("rounds", rounds, 1)
        self._options = {"rounds": self.rounds}

    @staticmethod
    def _protocol():
        from ..mpc.multi_round import multi_round_coreset

        return multi_round_coreset

    def guarantee(self) -> Guarantee:
        """Theorem 35: ``((1+eps)^R - 1)`` error in ``R`` rounds."""
        return Guarantee(
            eps=(1.0 + self.spec.eps) ** self.rounds - 1.0,
            model="mpc",
            space="O(m^(1/R) * (k/eps^d + z)) per machine (Theorem 35)",
            note=f"R={self.rounds} rounds; deterministic",
        )


@register_backend(
    "cpp-mpc-deterministic",
    model="mpc",
    algorithm="CPP19 deterministic 1-round (Table 1 row 3)",
    guarantee="(eps,k,z)-coreset; every machine budgets the full z",
)
class CPPDeterministicMPCBackend(MPCBackend):
    """Prior-work deterministic baseline (no outlier guessing)."""

    @staticmethod
    def _protocol():
        from ..mpc.baselines import ceccarello_one_round_deterministic

        return ceccarello_one_round_deterministic

    def guarantee(self) -> Guarantee:
        """CPP19 deterministic baseline guarantee."""
        return Guarantee(
            eps=self.spec.eps,
            model="mpc",
            space="O((k+z)/eps^d) per machine (CPP19)",
            note="deterministic baseline; z budget on every machine",
        )


@register_backend(
    "cpp-mpc-randomized",
    model="mpc",
    algorithm="CPP19 randomized 1-round (Table 1 row 1)",
    guarantee="(eps,k,z)-coreset whp, random distribution",
    deterministic=False,
)
class CPPRandomizedMPCBackend(MPCBackend):
    """Prior-work randomized baseline (random-distribution budgets)."""

    default_partition = "random"

    @staticmethod
    def _protocol():
        from ..mpc.baselines import ceccarello_one_round_randomized

        return ceccarello_one_round_randomized

    def guarantee(self) -> Guarantee:
        """CPP19 randomized baseline guarantee (whp)."""
        return Guarantee(
            eps=self.spec.eps,
            model="mpc",
            space="O((k + z/m + log n)/eps^d) per machine (CPP19)",
            note="requires randomly distributed input; holds whp",
        )
