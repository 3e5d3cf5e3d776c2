"""The problem specification every algorithm in the library consumes.

The paper solves one problem — k-center with ``z`` outliers at quality
``eps`` — in five computational models.  :class:`ProblemSpec` is the
single validated carrier of those parameters: algorithms stop taking
loose positional ``(k, z, eps, ...)`` tuples and instead receive a frozen
spec, so a stream session, an MPC run and an offline solve are guaranteed
to be talking about the *same* instance.

The spec also pins the :class:`~repro.core.metrics.Metric` (resolved once,
at construction) and the random seed, which makes every facade run
reproducible: two sessions built from equal specs consume identical
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.metrics import Metric, get_metric

__all__ = ["ProblemSpec"]

#: integer fields and their lower bounds, validated in declaration order
_INT_FIELDS = (("k", 1), ("z", 0), ("seed", 0), ("dim", 1))


def _as_int(name: str, value, low: int) -> int:
    """``value`` as an exact ``int >= low``, or :class:`ValueError`.

    Integer strings (``"3"``) and integral floats (``2.0``) coerce; bools,
    fractional values (``2.9``) and non-finite values (``inf``, NaN) are
    rejected instead of being truncated or overflowing.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        exact = isinstance(value, (int, np.integer, str))
        out = int(value) if exact else float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if isinstance(out, float):
        if not (np.isfinite(out) and out.is_integer()):
            raise ValueError(f"{name} must be a finite integer, got {value!r}")
        out = int(out)
    if out < low:
        raise ValueError(f"{name} must be >= {low}, got {out}")
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """A validated ``(eps, k, z)`` problem instance description.

    Parameters
    ----------
    k:
        Number of centers (``>= 1``).
    z:
        Outlier weight budget (``>= 0``).
    eps:
        Coreset quality parameter in ``(0, 1]``.
    metric:
        Metric instance, registry name (``"euclidean"``, ``"linf"``, ...)
        or ``None`` (Euclidean).  Resolved to a
        :class:`~repro.core.metrics.Metric` instance at construction.
    seed:
        Seed for every random choice a backend makes (sketch randomness,
        random partitioning).  ``None`` means fresh OS entropy — fine for
        production, but parity/replay tooling should always set it.
    dim:
        Ambient dimension ``d`` of the point space.  Required by the
        backends whose size thresholds depend on the doubling dimension
        (streaming, sliding-window, dynamic); ``None`` is accepted for
        purely offline/MPC use.

    The integer fields (``k``, ``z``, ``seed``, ``dim``) accept ints,
    integral floats and integer strings; bools, fractions and non-finite
    values raise :class:`ValueError`.

    How a backend runs (the MPC backends' ``executor``/``jobs``, for
    instance) is a session option, not part of the problem: results are
    bit-identical under every executor.
    """

    k: int
    z: int
    eps: float
    metric: "Metric | str | None" = None
    seed: "int | None" = None
    dim: "int | None" = None
    _metric_obj: Metric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, low in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name not in ("k", "z"):
                continue
            object.__setattr__(self, name, _as_int(name, value, low))
        if not 0 < float(self.eps) <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "_metric_obj", get_metric(self.metric))

    # -- resolved views ----------------------------------------------------

    @property
    def resolved_metric(self) -> Metric:
        """The :class:`Metric` instance the spec was resolved against."""
        return self._metric_obj

    @property
    def metric_name(self) -> str:
        """Short metric identifier (``"euclidean"``, ``"chebyshev"``, ...)."""
        return self._metric_obj.name

    def require_dim(self) -> int:
        """``dim``, raising a helpful error when the spec omitted it."""
        if self.dim is None:
            raise ValueError(
                "this backend needs ProblemSpec.dim (the ambient dimension); "
                "build the spec with ProblemSpec(k, z, eps, dim=d)"
            )
        return self.dim

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A generator derived from ``seed`` (fresh entropy when unset).

        ``salt`` decorrelates independent consumers of the same spec
        (e.g. the partitioner and the sketch randomness).
        """
        if self.seed is None:
            return np.random.default_rng()
        return np.random.default_rng(self.seed + salt)

    # -- derivation --------------------------------------------------------

    def replace(self, **changes) -> "ProblemSpec":
        """A copy of the spec with the given fields replaced."""
        base = {
            "k": self.k, "z": self.z, "eps": self.eps,
            "metric": self.metric, "seed": self.seed, "dim": self.dim,
        }
        base.update(changes)
        return ProblemSpec(**base)

    def as_dict(self) -> dict:
        """Plain-dict view (used by provenance records and reports)."""
        return {
            "k": self.k,
            "z": self.z,
            "eps": self.eps,
            "metric": self.metric_name,
            "seed": self.seed,
            "dim": self.dim,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemSpec(k={self.k}, z={self.z}, eps={self.eps}, "
            f"metric={self.metric_name!r}, seed={self.seed}, dim={self.dim})"
        )

