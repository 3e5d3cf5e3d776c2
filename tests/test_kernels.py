"""Tests for the shared distance-kernel layer (:mod:`repro.kernels`).

Covers the satellite requirements of the kernels PR: float64 kernel
parity with SciPy across all built-in metrics, float32-versus-float64
tolerance bounds, chunk autotuning, workspace reuse, and the ``dtype``
knob on :class:`repro.api.ProblemSpec`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from repro.api import ProblemSpec
from repro.core.metrics import get_metric
from repro.kernels import (
    Workspace,
    auto_chunk,
    pairwise_kernel,
    resolve_dtype,
    sqnorms,
)

METRICS = ("euclidean", "chebyshev", "manhattan")
_CDIST = {"euclidean": "euclidean", "chebyshev": "chebyshev",
          "manhattan": "cityblock"}


class TestResolveDtype:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.float64

    def test_names_and_dtypes(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64

    def test_rejects_others(self):
        with pytest.raises(ValueError):
            resolve_dtype("int32")
        with pytest.raises(ValueError):
            resolve_dtype("float16")


class TestAutoChunk:
    def test_bounds(self):
        assert 64 <= auto_chunk(10) <= 8192
        assert 64 <= auto_chunk(10**9) <= 8192

    def test_smaller_dtype_bigger_chunk(self):
        assert auto_chunk(100_000, dtype="float32") >= auto_chunk(
            100_000, dtype="float64"
        )


class TestFloat64Parity:
    """The float64 path must be bit-identical to SciPy's cdist — the
    pre-kernels implementation every parity test pins."""

    @pytest.mark.parametrize("name", METRICS)
    def test_matches_cdist(self, name):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(37, 3)), rng.normal(size=(23, 3))
        D = pairwise_kernel(name, a, b)
        assert D.dtype == np.float64
        np.testing.assert_array_equal(D, cdist(a, b, metric=_CDIST[name]))

    @pytest.mark.parametrize("name", METRICS)
    def test_metric_object_routes_through_kernel(self, name):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(11, 2)), rng.normal(size=(7, 2))
        m = get_metric(name)
        np.testing.assert_array_equal(
            m.pairwise(a, b), cdist(a, b, metric=_CDIST[name])
        )
        np.testing.assert_array_equal(
            m.pairwise_block(a, b, dtype="float64"),
            cdist(a, b, metric=_CDIST[name]),
        )

    def test_empty_inputs(self):
        a = np.zeros((0, 2))
        b = np.ones((4, 2))
        assert pairwise_kernel("euclidean", a, b).shape == (0, 4)
        assert pairwise_kernel("euclidean", b, a).shape == (4, 0)
        assert pairwise_kernel("euclidean", a, b, dtype="float32").dtype == np.float32

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            pairwise_kernel("mahalanobis", np.zeros((2, 2)), np.zeros((2, 2)))


class TestFloat32Tolerance:
    """float32 kernels agree with float64 within documented bounds."""

    @pytest.mark.parametrize("name", METRICS)
    def test_relative_error_bound(self, name):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(64, 4)) * 10
        b = rng.normal(size=(48, 4)) * 10
        D64 = pairwise_kernel(name, a, b)
        D32 = pairwise_kernel(name, a, b, dtype="float32")
        assert D32.dtype == np.float32
        scale = max(1.0, D64.max())
        assert np.abs(D32.astype(np.float64) - D64).max() <= 1e-4 * scale

    @given(
        st.integers(0, 2**31),
        st.sampled_from(METRICS),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_float32_close(self, seed, name, d):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(20, d)) * rng.choice([0.01, 1.0, 100.0])
        b = rng.normal(size=(15, d)) * rng.choice([0.01, 1.0, 100.0])
        D64 = pairwise_kernel(name, a, b)
        D32 = pairwise_kernel(name, a, b, dtype="float32")
        scale = max(1.0, float(D64.max()))
        # euclidean-f32 goes through the GEMM formulation, whose error is
        # relative to the coordinate scale, not the distance scale
        scale = max(scale, float(np.abs(a).max()), float(np.abs(b).max()))
        np.testing.assert_allclose(
            D32.astype(np.float64), D64, atol=2e-4 * scale, rtol=1e-4
        )

    def test_euclidean_f32_nonnegative_on_duplicates(self):
        # the GEMM formulation must clamp tiny negative squared distances;
        # its absolute error near zero scales with sqrt(eps32) times the
        # coordinate norm (catastrophic cancellation of |a|^2 + |b|^2 - 2ab)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 3)) * 1000
        a = np.vstack([a, a])
        D = pairwise_kernel("euclidean", a, a, dtype="float32")
        assert (D >= 0).all()
        assert float(np.diag(D).max()) <= 1e-3 * float(np.abs(a).max())


class TestWorkspace:
    def test_buffer_reuse_and_growth(self):
        ws = Workspace()
        b1 = ws.buffer("t", (4, 4), np.float64)
        b2 = ws.buffer("t", (2, 8), np.float64)
        assert b1.base is b2.base  # same backing allocation, re-viewed
        b3 = ws.buffer("t", (100, 100), np.float64)
        assert b3.shape == (100, 100)

    def test_buffer_distinct_tags_and_dtypes(self):
        ws = Workspace()
        a = ws.buffer("x", (4,), np.float64)
        b = ws.buffer("y", (4,), np.float64)
        c = ws.buffer("x", (4,), np.float32)
        assert a.base is not b.base and a.dtype != c.dtype

    def test_sqnorms_cached_by_identity(self):
        ws = Workspace()
        x = np.random.default_rng(4).normal(size=(10, 3))
        n1 = ws.sqnorms(x)
        n2 = ws.sqnorms(x)
        assert n1 is n2
        np.testing.assert_allclose(n1, sqnorms(x))
        y = x.copy()
        assert ws.sqnorms(y) is not n1


class TestSpecKnobs:
    def test_defaults(self):
        spec = ProblemSpec(k=2, z=1, eps=0.5)
        assert spec.dtype is None

    def test_normalization(self):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dtype=np.float32)
        assert spec.dtype == "float32"

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(k=2, z=1, eps=0.5, dtype="int8")

    def test_as_dict_and_replace_roundtrip(self):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dtype="float32", seed=2)
        d = spec.as_dict()
        assert d["dtype"] == "float32" and d["seed"] == 2
        spec2 = spec.replace(dtype=None)
        assert spec2.dtype is None and spec2.seed == 2

    def test_float32_solve_close_to_float64(self):
        from repro.core import WeightedPointSet, charikar_greedy

        rng = np.random.default_rng(5)
        P = WeightedPointSet(rng.random((300, 2)) * 10, rng.integers(1, 4, 300))
        r64 = charikar_greedy(P, 3, 5).radius
        r32 = charikar_greedy(P, 3, 5, dtype="float32").radius
        assert r32 == pytest.approx(r64, rel=1e-3)
        # and through the geometric path
        g64 = charikar_greedy(P, 3, 5, pairwise_limit=64).radius
        g32 = charikar_greedy(P, 3, 5, pairwise_limit=64, dtype="float32").radius
        assert g32 == pytest.approx(g64, rel=1e-3)
