"""Tests for the shared distance-kernel layer (:mod:`repro.kernels`).

Covers float64 kernel parity with SciPy across all built-in metrics,
chunk autotuning, and the :class:`repro.api.ProblemSpec` knobs (the
kernel precision knob is retired: every distance is exact float64).
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.api import ProblemSpec
from repro.core.metrics import get_metric
from repro.kernels import auto_chunk, pairwise_kernel

METRICS = ("euclidean", "chebyshev", "manhattan")
_CDIST = {"euclidean": "euclidean", "chebyshev": "chebyshev",
          "manhattan": "cityblock"}


def test_importing_the_api_leaves_scipy_spatial_unloaded():
    # pairwise_kernel imports cdist on its first call, so a process that
    # imports the library (a server, a pool worker) skips the ~0.3 s
    # scipy.spatial import until it computes a dense block
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, repro.api, repro.store; "
            "print('scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-B", "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


class TestAutoChunk:
    def test_bounds(self):
        assert 64 <= auto_chunk(10) <= 8192
        assert 64 <= auto_chunk(10**9) <= 8192


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

    def test_empty_inputs(self):
        a = np.zeros((0, 2))
        b = np.ones((4, 2))
        assert pairwise_kernel("euclidean", a, b).shape == (0, 4)
        assert pairwise_kernel("euclidean", b, a).shape == (4, 0)
        assert pairwise_kernel("euclidean", a, b).dtype == np.float64

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            pairwise_kernel("mahalanobis", np.zeros((2, 2)), np.zeros((2, 2)))


class TestSpecKnobs:
    def test_validation(self):
        # the retired kernel-precision knob is not a spec field
        with pytest.raises(TypeError):
            ProblemSpec(k=2, z=1, eps=0.5, dtype="float32")

    def test_as_dict_and_replace_roundtrip(self):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=3, seed=2)
        d = spec.as_dict()
        assert d["dim"] == 3 and d["seed"] == 2 and "dtype" not in d
        spec2 = spec.replace(dim=None)
        assert spec2.dim is None and spec2.seed == 2
