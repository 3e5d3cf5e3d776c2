"""Facade unit tests: ProblemSpec validation, registry error handling,
session behaviour and the backend protocol."""

import warnings

import numpy as np
import pytest

from repro.api import (
    CoresetBackend,
    DuplicateBackendError,
    Guarantee,
    KCenterSession,
    ProblemSpec,
    UnknownBackendError,
    UnsupportedOperationError,
    available_backends,
    backend_table,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core import ChebyshevMetric
from repro.core.mbc import compose_errors


class TestProblemSpec:
    def test_basic_construction(self):
        spec = ProblemSpec(k=3, z=10, eps=0.5, dim=2, seed=7)
        assert (spec.k, spec.z, spec.eps, spec.dim, spec.seed) == (3, 10, 0.5, 2, 7)
        assert spec.metric_name == "euclidean"

    @pytest.mark.parametrize("kwargs", [
        {"k": 0, "z": 1, "eps": 0.5},
        {"k": 1, "z": -1, "eps": 0.5},
        {"k": 1, "z": 1, "eps": 0.0},
        {"k": 1, "z": 1, "eps": 1.5},
        {"k": 1, "z": 1, "eps": 0.5, "dim": 0},
        {"k": 1, "z": 1, "eps": 0.5, "seed": -3},
        {"k": float("inf"), "z": 1, "eps": 0.5},
        {"k": 1, "z": 1, "eps": 0.5, "dim": -2},
        {"k": 1, "z": 1, "eps": 0.5, "seed": "-1"},
        # integer fields fail closed: no truncation, overflow or bools
        {"k": 1, "z": 1, "eps": 0.5, "dim": float("inf")},
        {"k": 2.9, "z": 1, "eps": 0.5},
        {"k": 1, "z": 0.5, "eps": 0.5},
        {"k": 1, "z": 1, "eps": 0.5, "seed": -0.5},
        {"k": 1, "z": 1, "eps": 0.5, "dim": float("nan")},
        {"k": True, "z": 1, "eps": 0.5},
        {"k": 1, "z": 1, "eps": 0.5, "seed": "two"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)

    def test_metric_resolution(self):
        assert ProblemSpec(1, 0, 1.0, metric="linf").metric_name == "chebyshev"
        m = ChebyshevMetric()
        assert ProblemSpec(1, 0, 1.0, metric=m).resolved_metric is m
        with pytest.raises(ValueError):
            ProblemSpec(1, 0, 1.0, metric="no-such-metric")

    def test_coercion(self):
        spec = ProblemSpec(k="3", z=2.0, eps="0.5", dim=2.0)
        assert spec.k == 3 and isinstance(spec.k, int)
        assert spec.z == 2 and isinstance(spec.z, int)
        assert spec.eps == 0.5 and isinstance(spec.eps, float)

    def test_replace(self):
        spec = ProblemSpec(k=3, z=10, eps=0.5, dim=2, seed=7)
        spec2 = spec.replace(eps=0.25)
        assert spec2.eps == 0.25 and spec2.k == 3 and spec.eps == 0.5

    def test_require_dim(self):
        with pytest.raises(ValueError, match="dim"):
            ProblemSpec(1, 0, 1.0).require_dim()
        assert ProblemSpec(1, 0, 1.0, dim=4).require_dim() == 4

    def test_rng_reproducible_and_salted(self):
        spec = ProblemSpec(1, 0, 1.0, seed=5)
        a, b = spec.rng(), spec.rng()
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)
        assert spec.rng().integers(0, 1 << 30) != spec.rng(salt=1).integers(0, 1 << 30)

    def test_as_dict(self):
        d = ProblemSpec(2, 3, 0.5, dim=1, seed=0).as_dict()
        assert d == {"k": 2, "z": 3, "eps": 0.5, "metric": "euclidean",
                     "seed": 0, "dim": 1}


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_backends()
        assert len(names) >= 8
        for expected in [
            "offline", "insertion-only", "ceccarello-stream", "dynamic",
            "dynamic-deterministic", "sliding-window", "mpc-one-round",
            "mpc-two-round", "mpc-multi-round", "cpp-mpc-deterministic",
            "cpp-mpc-randomized",
        ]:
            assert expected in names

    def test_unknown_backend(self):
        with pytest.raises(UnknownBackendError, match="no-such"):
            get_backend("no-such")
        # the error is discoverable: it lists the registered names
        with pytest.raises(UnknownBackendError, match="insertion-only"):
            get_backend("no-such")

    def test_unknown_backend_via_session(self):
        with pytest.raises(UnknownBackendError):
            KCenterSession(ProblemSpec(1, 0, 1.0, dim=1), backend="typo")

    def test_duplicate_registration(self):
        def factory(spec):
            raise AssertionError("never constructed")

        register_backend("test-dup-backend", factory)
        try:
            with pytest.raises(DuplicateBackendError, match="test-dup-backend"):
                register_backend("test-dup-backend", factory)
            # explicit overwrite is allowed
            register_backend("test-dup-backend", factory, overwrite=True)
        finally:
            unregister_backend("test-dup-backend")
        with pytest.raises(UnknownBackendError):
            get_backend("test-dup-backend")

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            register_backend("", lambda spec: None)

    def test_model_filter_and_table(self):
        assert set(available_backends(model="mpc")) >= {
            "mpc-one-round", "mpc-two-round", "mpc-multi-round",
        }
        table = backend_table()
        assert [i.name for i in table] == available_backends()
        info = get_backend("insertion-only")
        assert "Algorithm 3" in info.algorithm
        assert not info.supports_delete
        assert get_backend("dynamic").supports_delete

    def test_decorator_form(self):
        @register_backend("test-decorated", model="offline")
        class Dummy:
            def __init__(self, spec):
                self.spec = spec

        try:
            assert get_backend("test-decorated").factory is Dummy
        finally:
            unregister_backend("test-decorated")


class TestSession:
    @pytest.fixture
    def spec(self):
        return ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)

    @pytest.fixture
    def points(self):
        rng = np.random.default_rng(3)
        return np.concatenate([
            rng.normal((0, 0), 0.3, (60, 2)),
            rng.normal((9, 9), 0.3, (60, 2)),
            rng.uniform(40, 50, (4, 2)),
        ])

    def test_protocol_conformance(self, spec):
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        assert isinstance(sess.backend, CoresetBackend)

    def test_delete_unsupported(self, spec):
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        with pytest.raises(UnsupportedOperationError, match="dynamic"):
            sess.delete([0.0, 0.0])

    def test_solve_provenance(self, spec, points):
        sess = KCenterSession.from_spec(spec, backend="offline")
        sess.extend(points)
        sess.insert(points[0])
        sol = sess.solve()
        assert sol.backend == "offline"
        assert sol.spec is spec
        assert sol.updates == len(points) + 1
        assert sol.coreset_size == len(sess.coreset())
        assert sol.eps_guarantee == spec.eps
        assert sol.wall_time > 0
        assert sol.radius > 0
        assert "3 *" in sol.approx_factor

    def test_solve_empty_session(self, spec):
        sess = KCenterSession.from_spec(spec, backend="offline")
        sol = sess.solve()
        assert sol.radius == 0.0 and sol.coreset_size == 0

    def test_solve_brute_method(self, spec):
        sess = KCenterSession.from_spec(spec, backend="offline")
        rng = np.random.default_rng(0)
        sess.extend(rng.normal(0, 1, (12, 2)))
        sol = sess.solve(method="brute")
        assert sol.method == "brute"
        assert sol.approx_factor.startswith("(1 +")

    def test_guarantee_composition(self, spec):
        two = KCenterSession.from_spec(spec, backend="mpc-two-round")
        assert two.guarantee().eps == pytest.approx(
            compose_errors(spec.eps, spec.eps)
        )
        multi = KCenterSession.from_spec(spec, backend="mpc-multi-round",
                                         rounds=3)
        assert multi.guarantee().eps == pytest.approx(
            (1 + spec.eps) ** 3 - 1
        )
        assert isinstance(two.guarantee(), Guarantee)

    def test_stats_merge(self, spec, points):
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        sess.extend(points)
        st = sess.stats()
        assert st["backend"] == "insertion-only"
        assert st["model"] == "insertion-only"
        assert st["updates"] == len(points)
        assert st["k"] == spec.k and st["eps"] == spec.eps
        assert st["stored"] > 0 and st["threshold"] > 0

    def test_updates_count_deletes_and_are_authoritative(self, spec):
        sess = KCenterSession.from_spec(spec, backend="dynamic",
                                        delta_universe=16, s_override=8)
        pts = np.ones((10, 2), dtype=np.int64)
        sess.extend(pts)
        sess.delete_many(pts[:4])
        sess.delete(pts[4])
        assert sess.updates_seen == 15
        st = sess.stats()
        # the session's own counter must not be shadowed by backend stats
        assert st["updates"] == 15
        assert st["sketch_updates"] == 15
        assert sess.solve().updates == 15

    def test_delete_many_unsupported(self, spec):
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        with pytest.raises(UnsupportedOperationError):
            sess.delete_many(np.zeros((2, 2)))

    def test_option_validation(self, spec):
        with pytest.raises(ValueError, match="delta_universe"):
            KCenterSession.from_spec(spec, backend="dynamic")
        with pytest.raises(ValueError, match="window"):
            KCenterSession.from_spec(spec, backend="sliding-window")
        with pytest.raises(ValueError, match="dim"):
            KCenterSession.from_spec(ProblemSpec(2, 4, 0.5),
                                     backend="insertion-only")

    _WINDOW = {"window": 50, "r_min": 0.1, "r_max": 10.0}

    @pytest.mark.parametrize("backend, options, name", [
        ("dynamic", {"delta_universe": 64.7}, "delta_universe"),
        ("dynamic-deterministic", {"delta_universe": 64.7}, "delta_universe"),
        ("dynamic", {"delta_universe": 64, "s_override": 2.5}, "s_override"),
        ("dynamic", {"delta_universe": 64, "failure": 5.0}, "failure"),
        ("dynamic", {"delta_universe": 64, "failure": 0}, "failure"),
        ("dynamic-deterministic", {"delta_universe": 64, "check": -3}, "check"),
        ("sliding-window", {**_WINDOW, "window": 10.9}, "window"),
        ("sliding-window", {**_WINDOW, "window": True}, "window"),
        ("sliding-window", {**_WINDOW, "window": 0}, "window"),
        ("sliding-window", {**_WINDOW, "capacity": 0}, "capacity"),
        ("sliding-window", {**_WINDOW, "r_max": float("inf")}, "r_max"),
        ("insertion-only", {"size_cap": 100.5}, "size_cap"),
    ])
    def test_backend_options_fail_closed(self, spec, backend, options, name):
        # rejected at construction: never truncated, never an
        # OverflowError, never a session whose every solve fails
        with pytest.raises(ValueError, match=name):
            KCenterSession.from_spec(spec, backend=backend, **options)

    def test_integral_float_options_coerce(self, spec):
        sess = KCenterSession.from_spec(
            spec, backend="sliding-window", window=50.0, r_min=0.1,
            r_max=10.0, capacity=8.0)
        assert sess.backend.algo.window == 50
        assert type(sess.backend.algo.window) is int
        sess = KCenterSession.from_spec(spec, backend="dynamic",
                                        delta_universe=64.0)
        sess.extend([[3.0, 4.0]])
        assert sess.updates_seen == 1

    def test_bad_partition_scheme(self, spec):
        # rejected when the session is built, not at the first query
        with pytest.raises(ValueError, match="partition"):
            KCenterSession.from_spec(spec, backend="mpc-two-round",
                                     partition="bogus")

    def test_radius_shortcut(self, spec, points):
        sess = KCenterSession.from_spec(spec, backend="offline")
        sess.extend(points)
        assert sess.radius() == sess.solve().radius

    def test_top_level_exports(self):
        import repro

        assert repro.__version__ == "1.10.0"
        assert repro.ProblemSpec is ProblemSpec
        assert repro.KCenterSession is KCenterSession
        assert "api" in repro.__all__


#: options that make every registered backend constructible
_OPTIONS = {
    "dynamic": {"delta_universe": 64},
    "dynamic-deterministic": {"delta_universe": 64},
    "sliding-window": {"window": 50, "r_min": 0.1, "r_max": 10.0},
}
_BAD_CHUNKS = {
    "nan": [[1.0, 2.0], [float("nan"), 3.0]],
    "inf": [[1.0, 2.0], [3.0, float("inf")]],
    "-inf": [[float("-inf"), 2.0]],
    "wide": [[1.0, 2.0, 3.0]],
    "narrow": [[1.0]],
    "3-d": [[[1.0, 2.0]]],
}


class TestIngestValidation:
    """Every backend ingests and solves one spec's stream, and refuses
    non-finite and wrong-width points at the session, before the
    backend's state sees them."""

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_stream_then_solve(self, backend):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(c, 0.5, (500, 2))
                              for c in [(0, 0), (10, 0), (0, 10), (10, 10)]])
        rng.shuffle(pts)
        if backend.startswith("dynamic"):  # integer points of [64]^2
            pts = np.clip(np.abs(pts).astype(int) + 1, 1, 64)
        spec = ProblemSpec(k=4, z=20, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend=backend,
                                        **_OPTIONS.get(backend, {}))
        sess.extend(pts)
        sol = sess.solve()
        assert sol.coreset_size > 0
        assert sol.radius > 0

    @pytest.mark.parametrize("bad", sorted(_BAD_CHUNKS))
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_extend_rejects(self, backend, bad):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend=backend,
                                        **_OPTIONS.get(backend, {}))
        sess.extend([[3.0, 4.0], [5.0, 6.0]])
        before = sess.coreset()
        with pytest.raises(ValueError):
            sess.extend(np.array(_BAD_CHUNKS[bad]))
        assert sess.updates_seen == 2
        after = sess.coreset()
        assert np.array_equal(before.points, after.points)
        assert np.array_equal(before.weights, after.weights)

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_empty_input_is_a_no_op(self, backend):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend=backend,
                                        **_OPTIONS.get(backend, {}))
        sess.extend([])
        sess.extend(np.zeros((0, 2)))
        assert sess.updates_seen == 0
        assert len(sess.coreset()) == 0

    @pytest.mark.parametrize("backend", ["insertion-only", "sliding-window"])
    def test_insert_rejects(self, backend):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend=backend,
                                        **_OPTIONS.get(backend, {}))
        for bad in ([float("nan"), 1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError):
                sess.insert(bad)
        assert sess.updates_seen == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("backend", ["dynamic", "dynamic-deterministic"])
    def test_delete_rejects_non_finite(self, backend, bad):
        """Deletes go through the same session check as ingest, before
        any cast in the backend (no cast warning, no OverflowError)."""
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend=backend,
                                        **_OPTIONS.get(backend, {}))
        sess.extend([[3.0, 4.0], [5.0, 6.0]])
        pts = np.array(_BAD_CHUNKS[bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                sess.delete_many(pts)
            with pytest.raises(ValueError, match="finite"):
                sess.delete(pts[-1])
        assert sess.updates_seen == 2
        assert sess.coreset().total_weight == 2

    def test_bad_chunk_of_a_source_stops_the_stream(self):
        spec = ProblemSpec(k=2, z=1, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        chunks = iter([(np.ones((3, 2)), None),
                       (np.array([[np.nan, 0.0]]), None)])
        with pytest.raises(ValueError, match="finite"):
            sess.extend(chunks)
        assert sess.updates_seen == 3  # the chunk before stays applied
