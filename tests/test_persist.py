"""Snapshot/restore parity: save -> load -> continue == uninterrupted.

Property-style roundtrips for every registered backend (random prefix ->
save -> load -> suffix must equal the full-stream run bit for bit), the
container format's validation paths, and the `delete_many` accounting
contract.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.api import (
    KCenterSession,
    ProblemSpec,
    SnapshotError,
    UnsupportedOperationError,
    available_backends,
    register_backend,
    unregister_backend,
)
from repro.persist import (
    read_manifest,
    SNAPSHOT_FORMAT_VERSION,
    read_snapshot,
    supports_snapshot,
    write_snapshot,
)

DELTA = 64

#: session options per backend family (mirrors the scenario adapters)
BACKEND_OPTIONS = {
    "dynamic": {"delta_universe": DELTA, "s_override": 24},
    "dynamic-deterministic": {"delta_universe": DELTA, "s_override": 24},
    "sliding-window": {"window": 120, "r_min": 0.05, "r_max": 40.0},
    "mpc-two-round": {"num_machines": 4},
    "mpc-one-round": {"num_machines": 4},
    "mpc-multi-round": {"num_machines": 4},
    "cpp-mpc-deterministic": {"num_machines": 4},
    "cpp-mpc-randomized": {"num_machines": 4},
}

INTEGER_BACKENDS = {"dynamic", "dynamic-deterministic"}

ALL_BACKENDS = sorted(available_backends())


def _spec(seed=7):
    return ProblemSpec(k=3, z=5, eps=0.5, dim=2, seed=seed)


def _stream(backend, seed, n=200):
    rng = np.random.default_rng(seed)
    if backend in INTEGER_BACKENDS:
        return rng.integers(1, DELTA, size=(n, 2)).astype(float)
    return rng.normal(size=(n, 2)) * 5.0


def _make(backend, seed=7):
    return KCenterSession.from_spec(
        _spec(seed), backend=backend, **BACKEND_OPTIONS.get(backend, {})
    )


def _stats_no_wall(sess):
    out = sess.stats()
    out.pop("wall_time")
    return out


class TestRoundtripAllBackends:
    """The acceptance criterion: for every registered backend, save ->
    load -> continue yields bit-identical coreset, radius and stats."""

    def test_all_builtins_registered(self):
        assert len(ALL_BACKENDS) >= 11

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("case", range(3))
    def test_prefix_save_load_suffix_equals_full_stream(
        self, backend, case, tmp_path
    ):
        stream = _stream(backend, seed=100 + case)
        # random split (case 0 pins the empty-prefix edge)
        split = 0 if case == 0 else int(
            np.random.default_rng(case).integers(1, len(stream))
        )
        path = str(tmp_path / "cell.ckpt")

        full = _make(backend)
        full.extend(stream)

        part = _make(backend)
        if split:
            part.extend(stream[:split])
        part.save(path)
        resumed = KCenterSession.load(path)
        resumed.extend(stream[split:])

        cs_full, cs_res = full.coreset(), resumed.coreset()
        assert np.array_equal(cs_full.points, cs_res.points)
        assert np.array_equal(cs_full.weights, cs_res.weights)
        assert full.solve().radius == resumed.solve().radius
        assert full.updates_seen == resumed.updates_seen
        assert _stats_no_wall(full) == _stats_no_wall(resumed)

    @pytest.mark.parametrize("backend", sorted(INTEGER_BACKENDS))
    def test_roundtrip_across_deletions(self, backend, tmp_path):
        stream = _stream(backend, seed=3)
        doomed = stream[40:80]
        path = str(tmp_path / "dyn.ckpt")

        full = _make(backend)
        full.extend(stream)
        full.delete_many(doomed)

        part = _make(backend)
        part.extend(stream)
        part.save(path)
        resumed = KCenterSession.load(path)
        resumed.delete_many(doomed)

        cs_full, cs_res = full.coreset(), resumed.coreset()
        assert np.array_equal(cs_full.points, cs_res.points)
        assert np.array_equal(cs_full.weights, cs_res.weights)
        assert full.updates_seen == resumed.updates_seen

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_all_registered_backends_support_snapshot(self, backend):
        sess = _make(backend)
        assert supports_snapshot(sess.backend)


class TestSnapshotFile:
    def test_manifest_is_auditable_json(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=50))
        sess.save(path, extra={"note": "hello"})
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json").decode())
        assert manifest["kind"] == "kcenter-session"
        assert manifest["format"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["backend"] == "insertion-only"
        assert manifest["spec"]["k"] == 3 and manifest["spec"]["seed"] == 7
        assert manifest["updates"] == 50
        assert manifest["extra"] == {"note": "hello"}
        assert "payload.npz" in zf.namelist()

    def test_updates_and_wall_time_provenance(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=80))
        sess.save(path)
        loaded = KCenterSession.load(path)
        assert loaded.updates_seen == 80
        assert loaded.wall_time == sess.wall_time
        assert loaded.backend_name == "insertion-only"
        assert loaded.spec.as_dict() == sess.spec.as_dict()

    def test_load_backend_mismatch(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        _make("insertion-only").save(path)
        with pytest.raises(SnapshotError, match="backend"):
            KCenterSession.load(path, backend="offline")

    def test_load_spec_mismatch(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        _make("insertion-only").save(path)
        with pytest.raises(SnapshotError, match="spec"):
            KCenterSession.load(path, spec=_spec(seed=8))

    def test_unknown_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, {"kind": "kcenter-session", "format": 99}, {})
        with pytest.raises(SnapshotError, match="format"):
            read_snapshot(path)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"this is not a zip")
        with pytest.raises(SnapshotError, match="cannot read"):
            KCenterSession.load(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            KCenterSession.load(str(tmp_path / "nope.ckpt"))

    def test_non_session_snapshot_rejected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, {"kind": "something-else"}, {})
        with pytest.raises(SnapshotError, match="not a KCenterSession"):
            KCenterSession.load(path)

    def test_option_overrides_on_load(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        sess = _make("mpc-two-round")
        sess.extend(_stream("mpc-two-round", 0, n=60))
        sess.save(path)
        loaded = KCenterSession.load(path, num_machines=2)
        assert loaded.backend.num_machines == 2

    def test_numpy_scalar_options_are_coerced(self, tmp_path):
        # options derived from numpy computations (np.int64 windows etc.)
        # are trivially portable and must not fail the save
        path = str(tmp_path / "s.ckpt")
        sess = KCenterSession.from_spec(
            _spec(), backend="sliding-window",
            window=np.int64(120), r_min=np.float64(0.05),
            r_max=np.float64(40.0),
        )
        sess.extend(_stream("sliding-window", 0, n=60))
        sess.save(path)
        loaded = KCenterSession.load(path)
        loaded.extend(_stream("sliding-window", 1, n=30))
        assert loaded.updates_seen == 90

    def test_malformed_manifest_raises_snapshot_error(self, tmp_path):
        # missing spec / backend keys must surface as SnapshotError, not
        # KeyError, so `except SnapshotError` callers degrade gracefully
        no_spec = str(tmp_path / "a.ckpt")
        write_snapshot(no_spec, {"kind": "kcenter-session",
                                 "backend": "insertion-only"}, {})
        with pytest.raises(SnapshotError, match="spec"):
            KCenterSession.load(no_spec)
        no_backend = str(tmp_path / "b.ckpt")
        write_snapshot(no_backend, {"kind": "kcenter-session",
                                    "spec": _spec().as_dict()}, {})
        with pytest.raises(SnapshotError, match="backend"):
            KCenterSession.load(no_backend)
        bad_spec = str(tmp_path / "c.ckpt")
        write_snapshot(bad_spec, {"kind": "kcenter-session",
                                  "backend": "insertion-only",
                                  "spec": {"k": 0, "z": 1, "eps": 0.5}}, {})
        with pytest.raises(SnapshotError, match="reconstruct"):
            KCenterSession.load(bad_spec)

    def test_retired_spec_knobs_still_load(self, tmp_path):
        # snapshots (and evicted serve tenants) written before the kernel
        # and decision-threading knobs were removed carry them in the
        # spec dict.  Only dtype="float32" ever changed a result (a lossy
        # distance kernel); such a snapshot now solves in exact float64
        from repro.serve.wire import WireError, parse_create_payload

        retired = {"kernel_chunk": 2048, "kernel_backend": "numba",
                   "prune": "off", "decision_jobs": 2,
                   "executor": "thread", "jobs": 2, "dtype": "float32"}
        path = str(tmp_path / "s.ckpt")
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=60))
        sess.save(path)
        manifest, state = read_snapshot(path)
        manifest["spec"].update(retired)
        old = str(tmp_path / "old.ckpt")
        write_snapshot(old, manifest, state)
        a, b = KCenterSession.load(path), KCenterSession.load(old)
        assert b.spec == a.spec and b.spec.as_dict() == _spec().as_dict()
        assert np.array_equal(a.coreset().points, b.coreset().points)
        assert np.array_equal(a.coreset().weights, b.coreset().weights)
        assert a.solve().radius == b.solve().radius
        assert a.updates_seen == b.updates_seen
        # a new session naming one is an unknown field: 400 bad-spec
        for key, value in retired.items():
            with pytest.raises(WireError) as err:
                parse_create_payload(
                    {"spec": {**_spec().as_dict(), key: value}})
            assert (err.value.status, err.value.code) == (400, "bad-spec")

    def test_spec_jobs_snapshot_loads_under_caller_spec(self, tmp_path):
        # saved while the spec still carried the executor knobs: matches
        # the same problem stated without them
        path = str(tmp_path / "s.ckpt")
        sess = _make("mpc-two-round")
        sess.extend(_stream("mpc-two-round", 0, n=60))
        sess.save(path)
        manifest, state = read_snapshot(path)
        manifest["spec"].update({"executor": "thread", "jobs": 2})
        write_snapshot(path, manifest, state)
        b = KCenterSession.load(path, backend="mpc-two-round", spec=_spec())
        assert np.array_equal(sess.coreset().points, b.coreset().points)

    def test_unserializable_option_fails_at_save(self, tmp_path):
        sess = KCenterSession.from_spec(
            _spec(), backend="mpc-two-round", num_machines=2,
            partition=lambda P: [P],
        )
        with pytest.raises(SnapshotError, match="partition"):
            sess.save(str(tmp_path / "s.ckpt"))

    def test_geometry_changing_override_rejected_on_load(self, tmp_path):
        # a different window reinterprets expiry/eviction state: the
        # restore must refuse rather than silently report wrong coresets
        path = str(tmp_path / "sw.ckpt")
        sess = _make("sliding-window")
        sess.extend(_stream("sliding-window", 0, n=150))
        sess.save(path)
        with pytest.raises(SnapshotError, match="window"):
            KCenterSession.load(path, window=10000)
        with pytest.raises(SnapshotError):
            KCenterSession.load(path, r_min=0.01)

    def test_seed_mismatch_detected_by_sketch_digest(self):
        # restoring randomized sketch state into a structure built from a
        # different seed must fail loudly, not silently mis-decode
        a = _make("dynamic", seed=1)
        a.extend(_stream("dynamic", 0, n=50))
        b = _make("dynamic", seed=2)
        with pytest.raises(SnapshotError, match="randomness"):
            b.backend.restore(a.backend.snapshot())


class TestSketchRestoreFailsClosed:
    """A tampered dynamic snapshot must be refused at load, not decode
    into a failed solve later."""

    @staticmethod
    def _tampered(tmp_path, use_f0, edit):
        sess = KCenterSession.from_spec(
            _spec(), backend="dynamic", delta_universe=DELTA, s_override=24,
            use_f0=use_f0,
        )
        sess.extend(_stream("dynamic", 0, n=60))
        path = str(tmp_path / "dyn.ckpt")
        sess.save(path)
        manifest, state = read_snapshot(path)
        edit(state)
        bad = str(tmp_path / "bad.ckpt")
        write_snapshot(bad, manifest, state)
        return path, bad

    @staticmethod
    def _grid(state):
        return state["sparse"]["0"]

    @staticmethod
    def _f0_level(state):
        return state["f0"]["0"]["instances"]["1"]["sketches"]["0"]

    @pytest.mark.parametrize("use_f0", [False, True])
    @pytest.mark.parametrize("value", [-5, (1 << 61) - 1, 2**62])
    def test_fingerprint_out_of_range(self, tmp_path, use_f0, value):
        where = self._f0_level if use_f0 else self._grid

        def edit(state):
            where(state)["fp"][0, 0] = value

        good, bad = self._tampered(tmp_path, use_f0, edit)
        KCenterSession.load(good).solve()
        with pytest.raises(SnapshotError, match="fingerprint"):
            KCenterSession.load(bad)

    @pytest.mark.parametrize("field", ["w", "ws", "fp"])
    def test_non_integer_dtype(self, tmp_path, field):
        def edit(state):
            self._grid(state)[field] = self._grid(state)[field].astype(float)

        _, bad = self._tampered(tmp_path, False, edit)
        with pytest.raises(SnapshotError, match="dtype"):
            KCenterSession.load(bad)

    @pytest.mark.parametrize("field", ["w", "ws", "fp"])
    def test_wrong_shape(self, tmp_path, field):
        def edit(state):
            self._grid(state)[field] = self._grid(state)[field][:, :-1].copy()

        _, bad = self._tampered(tmp_path, False, edit)
        with pytest.raises(SnapshotError, match="shape"):
            KCenterSession.load(bad)

    def test_missing_field(self, tmp_path):
        def edit(state):
            del self._grid(state)["ws"]

        _, bad = self._tampered(tmp_path, False, edit)
        with pytest.raises(SnapshotError):
            KCenterSession.load(bad)


class TestUnsupportedBackends:
    def test_custom_backend_without_snapshot(self, tmp_path):
        class Minimal:
            def __init__(self, spec, **options):
                self.spec = spec
                self._pts = []

            def insert(self, p):
                self._pts.append(np.asarray(p, float))

            def extend(self, pts):
                for p in np.atleast_2d(pts):
                    self.insert(p)

            def coreset(self):
                from repro.core import WeightedPointSet

                return WeightedPointSet(np.asarray(self._pts))

            def guarantee(self):
                from repro.api import Guarantee

                return Guarantee(eps=0.5, model="offline")

            def stats(self):
                return {}

        register_backend("_persist-minimal", Minimal)
        try:
            sess = KCenterSession.from_spec(_spec(), backend="_persist-minimal")
            assert not supports_snapshot(sess.backend)
            with pytest.raises(UnsupportedOperationError, match="snapshot"):
                sess.save(str(tmp_path / "s.ckpt"))
            # missing delete support surfaces as the clear error, not
            # an AttributeError
            with pytest.raises(UnsupportedOperationError, match="delete"):
                sess.delete([0.0, 0.0])
            with pytest.raises(UnsupportedOperationError, match="delete"):
                sess.delete_many(np.zeros((2, 2)))
            assert sess.updates_seen == 0
        finally:
            unregister_backend("_persist-minimal")

    def test_base_placeholder_is_flagged_unsupported(self):
        from repro.api.backends import _BackendBase

        assert not supports_snapshot(_BackendBase(_spec()))


class TestDeleteManyAccounting:
    def test_unsupported_delete_keeps_updates_exact(self):
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=30))
        with pytest.raises(UnsupportedOperationError):
            sess.delete_many(np.zeros((4, 2)))
        assert sess.updates_seen == 30  # the failed batch added nothing

    def test_mid_batch_failure_counts_applied_deletes_only(self):
        class Flaky:
            def __init__(self, spec, **options):
                self.spec = spec
                self.deleted = 0

            def insert(self, p):
                pass

            def extend(self, pts):
                pass

            def delete(self, p):
                if self.deleted >= 2:
                    raise RuntimeError("boom")
                self.deleted += 1

            def coreset(self):
                from repro.core import WeightedPointSet

                return WeightedPointSet.empty(2)

            def guarantee(self):
                from repro.api import Guarantee

                return Guarantee(eps=0.5, model="fully-dynamic")

            def stats(self):
                return {}

        register_backend("_persist-flaky", Flaky, supports_delete=True)
        try:
            sess = KCenterSession.from_spec(_spec(), backend="_persist-flaky")
            with pytest.raises(RuntimeError, match="boom"):
                sess.delete_many(np.zeros((5, 2)))
            # exactly the two applied deletions are accounted
            assert sess.updates_seen == 2
            assert sess.backend.deleted == 2
        finally:
            unregister_backend("_persist-flaky")

    def test_batched_delete_counts_after_success(self):
        sess = _make("dynamic")
        pts = _stream("dynamic", 1, n=40)
        sess.extend(pts)
        sess.delete_many(pts[:10])
        assert sess.updates_seen == 50

    @pytest.mark.parametrize("backend", sorted(INTEGER_BACKENDS))
    def test_bad_batch_is_all_or_nothing(self, backend):
        # a batch with a point outside [1, Delta]^d must raise with the
        # sketches unmutated and nothing accounted
        sess = _make(backend)
        good = _stream(backend, 2, n=30)
        sess.extend(good)
        before = sess.coreset()
        bad = good[:5].copy()
        bad[3] = [DELTA * 10, DELTA * 10]
        with pytest.raises(ValueError, match="coordinates must lie"):
            sess.delete_many(bad)
        assert sess.updates_seen == 30
        after = sess.coreset()
        assert np.array_equal(before.points, after.points)
        assert np.array_equal(before.weights, after.weights)


class TestStateTreeFormat:
    def test_array_and_json_leaves_roundtrip(self, tmp_path):
        state = {
            "a": np.arange(6, dtype=np.int64).reshape(2, 3),
            "nested": {"b": np.ones(2), "s": "text", "n": None, "f": 1.5,
                       "lst": [1, 2, 3]},
            "flag": True,
        }
        path = str(tmp_path / "t.snap")
        write_snapshot(path, {"kind": "test"}, state)
        manifest, loaded = read_snapshot(path)
        assert manifest["kind"] == "test"
        assert np.array_equal(loaded["a"], state["a"])
        assert np.array_equal(loaded["nested"]["b"], state["nested"]["b"])
        assert loaded["nested"]["s"] == "text"
        assert loaded["nested"]["n"] is None
        assert loaded["nested"]["f"] == 1.5
        assert loaded["nested"]["lst"] == [1, 2, 3]
        assert loaded["flag"] is True

    def test_bad_keys_and_leaves_rejected(self, tmp_path):
        path = str(tmp_path / "t.snap")
        with pytest.raises(SnapshotError, match="key"):
            write_snapshot(path, {}, {"a/b": 1})
        with pytest.raises(SnapshotError, match="unsupported type"):
            write_snapshot(path, {}, {"a": object()})

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "t.snap"
        write_snapshot(str(path), {"kind": "test"}, {"a": np.ones(3)})
        assert [p.name for p in tmp_path.iterdir()] == ["t.snap"]

    def test_object_dtype_arrays_rejected_at_write(self, tmp_path):
        # an object array would pickle into the payload and then be
        # unreadable forever under allow_pickle=False — fail at save time
        path = str(tmp_path / "t.snap")
        bad = np.array([np.zeros(2), np.zeros(3)], dtype=object)
        with pytest.raises(SnapshotError, match="object-dtype"):
            write_snapshot(path, {"kind": "test"}, {"a": bad})

    def test_corrupted_payload_raises_snapshot_error(self, tmp_path):
        # a valid zip whose npz member is garbage must still surface as
        # SnapshotError, not a raw numpy ValueError
        path = tmp_path / "t.snap"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json",
                        json.dumps({"format": SNAPSHOT_FORMAT_VERSION}))
            zf.writestr("payload.npz", b"not an npz archive")
        with pytest.raises(SnapshotError, match="payload"):
            read_snapshot(str(path))

    def test_from_snapshot_matches_load(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=60))
        sess.save(path)
        manifest, state = read_snapshot(path)
        a = KCenterSession.load(path)
        b = KCenterSession.from_snapshot(manifest, state)
        assert np.array_equal(a.coreset().points, b.coreset().points)
        assert a.updates_seen == b.updates_seen
        with pytest.raises(SnapshotError, match="kind"):
            KCenterSession.from_snapshot({"kind": "other"}, {})

    @pytest.mark.parametrize(
        "backend", [b for b in ALL_BACKENDS if b not in INTEGER_BACKENDS])
    def test_non_finite_points_raise_snapshot_error(self, tmp_path, backend):
        # the point set type rejects NaN coordinates itself; a restore
        # must still report them as a bad snapshot
        path = str(tmp_path / "s.ckpt")
        sess = _make(backend)
        sess.extend(_stream(backend, 0, n=60))
        sess.save(path)
        manifest, state = read_snapshot(path)

        def poison(tree):
            hits = 0
            for key, value in tree.items():
                if isinstance(value, dict):
                    hits += poison(value)
                elif key == "points" and np.size(value):
                    tree[key] = np.array(value, dtype=float)
                    tree[key].flat[0] = np.nan
                    hits += 1
            return hits

        assert poison(state)
        with pytest.raises(SnapshotError, match="non-finite"):
            KCenterSession.from_snapshot(manifest, state)


class TestNetworkHardening:
    """Snapshots received over the wire (`repro.serve`) must not be able
    to escape the spool directory or exhaust memory on load."""

    def _zip(self, path, members):
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)

    def _manifest_bytes(self):
        return json.dumps({"format": SNAPSHOT_FORMAT_VERSION,
                           "state": {}, "arrays": []}).encode()

    @pytest.mark.parametrize("name", [
        "../evil.npy",
        "sub/dir.npy",
        "..\\evil.npy",
        "/etc/passwd",
        "a/../b",
    ])
    def test_zip_slip_member_names_rejected(self, tmp_path, name):
        path = tmp_path / "t.snap"
        self._zip(path, {"manifest.json": self._manifest_bytes(),
                         "payload.npz": b"", name: b"x"})
        with pytest.raises(SnapshotError, match="path separator|traversal"):
            read_snapshot(str(path))
        with pytest.raises(SnapshotError, match="path separator|traversal"):
            read_manifest(str(path))

    def test_decompressed_size_cap_enforced(self, tmp_path):
        # 20 MB of zeros deflates to ~20 kB: the directory size fields
        # are honest here, but the cap must bind on decompressed bytes
        path = str(tmp_path / "t.snap")
        write_snapshot(path, {"kind": "test"},
                       {"a": np.zeros((2_500_000,), dtype=np.float64)})
        manifest, state = read_snapshot(path, max_bytes=64 << 20)  # fits
        assert state["a"].shape == (2_500_000,)
        with pytest.raises(SnapshotError, match="budget"):
            read_snapshot(path, max_bytes=1 << 20)

    def test_size_cap_ignores_forged_directory_sizes(self, tmp_path):
        # rewrite the central directory to claim a tiny decompressed
        # size; the streaming cap must still fire on the real bytes
        path = tmp_path / "t.snap"
        big = zipfile.ZipInfo("payload.npz")
        big.compress_type = zipfile.ZIP_DEFLATED
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", self._manifest_bytes())
            zf.writestr(big, b"\0" * (8 << 20))
        with pytest.raises(SnapshotError, match="budget"):
            read_snapshot(str(path), max_bytes=1 << 20)

    def test_cap_env_override(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.snap")
        write_snapshot(path, {"kind": "test"},
                       {"a": np.zeros((200_000,), dtype=np.float64)})
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", str(1 << 10))
        with pytest.raises(SnapshotError, match="budget"):
            read_snapshot(path)
        monkeypatch.setenv("REPRO_SNAPSHOT_MAX_BYTES", str(1 << 30))
        read_snapshot(path)

    def test_invalid_cap_rejected(self, tmp_path):
        path = str(tmp_path / "t.snap")
        write_snapshot(path, {"kind": "test"}, {})
        with pytest.raises(SnapshotError, match="max_bytes"):
            read_snapshot(path, max_bytes=0)

    def test_read_manifest_is_cheap_and_validated(self, tmp_path):
        path = str(tmp_path / "t.snap")
        sess = _make("insertion-only")
        sess.extend(_stream("insertion-only", 0, n=40))
        sess.save(path, extra={"tag": "spool"})
        manifest = read_manifest(path)
        assert manifest["kind"] == "kcenter-session"
        assert manifest["backend"] == "insertion-only"
        assert manifest["updates"] == 40
        assert manifest["extra"] == {"tag": "spool"}
        # version check still applies on the manifest-only path
        bad = str(tmp_path / "v.snap")
        write_snapshot(bad, {"kind": "test", "format": 99}, {})
        with pytest.raises(SnapshotError, match="format"):
            read_manifest(bad)

    def test_read_manifest_missing_member(self, tmp_path):
        path = tmp_path / "t.snap"
        self._zip(path, {"payload.npz": b""})
        with pytest.raises(SnapshotError, match="cannot read"):
            read_manifest(str(path))

    def test_truncated_member_surfaces_snapshot_error(self, tmp_path):
        src = tmp_path / "ok.snap"
        write_snapshot(str(src), {"kind": "test"},
                       {"a": np.arange(1000, dtype=np.float64)})
        clipped = tmp_path / "clipped.snap"
        data = src.read_bytes()
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(str(clipped))
