"""Out-of-core pipeline: chunked ingest must be invisible to results.

The PR-10 acceptance properties:

* chunked ``extend`` (any chunk boundaries, any PointSource carrier) is
  bit-identical to one monolithic ``extend`` for EVERY registered
  backend — including weighted chunks on the buffered backends and
  delete-bearing streams on the fully-dynamic ones;
* the n=10^6 out-of-core matrix sweep stays within a small fixed
  memory budget (measured in a fresh subprocess via
  ``resource.getrusage``);
* a source-backed scenario cell equals the same stream fed as in-RAM
  batches, and its checkpoint cursor survives a simulated mid-stream
  kill byte-for-byte;
* snapshot restore through ``mmap_dir`` continues bit-identically to
  the in-RAM restore;
* ``replay_chunks`` equals the per-event ``replay`` path.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    Guarantee,
    KCenterSession,
    ProblemSpec,
    UnsupportedOperationError,
    available_backends,
    register_backend,
    unregister_backend,
)
from repro.core.points import WeightedPointSet
from repro.persist import read_snapshot
from repro.scenarios import get_scenario, run_cell
from repro.scenarios.scenario import ScenarioInstance
from repro.store import PointStore, from_array
from repro.streaming import insertion_stream, replay, replay_chunks

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

#: buffered backends whose ``extend_weighted`` accepts weighted chunks
WEIGHTED_BACKENDS = ("offline", "mpc-two-round", "mpc-one-round",
                     "mpc-multi-round", "cpp-mpc-deterministic",
                     "cpp-mpc-randomized")

ALL_BACKENDS = sorted(available_backends())


def _spec(seed=7):
    return ProblemSpec(k=3, z=5, eps=0.5, dim=2, seed=seed)


def _stream(backend, seed, n=240):
    rng = np.random.default_rng(seed)
    if backend in INTEGER_BACKENDS:
        return rng.integers(1, DELTA, size=(n, 2)).astype(float)
    return rng.normal(size=(n, 2)) * 5.0


def _make(backend, seed=7):
    return KCenterSession.from_spec(
        _spec(seed), backend=backend, **BACKEND_OPTIONS.get(backend, {})
    )


def _random_pieces(pts, seed, cuts=6):
    """Split ``pts`` at random (nonempty-piece) boundaries."""
    rng = np.random.default_rng(seed)
    at = np.sort(rng.choice(np.arange(1, len(pts)), size=cuts,
                            replace=False))
    return [p for p in np.split(pts, at) if len(p)]


def _stats_no_wall(sess):
    out = sess.stats()
    out.pop("wall_time")
    return out


def _assert_same_state(a, b):
    cs_a, cs_b = a.coreset(), b.coreset()
    assert np.array_equal(cs_a.points, cs_b.points)
    assert np.array_equal(cs_a.weights, cs_b.weights)
    assert a.updates_seen == b.updates_seen
    assert a.solve().radius == b.solve().radius
    assert _stats_no_wall(a) == _stats_no_wall(b)


class TestChunkedEqualsMonolithic:
    """The tentpole property, for every registered backend."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("case", range(3))
    def test_random_chunk_boundaries(self, backend, case):
        stream = _stream(backend, seed=50 + case)
        mono = _make(backend)
        mono.extend(stream)
        chunked = _make(backend)
        chunked.extend(iter(_random_pieces(stream, seed=case)))
        _assert_same_state(mono, chunked)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_point_source_carrier(self, backend):
        stream = _stream(backend, seed=91)
        mono = _make(backend)
        mono.extend(stream)
        src = _make(backend)
        src.extend(from_array(stream), batch=37)
        _assert_same_state(mono, src)

    @pytest.mark.parametrize("backend", ["insertion-only", "offline",
                                         "sliding-window"])
    def test_store_source_carrier(self, backend, tmp_path):
        stream = _stream(backend, seed=17)
        store = PointStore.write(str(tmp_path / backend), (stream,),
                                 chunk_rows=53)
        mono = _make(backend)
        mono.extend(stream)
        ooc = _make(backend)
        ooc.extend(store)
        _assert_same_state(mono, ooc)

    @pytest.mark.parametrize("backend", WEIGHTED_BACKENDS)
    def test_weighted_chunks(self, backend):
        stream = _stream(backend, seed=23)
        w = np.random.default_rng(23).integers(1, 7, len(stream))
        one = _make(backend)
        one.extend(iter([(stream, w)]))
        many = _make(backend)
        pieces, lo = [], 0
        for p in _random_pieces(stream, seed=5):
            pieces.append((p, w[lo:lo + len(p)]))
            lo += len(p)
        many.extend(iter(pieces))
        _assert_same_state(one, many)
        # and the weights actually landed
        assert int(one.coreset().weights.sum()) == int(w.sum())

    def test_weighted_chunks_rejected_without_extend_weighted(self):
        stream = _stream("insertion-only", seed=2, n=40)
        w = np.ones(len(stream), dtype=np.int64)
        sess = _make("insertion-only")
        with pytest.raises(UnsupportedOperationError):
            sess.extend(iter([(stream, w)]))

    def test_fractional_chunk_weights_rejected(self):
        stream = _stream("offline", seed=4, n=2)
        sess = _make("offline")
        # never truncated to total weight 3
        with pytest.raises(ValueError, match="finite integers"):
            sess.extend(iter([(stream, [1.7, 2.9])]))
        assert sess.updates_seen == 0
        assert len(sess.coreset()) == 0

    @pytest.mark.parametrize("backend", sorted(INTEGER_BACKENDS))
    def test_delete_bearing_stream(self, backend):
        stream = _stream(backend, seed=31)
        doomed = stream[60:100]
        mono = _make(backend)
        mono.extend(stream)
        mono.delete_many(doomed)
        chunked = _make(backend)
        chunked.extend(iter(_random_pieces(stream, seed=9)))
        chunked.delete_many(doomed)
        cs_a, cs_b = mono.coreset(), chunked.coreset()
        assert np.array_equal(cs_a.points, cs_b.points)
        assert np.array_equal(cs_a.weights, cs_b.weights)
        assert mono.updates_seen == chunked.updates_seen

    def test_updates_accounting_per_chunk(self):
        stream = _stream("insertion-only", seed=1, n=100)
        sess = _make("insertion-only")
        sess.extend(from_array(stream), batch=33)
        assert sess.updates_seen == 100


class _RecordingBackend:
    """Protocol-only backend (no library base class) that records every
    array ``extend`` receives."""

    def __init__(self, spec):
        self.spec = spec
        self.batches = []

    def insert(self, point):
        self.extend(np.atleast_2d(point))

    def extend(self, points):
        self.batches.append(points)

    def coreset(self):
        return WeightedPointSet(np.concatenate(self.batches))

    def guarantee(self):
        return Guarantee(eps=self.spec.eps, model="offline")

    def stats(self):
        return {}


class TestSessionIsTheOnlyChunkIterator:
    def test_backend_receives_only_dense_float_batches(self):
        register_backend("_recording", _RecordingBackend)
        try:
            sess = KCenterSession.from_spec(_spec(), backend="_recording")
            pts = np.arange(40).reshape(20, 2)  # integer dtype on purpose
            sess.extend(from_array(pts), batch=7)
            sess.extend(iter([pts[:5], np.zeros((0, 2)), pts[5:].tolist()]))
            sess.extend(pts)
            sess.extend(np.zeros((0, 2)))
            got = sess.backend.batches
            assert [len(b) for b in got] == [7, 7, 6, 5, 15, 20]
            for b in got:
                assert type(b) is np.ndarray
                assert b.ndim == 2 and b.dtype == np.float64
            assert sess.updates_seen == 60
            assert np.array_equal(sess.coreset().points,
                                  np.concatenate([pts, pts, pts]))
        finally:
            unregister_backend("_recording")


class TestSourceBackedScenario:
    def test_cell_equals_list_backed_instance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "data"))
        inst = get_scenario("ooc-clustered-1m").make(quick=True, seed=0)
        ref = inst.reference()
        batches = [np.array(b) for b in inst.chunks()]
        inst_list = ScenarioInstance(inst.name, inst.spec, batches=batches,
                                     reference_radius=ref)
        a = run_cell("ooc-clustered-1m", "insertion-only", quick=True,
                     seed=0, instance=inst, reference=ref)
        b = run_cell("ooc-clustered-1m", "insertion-only", quick=True,
                     seed=0, instance=inst_list, reference=ref)
        da, db = dict(a.__dict__), dict(b.__dict__)
        for key in ("wall_time", "note"):  # run/provenance-only fields
            da.pop(key), db.pop(key)
        assert da == db
        assert a.status == "ok" and a.updates == inst.n

    def test_kill_and_resume_byte_match(self, tmp_path, monkeypatch):
        import repro.scenarios.matrix as matrix_mod

        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "data"))
        base = run_cell("ooc-clustered-1m", "insertion-only", quick=True,
                        seed=0)
        ckpt_dir = str(tmp_path / "ckpts")
        monkeypatch.setenv("REPRO_MATRIX_KILL_AFTER", "3")
        monkeypatch.setattr(matrix_mod, "_ckpt_writes", 0)
        with pytest.raises(SystemExit, match="simulated kill"):
            run_cell("ooc-clustered-1m", "insertion-only", quick=True,
                     seed=0, checkpoint_dir=ckpt_dir)
        leftover = os.listdir(ckpt_dir)
        assert leftover, "killed sweep must leave a mid-stream checkpoint"

        monkeypatch.delenv("REPRO_MATRIX_KILL_AFTER")
        resumed = run_cell("ooc-clustered-1m", "insertion-only", quick=True,
                           seed=0, checkpoint_dir=ckpt_dir)
        da, db = dict(base.__dict__), dict(resumed.__dict__)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db
        assert not os.listdir(ckpt_dir)  # clean finish removed the ckpt

    def test_scale_tag_excludes_from_default_sweep(self):
        from repro.scenarios.matrix import DEFAULT_EXCLUDED_TAGS

        assert "scale" in DEFAULT_EXCLUDED_TAGS
        for name in ("ooc-clustered-1m", "ooc-clustered-10m"):
            assert "scale" in get_scenario(name).tags


_RSS_SCRIPT = r"""
import json, resource, sys
from repro.scenarios import run_cell
cell = run_cell("ooc-clustered-1m", "insertion-only", quick=False, seed=0)
print(json.dumps({
    "status": cell.status,
    "updates": cell.updates,
    "radius_ratio": cell.radius_ratio,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


@pytest.mark.slow
class TestPeakMemory:
    def test_ooc_sweep_1m_stays_out_of_core(self, tmp_path):
        """The n=10^6 sweep in a fresh subprocess: peak RSS must stay a
        small constant (the chunk working set), far under both the 2 GB
        acceptance budget and what an in-RAM pipeline with intermediate
        copies would show."""
        env = dict(os.environ)
        env["REPRO_DATA_DIR"] = str(tmp_path / "data")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _RSS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        assert doc["status"] == "ok"
        assert doc["updates"] == 1_000_000
        assert doc["peak_rss_mb"] < 512, doc


class TestPersistMmapRestore:
    def _clustered(self, n, d=2, k=6, seed=3):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-40, 40, (k, d))
        return (centers[rng.integers(0, k, n)]
                + rng.normal(0, 0.6, (n, d)))

    def test_mmap_restore_continues_bit_identically(self, tmp_path):
        spec = ProblemSpec(k=6, z=20, eps=0.5, dim=2)
        pts = self._clustered(20_000)
        head, tail = pts[:14_000], pts[14_000:]
        snap = str(tmp_path / "s.snap")

        sess = KCenterSession(spec, backend="insertion-only")
        sess.extend(head)
        sess.save(snap)

        plain = KCenterSession.load(snap, backend="insertion-only")
        mdir = tmp_path / "maps"
        mdir.mkdir()
        mapped = KCenterSession.load(snap, backend="insertion-only",
                                     mmap_dir=str(mdir))
        assert os.listdir(mdir), "mmap_dir restore must extract the payload"

        for s in (sess, plain, mapped):
            s.extend(tail)
        _assert_same_state(sess, plain)
        _assert_same_state(sess, mapped)

    def test_read_snapshot_maps_large_members(self, tmp_path):
        spec = ProblemSpec(k=6, z=20, eps=0.5, dim=2)
        sess = KCenterSession(spec, backend="insertion-only")
        sess.extend(self._clustered(5_000))
        snap = str(tmp_path / "s.snap")
        sess.save(snap)

        _, pay_ram = read_snapshot(snap)
        mdir = tmp_path / "maps"
        mdir.mkdir()
        n_mapped = 0

        def compare(a, b, path=""):
            nonlocal n_mapped
            if isinstance(a, dict):
                assert set(a) == set(b), path
                for key in a:
                    compare(a[key], b[key], f"{path}/{key}")
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, np.asarray(b)), path
                if isinstance(b, np.memmap):
                    n_mapped += 1
            else:
                assert a == b, path

        _, pay_map = read_snapshot(snap, mmap_dir=str(mdir),
                                   mmap_threshold=1024)
        compare(pay_ram, pay_map)
        assert n_mapped > 0, "large STORED members must come back memmapped"


class TestReplayChunks:
    def test_matches_per_event_replay(self):
        pts = _stream("insertion-only", seed=77, n=300)
        by_event = _make("insertion-only")
        replay(insertion_stream(pts), by_event.backend)
        by_chunk = _make("insertion-only")
        n = replay_chunks(from_array(pts), by_chunk.backend, batch=41)
        assert n == 300
        cs_a, cs_b = by_event.coreset(), by_chunk.coreset()
        assert np.array_equal(cs_a.points, cs_b.points)
        assert np.array_equal(cs_a.weights, cs_b.weights)

    def test_insert_only_sink_fallback(self):
        pts = _stream("insertion-only", seed=5, n=50)

        class Sink:
            def __init__(self):
                self.rows = []

            def insert(self, p):
                self.rows.append(np.asarray(p, dtype=float))

        sink = Sink()
        assert replay_chunks(iter([pts]), sink, batch=7) == 50
        assert np.array_equal(np.vstack(sink.rows), pts)

    def test_rejects_weighted_chunks(self):
        pts = _stream("insertion-only", seed=6, n=20)
        w = np.ones(20, dtype=np.int64)
        sess = _make("insertion-only")
        with pytest.raises(ValueError):
            replay_chunks(iter([(pts, w)]), sess.backend)
