"""Parity tests: for every registered backend, a `KCenterSession` over a
replayed stream must produce exactly the same coreset (and radius) as
driving the underlying class/function directly.

These are the facade's correctness contract — the session adds
provenance and batching, never different math.  For the insertion-only
structures the comparison is also batched-vs-scalar (the vectorized
`extend` is required to be bit-identical to per-point `insert`, and
measurably faster)."""

import time

import numpy as np
import pytest

from repro.api import KCenterSession, ProblemSpec
from repro.core import charikar_greedy, mbc_construction
from repro.mpc import (
    ceccarello_one_round_deterministic,
    ceccarello_one_round_randomized,
    multi_round_coreset,
    one_round_coreset,
    partition_contiguous,
    partition_random,
    two_round_coreset,
)
from repro.streaming import (
    CeccarelloStreamingCoreset,
    DeterministicDynamicCoreset,
    DynamicCoreset,
    InsertionOnlyCoreset,
    SlidingWindowCoreset,
)

K, Z, EPS, D, SEED = 3, 6, 0.5, 2, 42
N_MACHINES = 4


@pytest.fixture
def spec():
    return ProblemSpec(k=K, z=Z, eps=EPS, dim=D, seed=SEED)


@pytest.fixture
def stream():
    rng = np.random.default_rng(9)
    pts = np.concatenate([
        rng.normal((0, 0), 0.4, (150, 2)),
        rng.normal((12, 5), 0.4, (150, 2)),
        rng.normal((-6, 9), 0.4, (150, 2)),
        rng.uniform(50, 80, (6, 2)),
    ])
    rng.shuffle(pts)
    return pts


@pytest.fixture
def int_stream(stream):
    return np.clip(np.abs(stream).astype(np.int64) + 1, 1, 128)


def assert_same_coreset(a, b):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def timed_ingest(batched: bool) -> "tuple[float, KCenterSession]":
    """Feed one 10k-point, 4-cluster stream to a capped insertion-only
    session by one ``extend`` or by an ``insert`` loop; return the wall
    time of the ingest and the session."""
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.normal(c, 0.5, (2500, 2))
                          for c in [(0, 0), (10, 0), (0, 10), (10, 10)]])
    rng.shuffle(pts)
    sess = KCenterSession.from_spec(ProblemSpec(k=4, z=20, eps=0.5, dim=2, seed=0),
                                    backend="insertion-only", size_cap=400)
    t0 = time.perf_counter()
    if batched:
        sess.extend(pts)
    else:
        for p in pts:
            sess.insert(p)
    return time.perf_counter() - t0, sess


def assert_same_radius(a, b):
    ra = charikar_greedy(a, K, Z).radius if len(a) else 0.0
    rb = charikar_greedy(b, K, Z).radius if len(b) else 0.0
    assert ra == rb


class TestStreamingParity:
    def test_insertion_only(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        sess.extend(stream)
        direct = InsertionOnlyCoreset(K, Z, EPS, D)
        for p in stream:
            direct.insert(p)
        assert_same_coreset(sess.coreset(), direct.coreset())
        assert sess.backend.algo.r == direct.r
        assert sess.backend.algo.doublings == direct.doublings
        assert_same_radius(sess.coreset(), direct.coreset())

    def test_insertion_only_capped(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="insertion-only",
                                        size_cap=60)
        sess.extend(stream)
        direct = InsertionOnlyCoreset(K, Z, EPS, D, size_cap=60)
        for p in stream:
            direct.insert(p)
        assert_same_coreset(sess.coreset(), direct.coreset())
        assert sess.backend.algo.doublings == direct.doublings

    def test_ceccarello_stream(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="ceccarello-stream")
        sess.extend(stream)
        direct = CeccarelloStreamingCoreset(K, Z, EPS, D)
        for p in stream:
            direct.insert(p)
        assert_same_coreset(sess.coreset(), direct.coreset())

    def test_batched_extend_beats_insert_loop(self):
        """Same structure, and > 1.1x faster, best of up to 3 pairs: one
        stall on a shared runner must not decide a claim about the code."""
        t_loop, s_loop = timed_ingest(batched=False)
        t_batch, s_batch = timed_ingest(batched=True)
        assert_same_coreset(s_loop.coreset(), s_batch.coreset())
        assert s_loop.backend.algo.r == s_batch.backend.algo.r
        speedups = [t_loop / t_batch]
        while speedups[-1] <= 1.1 and len(speedups) < 3:
            speedups.append(timed_ingest(False)[0] / timed_ingest(True)[0])
        assert max(speedups) > 1.1, f"batched extend vs insert loop: {speedups}"

    def test_mixed_insert_and_extend(self, spec, stream):
        """Interleaving scalar and batched ingest replays the same stream."""
        sess = KCenterSession.from_spec(spec, backend="insertion-only")
        sess.insert(stream[0])
        sess.extend(stream[1:200])
        sess.insert(stream[200])
        sess.extend(stream[201:])
        direct = InsertionOnlyCoreset(K, Z, EPS, D)
        for p in stream:
            direct.insert(p)
        assert_same_coreset(sess.coreset(), direct.coreset())


class TestDynamicParity:
    def test_dynamic(self, spec, int_stream):
        sess = KCenterSession.from_spec(spec, backend="dynamic",
                                        delta_universe=128, s_override=64)
        sess.extend(int_stream)
        for p in int_stream[:100]:
            sess.delete(p)
        direct = DynamicCoreset(K, Z, EPS, 128, D,
                                rng=np.random.default_rng(SEED), s_override=64)
        for p in int_stream:
            direct.insert(p)
        for p in int_stream[:100]:
            direct.delete(p)
        assert_same_coreset(sess.coreset(), direct.coreset())
        assert sess.backend.algo.updates_seen == direct.updates_seen

    def test_dynamic_deterministic(self, spec, int_stream):
        sess = KCenterSession.from_spec(spec, backend="dynamic-deterministic",
                                        delta_universe=128, s_override=64)
        sess.extend(int_stream)
        sess.delete_many(int_stream[:100])
        direct = DeterministicDynamicCoreset(K, Z, EPS, 128, D, s_override=64)
        for p in int_stream:
            direct.insert(p)
        for p in int_stream[:100]:
            direct.delete(p)
        assert_same_coreset(sess.coreset(), direct.coreset())


class TestSlidingWindowParity:
    def test_sliding_window(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="sliding-window",
                                        window=100, r_min=0.05, r_max=300.0)
        sess.extend(stream)
        direct = SlidingWindowCoreset(K, Z, EPS, D, 100,
                                      r_min=0.05, r_max=300.0)
        for p in stream:
            direct.insert(p)
        assert_same_coreset(sess.coreset(), direct.coreset())
        assert_same_radius(sess.coreset(), direct.coreset())


class TestMPCParity:
    def _parts(self, stream, random=False):
        from repro import WeightedPointSet

        P = WeightedPointSet.from_points(stream)
        if random:
            return P, partition_random(P, N_MACHINES,
                                       np.random.default_rng(SEED + 1))
        return P, partition_contiguous(P, N_MACHINES)

    def test_two_round(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                        num_machines=N_MACHINES)
        sess.extend(stream)
        _, parts = self._parts(stream)
        direct = two_round_coreset(parts, K, Z, EPS)
        assert_same_coreset(sess.coreset(), direct.coreset)
        res = sess.backend.last_result
        assert res.extras["outlier_budgets"] == direct.extras["outlier_budgets"]
        assert res.eps_guarantee == direct.eps_guarantee

    def test_one_round(self, spec, stream):
        # the facade's random partition draws from spec.rng(salt=1)
        sess = KCenterSession.from_spec(spec, backend="mpc-one-round",
                                        num_machines=N_MACHINES)
        sess.extend(stream)
        _, parts = self._parts(stream, random=True)
        direct = one_round_coreset(parts, K, Z, EPS)
        assert_same_coreset(sess.coreset(), direct.coreset)

    def test_multi_round(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="mpc-multi-round",
                                        num_machines=N_MACHINES, rounds=2,
                                        partition="contiguous")
        sess.extend(stream)
        _, parts = self._parts(stream)
        direct = multi_round_coreset(parts, K, Z, EPS, rounds=2)
        assert_same_coreset(sess.coreset(), direct.coreset)
        assert sess.backend.last_result.eps_guarantee == direct.eps_guarantee

    def test_cpp_deterministic(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="cpp-mpc-deterministic",
                                        num_machines=N_MACHINES)
        sess.extend(stream)
        _, parts = self._parts(stream)
        direct = ceccarello_one_round_deterministic(parts, K, Z, EPS)
        assert_same_coreset(sess.coreset(), direct.coreset)

    def test_cpp_randomized(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="cpp-mpc-randomized",
                                        num_machines=N_MACHINES)
        sess.extend(stream)
        _, parts = self._parts(stream, random=True)
        direct = ceccarello_one_round_randomized(parts, K, Z, EPS)
        assert_same_coreset(sess.coreset(), direct.coreset)


class TestOfflineParity:
    def test_offline(self, spec, stream):
        sess = KCenterSession.from_spec(spec, backend="offline")
        sess.extend(stream)
        from repro import WeightedPointSet

        direct = mbc_construction(
            WeightedPointSet.from_points(stream), K, Z, EPS
        )
        assert_same_coreset(sess.coreset(), direct.coreset)
        assert sess.backend.last_mbc.mini_ball_radius == direct.mini_ball_radius
