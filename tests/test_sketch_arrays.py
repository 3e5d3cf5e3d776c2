"""Array sketches against the frozen cell-object oracle.

``tests/_sparse_recovery_reference.py`` holds the per-cell implementation
the stacked arrays replaced.  Built from equal seeds, the two must hold
identical snapshot arrays after every step of an insert/delete stream,
accept the same decodes with the same items, and restore each other's
snapshots (old spools were written by the oracle's code).
"""

import numpy as np
import pytest
from _sparse_recovery_reference import F0Estimator as RefF0
from _sparse_recovery_reference import ReferenceDynamicCoreset
from _sparse_recovery_reference import SSparseRecovery as RefSparse
from hypothesis import given, settings, strategies as st

from repro.sketches import (
    MERSENNE_P,
    F0Estimator,
    SketchOverflowError,
    SSparseRecovery,
)
from repro.sketches.hashing import mulmod, reduce_mod_p
from repro.streaming import DynamicCoreset


def assert_tree_equal(a, b, path=""):
    if isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for key in a:
            assert_tree_equal(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b), path
    else:
        assert a == b, (path, a, b)


def _accepted(res, cap):
    return res.success and (cap is None or len(res.items) <= cap)


def _assert_same_decodes(sk, ref, s):
    for cap in (None, 2 * s + 2):
        got, want = sk.decode(max_items=cap), ref.decode(max_items=cap)
        assert _accepted(got, cap) == _accepted(want, cap), cap
        if _accepted(want, cap):
            assert got.items == want.items


def _stream(seed, universe, steps, max_delta):
    """Seeded strict-turnstile ``(key, delta)`` updates, concentrated on a
    few dozen keys so supports cross the sketch capacity both ways."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, universe, size=40)
    live: "dict[int, int]" = {}
    for _ in range(steps):
        if live and rng.random() < 0.4:
            key = int(rng.choice(sorted(live)))
            delta = -int(rng.integers(1, live[key] + 1))
        else:
            key = int(rng.choice(pool))
            delta = int(rng.integers(1, max_delta + 1))
        live[key] = live.get(key, 0) + delta
        if live[key] == 0:
            del live[key]
        yield key, delta


class TestSparseRecoveryParity:
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 12),
           universe=st.sampled_from([1, 7, 1000, 2**20, 2**40]),
           max_delta=st.sampled_from([1, 5, 1000]))
    @settings(max_examples=40, deadline=None)
    def test_every_step_matches_oracle(self, seed, s, universe, max_delta):
        sk = SSparseRecovery(s, universe, rng=np.random.default_rng(seed))
        ref = RefSparse(s, universe, rng=np.random.default_rng(seed))
        assert sk.params_digest() == ref.params_digest()
        for key, delta in _stream(seed, universe, 50, max_delta):
            sk.update(key, delta)
            ref.update(key, delta)
            assert_tree_equal(sk.snapshot(), ref.snapshot())
            _assert_same_decodes(sk, ref, s)
        # an oracle-written snapshot (an old spool) restores identically
        fresh = SSparseRecovery(s, universe, rng=np.random.default_rng(seed))
        fresh.restore(ref.snapshot())
        assert_tree_equal(fresh.snapshot(), ref.snapshot())
        _assert_same_decodes(fresh, ref, s)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_batched_updates_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 500, size=n)
        deltas = rng.integers(-3, 4, size=n)
        sk = SSparseRecovery(10, 500, rng=np.random.default_rng(seed))
        ref = RefSparse(10, 500, rng=np.random.default_rng(seed))
        sk.update_many(keys, deltas)
        ref.update_many(keys, deltas)
        assert_tree_equal(sk.snapshot(), ref.snapshot())

    def test_overloaded_sketch_rejected_like_oracle(self):
        sk = SSparseRecovery(4, 10**6, rng=np.random.default_rng(3))
        ref = RefSparse(4, 10**6, rng=np.random.default_rng(3))
        keys = np.arange(0, 3000, 7)
        sk.update_many(keys, 1)
        ref.update_many(keys, 1)
        for cap in (None, 10):
            assert not _accepted(sk.decode(cap), cap)
            assert not _accepted(ref.decode(cap), cap)


class TestF0Parity:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120))
    @settings(max_examples=15, deadline=None)
    def test_batched_f0_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 5000, size=n)
        f0 = F0Estimator(5000, rng=np.random.default_rng(seed))
        ref = RefF0(5000, rng=np.random.default_rng(seed))
        f0.update_many(keys, 1)
        for key in keys.tolist():
            ref.update(key, 1)
        half = keys[: n // 2]
        f0.update_many(half, -1)
        for key in half.tolist():
            ref.update(key, -1)
        assert_tree_equal(f0.snapshot(), ref.snapshot())
        assert f0.estimate() == ref.estimate()


class TestDynamicCoresetParity:
    @pytest.mark.parametrize("use_f0", [False, True])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_insert_delete_stream_matches_oracle(self, use_f0, seed):
        rng = np.random.default_rng(seed)
        args = (2, 3, 1.0, 64, 2)
        dc = DynamicCoreset(*args, rng=np.random.default_rng(seed),
                            use_f0=use_f0, s_override=12)
        ref = ReferenceDynamicCoreset(*args, rng=np.random.default_rng(seed),
                                      use_f0=use_f0, s_override=12)
        live = []
        for _ in range(25):
            if live and rng.random() < 0.3:
                batch = live.pop(int(rng.integers(len(live))))
                dc.delete_many(batch)
                ref.delete_many(batch)
            else:
                batch = rng.integers(1, 65, size=(int(rng.integers(1, 8)), 2))
                live.append(batch)
                dc.extend(batch)
                ref.extend(batch)
            assert_tree_equal(dc.snapshot(), ref.snapshot())
            got, want = dc.coreset(), ref.coreset()
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)
        restored = DynamicCoreset(*args, rng=np.random.default_rng(seed),
                                  use_f0=use_f0, s_override=12)
        restored.restore(ref.snapshot())
        assert_tree_equal(restored.snapshot(), ref.snapshot())


class TestExactArithmetic:
    @given(a=st.integers(0, MERSENNE_P - 1), b=st.integers(0, MERSENNE_P - 1))
    @settings(max_examples=200, deadline=None)
    def test_mulmod_is_exact(self, a, b):
        edge = [0, 1, MERSENNE_P - 1, MERSENNE_P - 2, 2**32, 2**32 - 1]
        xs = np.array([a] + edge, dtype=np.uint64)
        ys = np.array([b] * len(xs), dtype=np.uint64)
        got = mulmod(xs, ys).tolist()
        assert got == [int(x) * b % MERSENNE_P for x in xs.tolist()]

    @given(x=st.integers(0, 2**64 - 1))
    def test_reduce_is_exact(self, x):
        assert int(reduce_mod_p(np.array([x], dtype=np.uint64))[0]) == x % MERSENNE_P

    def test_fingerprint_sums_beyond_seven_addends_stay_exact(self):
        # one key updated many times in one batch piles > 7 addends < p
        # onto the same cells; the oracle sums Python ints
        sk = SSparseRecovery(4, 2**40, rng=np.random.default_rng(5))
        ref = RefSparse(4, 2**40, rng=np.random.default_rng(5))
        keys = np.array([2**40 - 1] * 50 + [12345] * 50)
        deltas = np.arange(1, 101) * 977
        sk.update_many(keys, deltas)
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            ref.update(key, delta)
        assert_tree_equal(sk.snapshot(), ref.snapshot())


class TestInt64Bound:
    def test_overflow_raises_typed_error_before_mutation(self):
        # (2^23 + 1) * (2^40 - 1) > 2^63 - 1: the key's cells would wrap
        key = 2**40 - 1
        sk = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        sk.update(key, 2**22)
        before = sk.snapshot()
        with pytest.raises(SketchOverflowError):
            sk.update(key, 2**22 + 1)
        assert_tree_equal(sk.snapshot(), before)
        assert sk.decode().items == {key: 2**22}

    def test_largest_fitting_cell_is_accepted(self):
        # 2^23 * (2^40 - 1) = 2^63 - 2^23 still fits in int64
        key = 2**40 - 1
        sk = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        sk.update(key, 2**22)
        sk.update(key, 2**22)
        assert sk.decode().items == {key: 2**23}
        sk.update(key, -(2**23))
        assert sk.is_empty

    def test_bound_holds_across_restore(self):
        key = 2**40 - 1
        sk = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        sk.update(key, 2**22)
        twin = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        twin.restore(sk.snapshot())
        with pytest.raises(SketchOverflowError):
            twin.update(key, 2**22 + 1)

    def test_churn_on_one_key_outlives_the_running_sum(self):
        # 2^15 unit updates on universe 2^48 exhaust a lifetime |delta|
        # budget; the live mass never exceeds 2^10 here
        sk = SSparseRecovery(4, 2**48, rng=np.random.default_rng(1))
        key = 2**48 - 1
        for _ in range(40):
            sk.update(key, 2**10)
            sk.update(key, -(2**10))
        sk.update(key, 3)
        sk.update(12345, 2**10)
        res = sk.decode()
        assert res.success and res.items == {key: 3, 12345: 2**10}

    def test_dynamic_churn_outlives_the_running_sum(self):
        # delta_universe 2^16 in 3-d: the finest grid's universe is 2^48,
        # so 2^15 total |delta| there would exhaust a lifetime budget
        dc = DynamicCoreset(1, 0, 1.0, 2**16, 3, rng=np.random.default_rng(0),
                            use_f0=False, s_override=4)
        pts = np.repeat(np.array([[2**16, 2**16, 2**16]]), 2**10, axis=0)
        for _ in range(40):
            dc.extend(pts)
            dc.delete_many(pts)
        dc.extend(pts[:3])
        assert dc.updates_seen == 80 * 2**10 + 3
        assert len(dc.coreset()) == 1

    @pytest.mark.parametrize("history, nxt, expected", [
        ([(2**40 - 1, 2**22), (2**40 - 1, -(2**22))], (7, 2**22), "accepted"),
        ([(2**40 - 1, 2**22)], (2**40 - 1, 2**22 + 1), "rejected"),
        ([(2**40 - 1, 2**22)], (2**40 - 1, 2**22), "accepted"),
        ([(2**40 - 1, 2**22), (2**40 - 2, 2**22)], (2**40 - 3, 2**22),
         "rejected"),
        ([(5, 2**22), (6, -(2**21)), (5, -(2**22))], (2**40 - 1, 2**22),
         "accepted"),
    ])
    def test_restored_twin_decides_alike(self, history, nxt, expected):
        def outcome(sketch):
            try:
                sketch.update(*nxt)
            except SketchOverflowError:
                return "rejected"
            return "accepted"

        sk = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        for key, delta in history:
            sk.update(key, delta)
        twin = SSparseRecovery(4, 2**40, rng=np.random.default_rng(0))
        twin.restore(sk.snapshot())
        assert outcome(sk) == outcome(twin) == expected
        assert_tree_equal(sk.snapshot(), twin.snapshot())

    def test_dynamic_batch_overflow_is_all_or_nothing(self):
        dc = DynamicCoreset(1, 0, 1.0, 2**31, 2, rng=np.random.default_rng(0),
                            use_f0=False, s_override=4)
        pt = np.array([[2**31, 2**31]])
        before = dc.snapshot()
        with pytest.raises(SketchOverflowError):
            dc.extend(np.repeat(pt, 3, axis=0))
        assert_tree_equal(dc.snapshot(), before)
        assert dc.updates_seen == 0
