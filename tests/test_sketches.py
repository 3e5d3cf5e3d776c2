"""Unit tests for repro.sketches (hashing, s-sparse, F0) and the 1-sparse
cells of the frozen reference oracle."""

import numpy as np
import pytest
from _sparse_recovery_reference import OneSparseCell

from repro.sketches import (
    MERSENNE_P,
    F0Estimator,
    KWiseHash,
    SSparseRecovery,
)


class TestKWiseHash:
    def test_range(self, rng):
        h = KWiseHash(97, k=2, rng=rng)
        vals = h(np.arange(1000))
        assert vals.min() >= 0 and vals.max() < 97

    def test_deterministic(self, rng):
        h = KWiseHash(97, k=2, rng=rng)
        assert h.hash_int(42) == h.hash_int(42)
        assert h(np.array([42]))[0] == h.hash_int(42)

    def test_scalar_call(self, rng):
        h = KWiseHash(10, rng=rng)
        assert isinstance(h(5), int)

    def test_spread(self, rng):
        h = KWiseHash(16, k=2, rng=rng)
        counts = np.bincount(h(np.arange(4096)), minlength=16)
        # pairwise-independent hash should be roughly balanced
        assert counts.min() > 128 and counts.max() < 512

    def test_independent_instances_differ(self):
        a = KWiseHash(1000, rng=np.random.default_rng(1))
        b = KWiseHash(1000, rng=np.random.default_rng(2))
        vals_a, vals_b = a(np.arange(100)), b(np.arange(100))
        assert (vals_a != vals_b).any()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            KWiseHash(0, rng=rng)
        with pytest.raises(ValueError):
            KWiseHash(10, k=0, rng=rng)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_vectorized_call_equals_hash_int(self, k):
        p = MERSENNE_P
        keys = [0, 1, 2, p - 2, p - 1, p, p + 1, 2 * p, 2**62, 2**63 - 1]
        keys += np.random.default_rng(k).integers(0, 2**63 - 1, size=50).tolist()
        for m in (1, 97, 2**31, 1 << 62):
            h = KWiseHash(m, k=k, rng=np.random.default_rng(k))
            assert h(np.array(keys, dtype=np.int64)).tolist() == \
                [h.hash_int(key) for key in keys]


class TestOneSparseCell:
    def test_empty_cell(self):
        c = OneSparseCell(zeta=7)
        assert c.is_zero and c.decode() is None

    def test_singleton_decodes(self):
        c = OneSparseCell(zeta=12345)
        c.update(42, 3)
        assert c.decode() == (42, 3)

    def test_insert_delete_cancels(self):
        c = OneSparseCell(zeta=12345)
        c.update(42, 2)
        c.update(42, -2)
        assert c.is_zero

    def test_collision_detected(self):
        c = OneSparseCell(zeta=987654321)
        c.update(10, 1)
        c.update(20, 1)
        assert c.decode() is None  # ws/w = 15, fingerprint mismatch whp

    def test_collision_resolves_after_removal(self):
        c = OneSparseCell(zeta=987654321)
        c.update(10, 1)
        c.update(20, 1)
        c.subtract_item(20, 1)
        assert c.decode() == (10, 1)

    def test_negative_total_no_decode(self):
        c = OneSparseCell(zeta=3)
        c.update(5, -2)
        assert c.decode() is None

    def test_key_zero(self):
        c = OneSparseCell(zeta=3)
        c.update(0, 4)
        assert c.decode() == (0, 4)


class TestSSparseRecovery:
    def test_exact_recovery_under_capacity(self, rng):
        sk = SSparseRecovery(16, 10**9, rng=rng)
        truth = {int(rng.integers(0, 10**9)): int(rng.integers(1, 10)) for _ in range(12)}
        for k, v in truth.items():
            sk.update(k, v)
        res = sk.decode()
        assert res.success and res.items == truth

    def test_recovery_after_deletions(self, rng):
        sk = SSparseRecovery(10, 10**6, rng=rng)
        for i in range(300):
            sk.update(i, 1)
        for i in range(295):
            sk.update(i, -1)
        res = sk.decode()
        assert res.success
        assert res.items == {i: 1 for i in range(295, 300)}

    def test_overload_detected(self, rng):
        sk = SSparseRecovery(8, 10**6, rng=rng)
        for i in range(200):
            sk.update(i * 7 + 1, 1)
        assert not sk.decode().success

    def test_empty_sketch(self, rng):
        sk = SSparseRecovery(4, 100, rng=rng)
        res = sk.decode()
        assert res.success and res.items == {}
        assert sk.is_empty

    def test_update_validation(self, rng):
        sk = SSparseRecovery(4, 100, rng=rng)
        with pytest.raises(ValueError):
            sk.update(100, 1)
        with pytest.raises(ValueError):
            sk.update(-1, 1)

    def test_zero_delta_noop(self, rng):
        sk = SSparseRecovery(4, 100, rng=rng)
        sk.update(5, 0)
        assert sk.is_empty

    def test_update_many(self, rng):
        sk = SSparseRecovery(8, 1000, rng=rng)
        sk.update_many([1, 2, 3], 1)
        sk.update_many([2], -1)
        assert sk.decode().items == {1: 1, 3: 1}

    def test_update_many_is_all_or_nothing(self, rng):
        # one key outside the universe rejects the whole batch: the valid
        # key before it must not stay applied
        sk = SSparseRecovery(4, 100, rng=rng)
        with pytest.raises(ValueError, match="outside universe"):
            sk.update_many([5, 500], [1, 1])
        assert sk.is_empty
        assert sk.decode().items == {}
        assert sk.snapshot()["updates"] == 0

    def test_storage_cells_accounting(self, rng):
        sk = SSparseRecovery(16, 10**6, delta=0.01, rng=rng)
        assert sk.storage_cells == sk.rows * sk.buckets
        assert sk.buckets >= 2 * 16

    def test_decode_nondestructive(self, rng):
        sk = SSparseRecovery(8, 100, rng=rng)
        sk.update(7, 2)
        assert sk.decode().items == {7: 2}
        assert sk.decode().items == {7: 2}

    def test_weighted_counts_exact(self, rng):
        sk = SSparseRecovery(8, 1000, rng=rng)
        sk.update(10, 1000000)
        sk.update(20, 5)
        res = sk.decode()
        assert res.items == {10: 1000000, 20: 5}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            SSparseRecovery(0, 10, rng=rng)
        with pytest.raises(ValueError):
            SSparseRecovery(5, 0, rng=rng)


class TestF0Estimator:
    def test_exact_when_small(self, rng):
        f0 = F0Estimator(10**6, eps=0.5, rng=rng)
        for i in range(20):
            f0.update(i * 31 + 2, 1)
        assert f0.estimate() == 20.0

    def test_deletions(self, rng):
        f0 = F0Estimator(10**6, eps=0.5, rng=rng)
        for i in range(50):
            f0.update(i, 1)
        for i in range(50):
            f0.update(i, -1)
        assert f0.estimate() == 0.0

    def test_large_approximate(self, rng):
        f0 = F0Estimator(10**6, eps=0.5, rng=rng)
        n = 2000
        for i in range(n):
            f0.update(i * 17 + 3, 1)
        est = f0.estimate()
        assert 0.4 * n <= est <= 2.5 * n  # generous; median of 3 instances

    def test_at_most_thresholding(self, rng):
        f0 = F0Estimator(10**6, eps=0.5, rng=rng)
        for i in range(30):
            f0.update(i, 1)
        assert f0.at_most(30)
        assert not f0.at_most(5)

    def test_key_validation(self, rng):
        f0 = F0Estimator(100, rng=rng)
        with pytest.raises(ValueError):
            f0.update(100, 1)

    def test_update_many_is_all_or_nothing(self, rng):
        f0 = F0Estimator(100, rng=rng)
        with pytest.raises(ValueError, match="outside universe"):
            f0.update_many([5, 100], [1, 1])
        assert f0.estimate() == 0.0

    def test_eps_validation(self, rng):
        with pytest.raises(ValueError):
            F0Estimator(100, eps=0.0, rng=rng)
        with pytest.raises(ValueError):
            F0Estimator(100, eps=1.5, rng=rng)

    def test_storage_accounting(self, rng):
        f0 = F0Estimator(10**4, eps=0.5, repetitions=2, rng=rng)
        assert f0.storage_cells > 0
