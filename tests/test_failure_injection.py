"""Failure-injection tests: what breaks when contracts are violated, and
that the breakage is *detected* rather than silent."""

import numpy as np

from repro.core import WeightedPointSet, verify_sandwich
from repro.lowerbounds import (
    DroppingMaintainer,
    Lemma12Instance,
    attack_lemma12,
)
from repro.mpc import one_round_coreset, partition_adversarial_outliers
from repro.sketches import SSparseRecovery
from repro.streaming import DynamicCoreset, InsertionOnlyCoreset
from repro.workloads import clustered_with_outliers


class TestRandomizedAlgorithmOnAdversarialInput:
    def test_one_round_underestimates_budget(self, rng):
        """Algorithm 6 run on an ADVERSARIAL partition (violating its
        input model): the per-machine budget z' is exceeded on the victim
        machine, which the union property then cannot repair; the 2-round
        algorithm exists precisely because of this."""
        z = 200
        wl = clustered_with_outliers(800, 2, z, d=2, rng=rng)
        P = wl.point_set()
        parts = partition_adversarial_outliers(P, wl.outlier_mask, 10, rng)
        res = one_round_coreset(parts, 2, z, 0.3)
        # the victim machine holds all z outliers but budgets only z'
        assert res.extras["zprime"] < z
        # weight is still preserved (the failure is geometric, not
        # accounting): the coreset may just be coarser than promised
        assert res.coreset.total_weight == P.total_weight


class TestSketchOverload:
    def test_overload_is_flagged_not_silent(self, rng):
        sk = SSparseRecovery(8, 10**6, rng=rng)
        for i in range(500):
            sk.update(i * 13 + 7, 1)
        res = sk.decode()
        assert not res.success  # overload reported

    def test_dynamic_coreset_skips_overloaded_grids(self, rng):
        """With a tiny s, the finest grids overload; the query must fall
        back to a coarser grid rather than return garbage."""
        dc = DynamicCoreset(1, 0, 1.0, 256, 2, rng=np.random.default_rng(0),
                            s_override=4)
        pts = rng.integers(1, 257, size=(60, 2))
        for p in pts:
            dc.insert(p)
        cs = dc.coreset()
        assert cs.total_weight == 60  # exact counts from the serving grid
        assert dc.selected_level() > 0


class TestTurnstileViolation:
    def test_phantom_delete_corrupts_detectably(self, rng):
        """Deleting a never-inserted point violates the strict-turnstile
        contract; the resulting negative cell weights must not decode into
        phantom positive items at the finest grid."""
        dc = DynamicCoreset(1, 0, 1.0, 64, 2, rng=np.random.default_rng(0))
        dc.insert((10, 10))
        dc.delete((50, 50))  # contract violation
        # level-0 sketch now holds a -1 cell; decode either fails (the cell
        # cannot peel) or reports only the genuine item -- never a phantom
        res = dc._sparse.decode(0)
        if res.success:
            assert all(v > 0 for v in res.items.values())


class TestUndersizedStreamingCap:
    def test_capped_structure_fails_lower_bound_instance(self):
        """Algorithm 3 with a cap below Omega(k/eps^d) either keeps the
        mandatory points anyway or produces a certified violation under
        the Lemma 12 adversary."""
        inst = Lemma12Instance.build(k=6, z=2, d=1, eps=1 / 16)
        st = InsertionOnlyCoreset(6, 2, 1.0, d=1, size_cap=10)
        rep = attack_lemma12(st, inst)
        assert rep.survived or rep.violated

    def test_exactness_of_violation_certificate(self):
        """The adversary's violation is certified: the reported bounds obey
        (1-eps) * opt_full_lb > opt_coreset_ub."""
        inst = Lemma12Instance.build(k=2, z=2, d=1, eps=1 / 8)
        rep = attack_lemma12(DroppingMaintainer(1, inst.cluster_points[0]), inst)
        assert rep.violated
        assert (1 - inst.eps) * rep.opt_full_lb > rep.opt_coreset_ub


class TestDegenerateInputs:
    def test_all_points_identical_everywhere(self, rng):
        P = WeightedPointSet.from_points(np.tile([[3.0, 3.0]], (40, 1)))
        st = InsertionOnlyCoreset(2, 2, 0.5, d=2)
        st.extend(P.points)
        assert st.size == 1
        assert verify_sandwich(P, st.coreset(), 2, 2, 0.5).ok

    def test_fewer_points_than_k_plus_z(self, rng):
        P = WeightedPointSet.from_points(rng.normal(size=(3, 2)))
        st = InsertionOnlyCoreset(5, 5, 0.5, d=2)
        st.extend(P.points)
        assert st.size == 3 and st.r == 0.0
