"""Tests for Algorithm 2 (deterministic 2-round MPC)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import WeightedPointSet, charikar_greedy, verify_sandwich
from repro.mpc import (
    SimulatedMPC,
    compute_rhat,
    outlier_vector_length,
    partition_adversarial_outliers,
    partition_contiguous,
    two_round_coreset,
)
from repro.workloads import clustered_with_outliers


@pytest.fixture
def adversarial_setup(rng):
    wl = clustered_with_outliers(400, k=3, z=10, d=2, rng=rng)
    P = wl.point_set()
    parts = partition_adversarial_outliers(P, wl.outlier_mask, 5, rng)
    return P, parts, wl


class TestOutlierVectorLength:
    @pytest.mark.parametrize("z,expected", [(0, 1), (1, 2), (2, 3), (3, 3), (7, 4), (8, 5)])
    def test_values(self, z, expected):
        assert outlier_vector_length(z) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            outlier_vector_length(-1)

    def test_budget_covers_z(self):
        # the largest budget 2^(len-1) - 1 must be >= z
        for z in range(0, 200):
            j_max = outlier_vector_length(z) - 1
            assert (1 << j_max) - 1 >= z


class TestComputeRhat:
    def test_single_machine(self):
        v = np.array([5.0, 3.0, 1.0])
        rhat, jh = compute_rhat([v], z=3)
        # r=1 needs j=2, i.e. budget 2^2-1 = 3 <= 2z = 6: feasible, and it
        # is the smallest candidate, so rhat = 1
        assert rhat == 1.0 and jh == [2]

    def test_budget_constraint_forces_larger_r(self):
        # machine needs j=2 (3 outliers) unless r >= 9
        v = np.array([9.0, 6.0, 3.0])
        rhat, jh = compute_rhat([v], z=1)
        # sum(2^j - 1) <= 2 means j <= 1; smallest r with j<=1 is 6
        assert rhat == 6.0 and jh == [1]

    def test_multi_machine_budgets_sum(self):
        vs = [np.array([10.0, 1.0]), np.array([10.0, 1.0]), np.array([2.0, 1.0])]
        rhat, jh = compute_rhat(vs, z=1)
        total = sum((1 << j) - 1 for j in jh)
        assert total <= 2 * 1
        assert rhat <= 10.0

    def test_monotone_candidates(self):
        vs = [np.array([4.0, 2.0, 1.0]) for _ in range(3)]
        rhat, jh = compute_rhat(vs, z=100)
        assert rhat == 1.0  # relaxed budget allows the smallest candidate


class TestTwoRound:
    def test_budgets_sum_at_most_2z(self, adversarial_setup):
        P, parts, wl = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5)
        assert sum(res.extras["outlier_budgets"]) <= 2 * 10

    def test_rounds_is_two(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5)
        assert res.stats.rounds == 2

    def test_coreset_is_valid(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5)
        chk = verify_sandwich(P, res.coreset, 3, 10, res.eps_guarantee)
        assert chk.ok, chk.details

    def test_weight_preserved(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5)
        assert res.coreset.total_weight == P.total_weight

    def test_rhat_certificate(self, adversarial_setup):
        """Lemma 8: rhat <= 3 opt (checked against the greedy certificate
        interval on the full data)."""
        P, parts, _ = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5)
        r_full = charikar_greedy(P, 3, 10).radius  # in [opt, 3 opt]
        assert res.extras["rhat"] <= 3.0 * r_full + 1e-9

    def test_eps_guarantee_value(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        eps = 0.4
        res = two_round_coreset(parts, 3, 10, eps)
        assert res.eps_guarantee == pytest.approx(eps + eps + eps * eps)

    def test_no_final_compress(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        a = two_round_coreset(parts, 3, 10, 0.5, final_compress=True)
        b = two_round_coreset(parts, 3, 10, 0.5, final_compress=False)
        assert len(b.coreset) >= len(a.coreset)
        assert b.eps_guarantee == 0.5
        assert b.coreset.total_weight == P.total_weight

    def test_naive_ablation_single_round(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        res = two_round_coreset(parts, 3, 10, 0.5, outlier_guessing=False)
        assert res.stats.rounds == 1
        assert sum(res.extras["outlier_budgets"]) == 10 * len(parts)
        assert verify_sandwich(P, res.coreset, 3, 10, res.eps_guarantee).ok

    def test_zero_outliers(self, rng):
        wl = clustered_with_outliers(200, k=2, z=0, d=2, rng=rng)
        P = wl.point_set()
        parts = partition_contiguous(P, 4)
        res = two_round_coreset(parts, 2, 0, 0.5)
        assert sum(res.extras["outlier_budgets"]) == 0
        assert verify_sandwich(P, res.coreset, 2, 0, res.eps_guarantee).ok

    def test_single_machine(self, small_set):
        res = two_round_coreset([small_set], 2, 4, 0.5)
        assert verify_sandwich(small_set, res.coreset, 2, 4, res.eps_guarantee).ok

    def test_cluster_size_mismatch_rejected(self, small_set):
        parts = partition_contiguous(small_set, 3)
        with pytest.raises(ValueError):
            two_round_coreset(parts, 2, 4, 0.5, cluster=SimulatedMPC(2))

    def test_empty_machine_handled(self, small_set):
        parts = partition_contiguous(small_set, 3) + [WeightedPointSet.empty(2)]
        res = two_round_coreset(parts, 2, 4, 0.5)
        assert res.coreset.total_weight == small_set.total_weight

    def test_deterministic(self, adversarial_setup):
        P, parts, _ = adversarial_setup
        a = two_round_coreset(parts, 3, 10, 0.5)
        b = two_round_coreset(parts, 3, 10, 0.5)
        assert np.array_equal(a.coreset.points, b.coreset.points)
        assert np.array_equal(a.coreset.weights, b.coreset.weights)


#: a fresh interpreter, since install() patches the repro modules for good
_TRACED_RUN = """import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install()
from repro.core import WeightedPointSet
from repro.mpc import partition_contiguous, two_round_coreset
P = WeightedPointSet(__import__("numpy").random.default_rng(0).random((200, 2)))
two_round_coreset(partition_contiguous(P, 3), 2, 4, 0.5)
print(*tracer.by_name(tracer.TRACER.tree()))"""


def test_benchmark_tracer_hooks_still_fire():
    """The benchmark tracer patches ``two_round.map_machines`` and
    ``two_round.mbc_construction``: both rounds and the coordinator's
    compression must still run through those module names."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-B", "-c", _TRACED_RUN,
                           str(root / "perfbench" / "tracer.py")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = set(proc.stdout.split())
    assert {"mpc.protocol", "mpc.round:radius_vector_task", "mpc.round:mbc_task",
            "mpc.compress"} <= spans, sorted(spans)
