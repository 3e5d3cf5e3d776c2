"""Executor parity: serial, thread and process runs are bit-identical.

The determinism contract of :mod:`repro.engine` — order-preserving maps,
SeedSequence-derived task randomness, accounting in the calling process —
means the *same* ``ProblemSpec(seed=...)`` must yield identical coresets,
radii and per-machine peak-storage accounting no matter which executor
the MPC backends fan out over.  The executor is a session option
(``executor``/``jobs``), never part of the spec.
"""

import hashlib

import numpy as np
import pytest

from repro.api import KCenterSession, ProblemSpec
from repro.mpc import one_round_coreset, partition_adversarial_outliers, two_round_coreset
from repro.workloads import clustered_with_outliers

MPC_BACKENDS = ["mpc-two-round", "mpc-one-round", "mpc-multi-round"]
EXECUTORS = ["serial", "thread", "process"]

#: per backend, recorded before the MPC coordinator step was shared:
#: (sha256 prefix of the coreset's little-endian points + weights bytes,
#: coreset size, eps_guarantee, rounds, per_machine_peak,
#: total_communication) on :func:`_run`'s instance
PINNED = {
    "mpc-two-round": ("711182e5eba6642b", 96, 1.25, 2, (577, 170, 172, 175, 174, 172), 494),
    "mpc-one-round": ("f4d4ccef3e290b41", 87, 1.25, 1, (577, 148, 124, 108, 166, 158), 347),
    "mpc-multi-round": ("87568a2a4569bee2", 201, 1.25, 2, (467, 429, 145, 150, 138, 148), 407),
    "cpp-mpc-deterministic": ("e9be0588228ce780", 349, 0.5, 1, (484, 145, 147, 139, 139, 144), 349),
    "cpp-mpc-randomized": ("fef5fdcf61dbe76b", 351, 0.5, 1, (492, 151, 122, 110, 165, 162), 351),
}


def _run(backend: str, executor: "str | None" = None, jobs: "int | None" = 2):
    spec = ProblemSpec(k=3, z=16, eps=0.5, dim=2, seed=11)
    wl = clustered_with_outliers(500, spec.k, spec.z, spec.dim,
                                 rng=np.random.default_rng(5))
    sess = KCenterSession.from_spec(spec, backend=backend, num_machines=6,
                                    executor=executor, jobs=jobs)
    sess.extend(wl.points)
    cs = sess.coreset()
    sol = sess.solve()
    return cs, sol, sess.backend.last_result


class TestExecutorParity:
    @pytest.mark.parametrize("backend", MPC_BACKENDS)
    def test_all_executors_bit_identical(self, backend):
        cs0, sol0, res0 = _run(backend, "serial")
        stats0 = res0.stats
        for executor in EXECUTORS[1:]:
            cs, sol, res = _run(backend, executor)
            stats = res.stats
            # identical coreset, bit for bit
            assert np.array_equal(cs0.points, cs.points), executor
            assert np.array_equal(cs0.weights, cs.weights), executor
            # identical solved radius
            assert sol0.radius == sol.radius, executor
            # identical Machine peak-memory accounting
            assert stats0.per_machine_peak == stats.per_machine_peak, executor
            assert stats0.coordinator_peak == stats.coordinator_peak, executor
            assert stats0.worker_peak == stats.worker_peak, executor
            assert stats0.rounds == stats.rounds, executor
            assert stats0.total_communication == stats.total_communication, executor

    @pytest.mark.parametrize("backend", ["cpp-mpc-deterministic", "cpp-mpc-randomized"])
    def test_baseline_backends_honor_executor(self, backend):
        cs0, sol0, res0 = _run(backend, "serial")
        cs, sol, res = _run(backend, "thread")
        assert np.array_equal(cs0.points, cs.points)
        assert sol0.radius == sol.radius
        assert res0.stats.per_machine_peak == res.stats.per_machine_peak

    @pytest.mark.parametrize("backend", sorted(PINNED))
    def test_accounting_pinned(self, backend):
        cs, _, res = _run(backend, jobs=None)
        raw = np.concatenate([cs.points.ravel(), cs.weights]).astype("<f8").tobytes()
        s = res.stats
        assert (hashlib.sha256(raw).hexdigest()[:16], len(cs), res.eps_guarantee, s.rounds,
                s.per_machine_peak, s.total_communication) == PINNED[backend]

    @pytest.mark.parametrize("protocol", [two_round_coreset, one_round_coreset])
    def test_protocol_thread_identical(self, protocol, rng):
        # the protocols directly: coreset, accounting and extras (Algorithm
        # 2's rhat/jhats) match a serial run
        wl = clustered_with_outliers(400, 3, 12, d=2, rng=rng)
        parts = partition_adversarial_outliers(wl.point_set(), wl.outlier_mask, 5, rng)
        seq = protocol(parts, 3, 12, 0.5)
        par = protocol(parts, 3, 12, 0.5, executor="thread")
        assert np.array_equal(seq.coreset.points, par.coreset.points)
        assert np.array_equal(seq.coreset.weights, par.coreset.weights)
        assert (seq.stats, seq.extras) == (par.stats, par.extras)

    def test_jobs_alone_implies_threads(self):
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                        num_machines=2, jobs=3)
        assert sess.backend.executor.name == "thread"
        assert sess.backend.executor.jobs == 3

    def test_no_knobs_defers_to_legacy_parallel(self):
        # neither executor nor jobs: the machines run serially
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                        num_machines=2)
        assert sess.backend.executor.name == "serial"

    def test_spec_validation(self):
        # executor knobs are session options, checked by the backend
        spec = ProblemSpec(k=2, z=4, eps=0.5)
        with pytest.raises(ValueError):
            KCenterSession.from_spec(spec, backend="mpc-two-round", jobs=0)
        with pytest.raises(TypeError):
            KCenterSession.from_spec(spec, backend="mpc-two-round", executor=7)
