"""MPC example: clustering a distributed sensor fleet with faulty units.

Scenario from the paper's motivation (§1): telemetry from a fleet is
sharded across machines; most readings form k operational regimes, but a
batch of faulty sensors produced garbage — and, adversarially, the
entire faulty batch landed on ONE worker (e.g. one ingestion shard
handled the bad firmware rollout).  The 'mpc-two-round' backend
(Algorithm 2) handles this: its first round lets every machine guess its
local outlier count, so the faulty worker budgets ~z while healthy
workers budget 0.  The registry makes the baseline comparison one string
away: 'cpp-mpc-deterministic' must budget z on every machine.

The ``executor``/``jobs`` session options fan the per-machine work out
over a real worker pool (here: 4 threads — the distance kernels release
the GIL); results are bit-identical to a serial run.

Run:  python examples/mpc_sensor_fleet.py
"""

import numpy as np

from repro.api import KCenterSession, ProblemSpec
from repro.mpc import partition_adversarial_outliers
from repro.workloads import clustered_with_outliers

rng = np.random.default_rng(7)
n, m = 6000, 12
spec = ProblemSpec(k=4, z=120, eps=0.5, dim=3, seed=0)
pool = {"executor": "thread", "jobs": 4}

wl = clustered_with_outliers(n, spec.k, spec.z, d=spec.dim, rng=rng)
P = wl.point_set()
adversarial = lambda pts: partition_adversarial_outliers(  # noqa: E731
    pts, wl.outlier_mask, m, rng
)
print(f"fleet: {n} readings over {m} machines, k={spec.k} regimes, "
      f"z={spec.z} faulty")
print(f"execution: {pool['executor']} pool, jobs={pool['jobs']} "
      f"(bit-identical to serial)")
print(f"outliers per machine: "
      f"{[int(wl.outlier_mask.sum()) if i == 1 else 0 for i in range(m)][:6]} ...")

# -- Algorithm 2 through the facade ------------------------------------------
ours = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                num_machines=m, partition=adversarial, **pool)
ours.extend(P.points)
sol = ours.solve()
res = ours.backend.last_result
print("\ndeterministic 2-round (Algorithm 2):")
print(f"  per-machine outlier budgets: {res.extras['outlier_budgets']}")
print(f"  sum of budgets {sum(res.extras['outlier_budgets'])} <= 2z = {2 * spec.z}")
print(f"  coreset size {sol.coreset_size}, coordinator peak "
      f"{res.stats.coordinator_peak} items,")
print(f"  worker peak {res.stats.worker_peak} items, rounds {res.stats.rounds}")

# -- baseline: CPP19 must budget z on EVERY machine ---------------------------
base = KCenterSession.from_spec(spec, backend="cpp-mpc-deterministic",
                                num_machines=m, partition=adversarial, **pool)
base.extend(P.points)
bsol = base.solve()
bres = base.backend.last_result
print("\nCPP19 deterministic 1-round baseline:")
print(f"  coreset size {bsol.coreset_size}, coordinator peak "
      f"{bres.stats.coordinator_peak} items")

# -- end-to-end quality --------------------------------------------------------
full = KCenterSession.from_spec(spec, backend="offline")
full.extend(P.points)
r_full = full.solve().radius
print(f"\nclustering radius: offline {r_full:.3f} | ours {sol.radius:.3f} "
      f"| baseline {bsol.radius:.3f}")
print(f"storage advantage at this z: coordinator {bres.stats.coordinator_peak} -> "
      f"{res.stats.coordinator_peak} items "
      f"({bres.stats.coordinator_peak / res.stats.coordinator_peak:.2f}x)")
