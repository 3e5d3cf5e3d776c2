"""Experiment drivers regenerating Table 1 (and the figures) — see the
per-experiment index ``python -m repro.experiments --list``.

Each driver returns :class:`~repro.experiments.report.Row` lists; the
benchmarks print them and time the core operation.  Absolute numbers are
simulator-scale; the claims under reproduction are the *shapes*: who wins,
how storage grows in each parameter, where the lower-bound mechanisms
bite.
"""

from __future__ import annotations

import numpy as np

from ..api import KCenterSession, ProblemSpec
from ..core.greedy import charikar_greedy
from ..core.points import WeightedPointSet
from ..core.solver import continuous_opt_1d
from ..lowerbounds.adversary import (
    DroppingMaintainer,
    ExactMaintainer,
    attack_lemma12,
    attack_lemma15,
)
from ..lowerbounds.geometry_checks import claim38_check, claim39_radius, lemma41_gap
from ..lowerbounds.insertion_only import Lemma12Instance, Lemma15Instance
from ..lowerbounds.dynamic import Theorem28Instance
from ..lowerbounds.sliding_window import Theorem30Instance
from ..mpc.partition import (
    partition_adversarial_outliers,
    partition_random,
    recommended_num_machines,
)
from ..streaming.mccutchen_khuller import McCutchenKhuller
from ..workloads.synthetic import (
    clustered_with_outliers,
    drifting_stream,
    integer_workload,
)
from .report import Row

__all__ = [
    "mpc_one_round_rows",
    "mpc_two_round_rows",
    "mpc_multi_round_rows",
    "streaming_insertion_rows",
    "dynamic_rows",
    "sliding_window_rows",
    "insertion_lb_rows",
    "omega_z_lb_rows",
    "dynamic_lb_rows",
    "sliding_lb_rows",
    "geometry_rows",
    "coreset_quality_rows",
]


def _quality(full: WeightedPointSet, coreset: WeightedPointSet, k: int, z: int,
             metric=None) -> float:
    """Radius achieved by solving on the coreset, relative to solving on
    the full set (both via the 3-approximation) — the end-to-end quality
    metric of the paper's 'run an offline algorithm on the coreset'
    recipe.  Values near 1 mean the coreset loses nothing."""
    r_full = charikar_greedy(full, k, z, metric).radius
    if len(coreset) == 0:
        return float("nan")
    r_core = charikar_greedy(coreset, k, z, metric).radius
    return float(r_core / r_full) if r_full > 0 else float("nan")


# ---------------------------------------------------------------------------
# E1 / E2 / E3 — MPC rows of Table 1
# ---------------------------------------------------------------------------

def _mpc_session(
    spec: ProblemSpec, backend: str, P: WeightedPointSet, parts, **options
) -> KCenterSession:
    """Build an MPC-model session over a fixed pre-computed partition."""
    sess = KCenterSession.from_spec(
        spec, backend=backend, partition=lambda _: parts, **options
    )
    sess.backend.extend_weighted(P)
    return sess


def mpc_one_round_rows(
    n: int = 3000, k: int = 4, eps: float = 0.5, d: int = 2,
    z_values=(8, 32, 128), seed: int = 0,
) -> "list[Row]":
    """E1 — Table 1 rows 1-2: randomized 1-round, ours versus CPP19,
    under random distribution; storage versus ``z``."""
    rows = []
    for z in z_values:
        rng = np.random.default_rng(seed)
        wl = clustered_with_outliers(n, k, z, d, rng=rng)
        P = wl.point_set()
        spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
        m = recommended_num_machines(n, k, z, eps, d)
        parts = partition_random(P, m, rng)
        for name, backend in (
            ("ours-1round", "mpc-one-round"), ("cpp19-rand", "cpp-mpc-randomized"),
        ):
            sess = _mpc_session(spec, backend, P, parts)
            cs = sess.coreset()
            res = sess.backend.last_result
            rows.append(Row(
                "E1", name, {"n": n, "z": z, "m": m, "eps": eps},
                {
                    "coord_peak": res.stats.coordinator_peak,
                    "worker_peak": res.stats.worker_peak,
                    "coreset": len(cs),
                    "quality": _quality(P, cs, k, z),
                },
            ))
    return rows


def mpc_two_round_rows(
    n: int = 3000, k: int = 4, eps: float = 0.5, d: int = 2,
    z_values=(8, 32, 128), m: int = 8, seed: int = 0,
) -> "list[Row]":
    """E2 — Table 1 rows 3-4: deterministic algorithms under an
    *adversarial* partition (all outliers on one worker).  CPP19 must
    budget ``z`` on every machine; ours guesses budgets summing to
    ``<= 2z`` (the §3 mechanism)."""
    rows = []
    for z in z_values:
        rng = np.random.default_rng(seed)
        wl = clustered_with_outliers(n, k, z, d, rng=rng)
        P = wl.point_set()
        spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
        parts = partition_adversarial_outliers(P, wl.outlier_mask, m, rng)
        ours = _mpc_session(spec, "mpc-two-round", P, parts)
        base = _mpc_session(spec, "cpp-mpc-deterministic", P, parts)
        ours_cs, base_cs = ours.coreset(), base.coreset()
        budget_total = sum(ours.backend.last_result.extras["outlier_budgets"])
        for name, sess, cs in (
            ("ours-2round", ours, ours_cs), ("cpp19-det", base, base_cs),
        ):
            res = sess.backend.last_result
            rows.append(Row(
                "E2", name, {"n": n, "z": z, "m": m, "eps": eps},
                {
                    "coord_peak": res.stats.coordinator_peak,
                    "worker_peak": res.stats.worker_peak,
                    "coreset": len(cs),
                    "rounds": res.stats.rounds,
                    "budget_sum": budget_total if name == "ours-2round" else m * z,
                    "quality": _quality(P, cs, k, z),
                },
            ))
    return rows


def mpc_multi_round_rows(
    n: int = 3000, k: int = 4, z: int = 32, eps: float = 0.3, d: int = 2,
    m: int = 27, rounds_values=(1, 2, 3), seed: int = 0,
) -> "list[Row]":
    """E3 — Table 1 row 5: the rounds/storage trade-off of Algorithm 7."""
    rng = np.random.default_rng(seed)
    wl = clustered_with_outliers(n, k, z, d, rng=rng)
    P = wl.point_set()
    spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
    parts = partition_random(P, m, rng)
    rows = []
    for R in rounds_values:
        sess = _mpc_session(spec, "mpc-multi-round", P, parts, rounds=R)
        cs = sess.coreset()
        res = sess.backend.last_result
        rows.append(Row(
            "E3", f"ours-R{R}", {"n": n, "z": z, "m": m, "R": R, "eps": eps},
            {
                "coord_peak": res.stats.coordinator_peak,
                "max_peak": max(res.stats.per_machine_peak),
                "coreset": len(cs),
                "eps_guarantee": res.eps_guarantee,
                "quality": _quality(P, cs, k, z),
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E4 — insertion-only streaming
# ---------------------------------------------------------------------------

def streaming_insertion_rows(
    n: int = 4000, k: int = 3, d: int = 1,
    eps_values=(1.0, 0.5, 0.25), z_values=(8, 64), seed: int = 0,
) -> "list[Row]":
    """E4 — Table 1 rows 6-8: ours versus CPP19 storage, against the
    Omega(k/eps^d + z) lower-bound value."""
    rows = []
    for eps in eps_values:
        for z in z_values:
            rng = np.random.default_rng(seed)
            stream = drifting_stream(n, k, z, d, rng=rng)
            P = WeightedPointSet.from_points(stream)
            spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
            lb = int(k / (eps**d) + z)
            for name, backend in (
                ("ours-stream", "insertion-only"),
                ("cpp19-stream", "ceccarello-stream"),
            ):
                sess = KCenterSession.from_spec(spec, backend=backend)
                sess.extend(stream)
                st = sess.stats()
                rows.append(Row(
                    "E4", name, {"n": n, "z": z, "eps": eps},
                    {
                        "stored": st["stored"], "threshold": st["threshold"],
                        "lower_bound": lb,
                        "quality": _quality(P, sess.coreset(), k, z),
                    },
                ))
            mk = McCutchenKhuller(k, z, eps=max(eps, 0.5))
            mk.extend(stream)
            r_full = charikar_greedy(P, k, z).radius
            rows.append(Row(
                "E4", "mk08", {"n": n, "z": z, "eps": eps},
                {
                    "stored": mk.size,
                    "quality": mk.estimate() / r_full if r_full else float("nan"),
                },
            ))
    return rows


# ---------------------------------------------------------------------------
# E6 — fully dynamic streaming
# ---------------------------------------------------------------------------

def dynamic_rows(
    k: int = 3, z: int = 6, eps: float = 1.0, d: int = 2,
    delta_values=(64, 256, 1024), n: int = 200, deletions: int = 100,
    seed: int = 0,
) -> "list[Row]":
    """E6 — Table 1 row 12: sketch storage versus ``Delta`` and coreset
    quality after a delete-heavy stream."""
    rows = []
    for delta in delta_values:
        rng = np.random.default_rng(seed)
        wl = integer_workload(n, k, z, delta, d, rng=rng)
        spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed + 1)
        sess = KCenterSession.from_spec(spec, backend="dynamic",
                                        delta_universe=delta)
        sess.extend(wl.points)
        sess.delete_many(wl.points[:deletions])
        live = WeightedPointSet.from_points(wl.points[deletions:].astype(float))
        cs = sess.coreset()
        st = sess.stats()
        rows.append(Row(
            "E6", "dynamic-sketch", {"Delta": delta, "n": n, "del": deletions},
            {
                "storage_cells": st["storage_cells"],
                "levels": st["levels"],
                "coreset": len(cs),
                "weight_ok": int(cs.total_weight == live.total_weight),
                "quality": _quality(live, cs, k, z),
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E8 — sliding window
# ---------------------------------------------------------------------------

def sliding_window_rows(
    n: int = 1500, window: int = 300, k: int = 2, d: int = 2,
    eps: float = 0.5, z_values=(2, 8), seed: int = 0,
) -> "list[Row]":
    """E8 — Table 1 rows 9-11: DBMZ-structure storage (per-guess covers
    with z+1 recency buffers) and answer quality versus offline
    recomputation on the exact window."""
    rows = []
    for z in z_values:
        rng = np.random.default_rng(seed)
        stream = drifting_stream(n, k, max(z * 3, 8), d, rng=rng)
        spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
        sess = KCenterSession.from_spec(spec, backend="sliding-window",
                                        window=window, r_min=0.05, r_max=200.0)
        sess.extend(stream)
        wpts = WeightedPointSet.from_points(stream[-window:])
        r_off = charikar_greedy(wpts, k, z).radius
        sol = sess.solve()
        rows.append(Row(
            "E8", "dbmz-window", {"n": n, "W": window, "z": z, "eps": eps},
            {
                "stored": sol.stats["stored"],
                "guesses": sol.stats["guesses"],
                "radius": sol.radius,
                "offline": r_off,
                "quality": sol.radius / r_off if r_off else float("nan"),
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E5 / E11 / E12 — insertion-only lower bounds (Figures 2-4)
# ---------------------------------------------------------------------------

def insertion_lb_rows(
    configs=((2, 2, 1, 1 / 8), (4, 2, 1, 1 / 16), (4, 4, 2, 1 / 16)),
) -> "list[Row]":
    """E5/E11 — the Lemma 12 mechanism: an exact maintainer pays the
    Omega(k/eps^d) storage; dropping any single cluster point is
    certifiably fatal."""
    rows = []
    for k, z, d, eps in configs:
        inst = Lemma12Instance.build(k, z, d, eps)
        exact = attack_lemma12(ExactMaintainer(d), inst)
        rows.append(Row(
            "E5", "exact-maintainer", {"k": k, "z": z, "d": d, "eps": eps},
            {
                "stored": exact.storage, "required": exact.required,
                "survived": int(exact.survived), "violated": int(exact.violated),
            },
        ))
        # attack every cluster point in turn; all must be fatal
        fatal = 0
        for p_star in inst.cluster_points:
            rep = attack_lemma12(DroppingMaintainer(d, p_star), inst)
            fatal += int(rep.violated)
        rows.append(Row(
            "E5", "drop-any-point", {"k": k, "z": z, "d": d, "eps": eps},
            {
                "attacks": len(inst.cluster_points), "fatal": fatal,
                "required": inst.required_storage,
            },
        ))
    return rows


def omega_z_lb_rows(configs=((2, 3), (3, 8), (2, 16))) -> "list[Row]":
    """E12 — the Lemma 15 Omega(z) mechanism on the line."""
    rows = []
    for k, z in configs:
        inst = Lemma15Instance(k, z)
        exact = attack_lemma15(ExactMaintainer(1), inst)
        fatal = 0
        for p in inst.prefix_points():
            rep = attack_lemma15(DroppingMaintainer(1, p), inst)
            fatal += int(rep.violated)
        rows.append(Row(
            "E12", "lemma15", {"k": k, "z": z},
            {
                "required": inst.required_storage,
                "exact_survived": int(exact.survived),
                "attacks": k + z, "fatal": fatal,
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E7 / E13 — dynamic lower bound (Figure 5)
# ---------------------------------------------------------------------------

def dynamic_lb_rows(
    k: int = 2, z: int = 2, d: int = 1, eps: float = 1 / 16,
    delta_values=(2**10, 2**12, 2**16),
) -> "list[Row]":
    """E7/E13 — Theorem 28: required storage grows as log(Delta); the
    scaled cross gadget is fatal at every scale ``m*``."""
    rows = []
    for delta in delta_values:
        inst = Theorem28Instance.build(k, z, d, eps, delta)
        fatal = 0
        attacks = 0
        for m_star in range(1, inst.g + 1):
            key = (0, m_star)
            p_star = inst.group_points[key][0]
            # continuation: opt lower bound (claim) vs coreset upper bound
            # realised by the witness centers on the surviving points +
            # gadget, minus p*
            survivors = [inst.outliers]
            for (i, m), pts in inst.group_points.items():
                if m < m_star or (i, m) == key:
                    survivors.append(pts)
            live = np.concatenate(survivors)
            live = live[~np.all(np.isclose(live, p_star), axis=1)]
            gadget = inst.cross_gadget(p_star, m_star)
            coreset = WeightedPointSet(
                np.concatenate([live, gadget]),
                np.concatenate([
                    np.ones(len(live), dtype=np.int64),
                    np.full(len(gadget), 2, dtype=np.int64),
                ]),
            )
            from ..core.radius import coverage_radius

            centers = inst.witness_centers(p_star, m_star, 0)
            ub = coverage_radius(coreset, centers, z)
            lb = inst.claim_lower_bound(m_star)
            attacks += 1
            fatal += int((1 - eps) * lb > ub + 1e-9)
        rows.append(Row(
            "E7", "theorem28", {"Delta": delta, "k": k, "z": z, "eps": eps},
            {
                "g": inst.g, "required": inst.required_storage,
                "attacks": attacks, "fatal": fatal,
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E14 — sliding-window lower bound (Figures 6-7)
# ---------------------------------------------------------------------------

def sliding_lb_rows(
    k: int = 2, z: int = 3, d: int = 1, eps: float = 1 / 24, g: int = 4,
) -> "list[Row]":
    """E14 — Theorem 30 / Claim 31: at every scale ``j* > 1`` the optimal
    radius drops by more than the ``1 - 3 eps`` tolerance exactly when the
    attacked point expires (exact continuous 1-d optima)."""
    inst = Theorem30Instance.build(k, z, d, eps, g)
    rows = []
    for j_star in range(2, g + 1):
        before, after, bound = inst.claim31_windows(0, j_star, 0)
        rb = continuous_opt_1d(before, k, z)
        ra = continuous_opt_1d(after, k, z)
        rows.append(Row(
            "E14", "theorem30", {"j_star": j_star, "z": z, "eps": eps},
            {
                "opt_before": rb, "opt_after": ra,
                "ratio": ra / rb if rb else float("nan"),
                "bound_1_minus_4eps": bound,
                "required_expirations": inst.required_expirations,
                "violates_1pm_eps": int(ra / rb < 1 - 3 * eps) if rb else 0,
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E15 — appendix geometry (Figure 8)
# ---------------------------------------------------------------------------

def geometry_rows(
    configs=((1, 1 / 8), (1, 1 / 16), (2, 1 / 16), (2, 1 / 32), (3, 1 / 24)),
) -> "list[Row]":
    """E15 — Lemma 41 / Claims 38-39 numeric sweeps."""
    rows = []
    for d, eps in configs:
        ok38, margin = claim38_check(d, eps)
        slack39, cover = claim39_radius(d, eps)
        rows.append(Row(
            "E15", "geometry", {"d": d, "eps": eps},
            {
                "lemma41_gap": lemma41_gap(d, eps),
                "claim38_ok": int(ok38), "claim38_margin": margin,
                "claim39_slack": slack39, "claim39_radius": cover,
            },
        ))
    return rows


# ---------------------------------------------------------------------------
# E9 — coreset quality across all algorithms
# ---------------------------------------------------------------------------

def coreset_quality_rows(
    n: int = 1200, k: int = 3, z: int = 12, d: int = 2, eps: float = 0.5,
    seed: int = 0,
) -> "list[Row]":
    """E9 — end-to-end quality (radius via coreset / radius via full data)
    for every upper-bound algorithm in the library."""
    rng = np.random.default_rng(seed)
    wl = clustered_with_outliers(n, k, z, d, rng=rng)
    P = wl.point_set()
    spec = ProblemSpec(k=k, z=z, eps=eps, dim=d, seed=seed)
    rows = []

    parts = partition_random(P, 8, rng)
    for name, backend, options in (
        ("mpc-2round", "mpc-two-round", {}),
        ("mpc-1round", "mpc-one-round", {}),
        ("mpc-Rround", "mpc-multi-round", {"rounds": 3}),
    ):
        sess = _mpc_session(spec, backend, P, parts, **options)
        cs = sess.coreset()
        rows.append(Row("E9", name, {"eps": eps},
                        {"coreset": len(cs),
                         "quality": _quality(P, cs, k, z)}))
    sess = KCenterSession.from_spec(spec, backend="insertion-only")
    sess.extend(wl.points)
    cs = sess.coreset()
    rows.append(Row("E9", "stream-insertion", {"eps": eps},
                    {"coreset": len(cs), "quality": _quality(P, cs, k, z)}))
    return rows
