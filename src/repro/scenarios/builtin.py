"""The built-in scenario catalogue.

Each factory materializes a :class:`~repro.scenarios.ScenarioInstance`
deterministically from ``(quick, seed)`` and registers itself under a
stable name, so ``available_scenarios()`` is the single source of truth
for the evaluation matrix, the CLI and the docs catalogue.

The catalogue deliberately spans the failure modes the paper's models
differ on: drift (streaming recompression churn), adversarial insertion
orders (the §4 lower-bound prefixes), duplicate floods (weight
concentration), outlier bursts at the stream tail (outlier-budget
stress), high dimension (the ``1/eps^d`` blow-up), integer grids (the
fully-dynamic input domain) and real point clouds.
"""

from __future__ import annotations

import os

import numpy as np

from ..api.spec import ProblemSpec
from ..lowerbounds.insertion_only import Lemma12Instance
from ..store import PointStore, StoreError
from ..workloads.synthetic import (
    clustered_with_outliers,
    drifting_stream,
    integer_workload,
)
from .datasets import default_data_dir, load_dataset
from .registry import register_scenario
from .scenario import ScenarioInstance

__all__ = ["DEFAULT_BATCHES"]

#: how many ``extend`` batches a stream is split into (storage checkpoints)
DEFAULT_BATCHES = 8


def _split(points: np.ndarray, num: int = DEFAULT_BATCHES) -> "list[np.ndarray]":
    """Split a stream into ``num`` arrival-order batches."""
    return [b for b in np.array_split(np.asarray(points), num) if len(b)]


@register_scenario(
    "clustered-baseline",
    tags=("baseline",),
    description="Gaussian mixture with planted shell outliers, shuffled order",
)
def _clustered_baseline(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Well-separated Gaussian clusters plus uniform shell outliers."""
    n, k, z = (400, 4, 8) if quick else (4000, 4, 32)
    rng = np.random.default_rng(seed)
    w = clustered_with_outliers(n, k, z, d=2, rng=rng)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("clustered-baseline", spec, _split(w.points))


@register_scenario(
    "concentric-drift",
    tags=("drift",),
    description="concentric Gaussian clusters whose labels drift over the stream",
)
def _concentric_drift(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Clusters on a ring; sampling drifts from the first to the last.

    Early stream batches are dominated by cluster 0, late batches by
    cluster ``k-1`` — a coreset that recompresses greedily against early
    structure must keep absorbing new mass elsewhere.
    """
    n, k, z = (400, 4, 8) if quick else (4000, 4, 32)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = 12.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t = np.linspace(0.0, 1.0, n)
    # drift the label distribution: P(cluster i | t) peaks as t crosses i/k
    logits = -8.0 * (t[:, None] - np.arange(k)[None, :] / max(k - 1, 1)) ** 2
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(k, p=p) for p in probs])
    pts = centers[labels] + rng.normal(0.0, 0.6, size=(n, 2))
    out_at = rng.choice(n, size=z, replace=False)
    dirs = rng.normal(size=(z, 2))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    pts[out_at] = dirs * rng.uniform(80.0, 160.0, size=(z, 1))
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("concentric-drift", spec, _split(pts))


@register_scenario(
    "drifting-clusters",
    tags=("drift",),
    description="cluster centres move continuously (workloads.drifting_stream)",
)
def _drifting_clusters(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """The library's drifting-stream generator: centres with velocity."""
    n, k, z = (400, 4, 8) if quick else (4000, 4, 32)
    rng = np.random.default_rng(seed)
    pts = drifting_stream(n, k, z, d=2, drift=0.05, rng=rng)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("drifting-clusters", spec, _split(pts))


@register_scenario(
    "adversarial-insertion",
    tags=("adversarial",),
    description="the §4.1 lower-bound prefix: outliers first, then dense clusters",
)
def _adversarial_insertion(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """The Lemma 12 adversary's prefix as an insertion order.

    All ``z`` outliers arrive before any cluster structure exists, then
    the ``(lambda+1)^d``-point clusters arrive one cluster at a time —
    the exact prefix the storage lower bound is proved on.  ``seed``
    only rotates the cluster arrival order (the construction itself is
    deterministic).
    """
    k, z, lb_eps = (8, 8, 1.0 / 32.0) if quick else (12, 32, 1.0 / 64.0)
    inst = Lemma12Instance.build(k=k, z=z, d=2, eps=lb_eps)
    rng = np.random.default_rng(seed)
    order = rng.permutation(inst.k - 2 * inst.d + 1)
    clusters = [inst.cluster_points[inst.cluster_index == i] for i in order]
    pts = np.concatenate([inst.outliers] + clusters)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance(
        "adversarial-insertion", spec, _split(pts),
        notes=f"Lemma 12 construction: lambda={inst.lam}, h={inst.h}, r={inst.r:.4g}",
    )


@register_scenario(
    "adversarial-sorted",
    tags=("adversarial",),
    description="clustered data in lexicographic order (worst case for "
                "contiguous partitioning)",
)
def _adversarial_sorted(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Clustered stream sorted lexicographically by coordinates.

    Contiguous MPC partitions then receive spatially coherent slices
    (each machine sees few clusters and few outliers), and streaming
    algorithms see each cluster exhausted before the next begins.
    """
    n, k, z = (400, 4, 8) if quick else (4000, 4, 32)
    rng = np.random.default_rng(seed)
    w = clustered_with_outliers(n, k, z, d=2, rng=rng)
    pts = w.points[np.lexsort(w.points.T[::-1])]
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("adversarial-sorted", spec, _split(pts))


@register_scenario(
    "duplicate-flood",
    tags=("heavy-duplicates",),
    description="a handful of distinct sites repeated thousands of times",
)
def _duplicate_flood(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Exact duplicates dominate the stream; weight handling is the test.

    Only ``3k`` distinct in-cluster sites exist; every structure that
    stores points with multiplicity (instead of merging weights) blows
    up, and integer-weight arithmetic in the radius search is exercised
    at high multiplicity.
    """
    n, k, z = (400, 4, 8) if quick else (6000, 4, 32)
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-15.0, 15.0, size=(3 * k, 2))
    idx = rng.integers(0, len(sites), size=n - z)
    pts = sites[idx]
    dirs = rng.normal(size=(z, 2))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    outliers = dirs * rng.uniform(90.0, 180.0, size=(z, 1))
    where = np.sort(rng.choice(n, size=z, replace=False))
    stream = np.insert(pts, np.clip(where - np.arange(z), 0, len(pts)),
                       outliers, axis=0)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("duplicate-flood", spec, _split(stream))


@register_scenario(
    "outlier-burst",
    tags=("outlier-burst",),
    description="clean clustered prefix, all outliers burst in the final batches",
)
def _outlier_burst(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Every planted outlier arrives in the last ~5% of the stream.

    A structure that spent its outlier budget absorbing cluster mass
    early has nothing left when the burst hits; the paper's separate
    ``z`` budget is exactly what this stresses.
    """
    n, k, z = (400, 4, 16) if quick else (4000, 4, 64)
    rng = np.random.default_rng(seed)
    w = clustered_with_outliers(n, k, z, d=2, rng=rng, shuffle=False)
    # unshuffled: rows [0, n-z) are cluster points, [n-z, n) the outliers
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("outlier-burst", spec, _split(w.points))


@register_scenario(
    "sliding-churn",
    tags=("drift", "churn"),
    description="regime changes: cluster centres redrawn every quarter of "
                "the stream",
)
def _sliding_churn(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Piecewise-stationary stream with abrupt regime changes.

    Centres are redrawn from scratch every quarter, so structure built
    for one regime is dead weight in the next; the instance's ``window``
    marks the final regime as the region a sliding-window backend is
    judged over.
    """
    n, k, z = (400, 4, 8) if quick else (4000, 4, 32)
    rng = np.random.default_rng(seed)
    regimes = 4
    per = n // regimes
    chunks = []
    for _ in range(regimes):
        centers = rng.uniform(-20.0, 20.0, size=(k, 2))
        labels = rng.integers(0, k, size=per)
        chunks.append(centers[labels] + rng.normal(0.0, 0.5, size=(per, 2)))
    pts = np.concatenate(chunks)[: n]
    out_at = rng.choice(n, size=z, replace=False)
    dirs = rng.normal(size=(z, 2))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    pts[out_at] = dirs * rng.uniform(100.0, 200.0, size=(z, 1))
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance("sliding-churn", spec, _split(pts), window=per)


@register_scenario(
    "high-dim",
    tags=("high-dim",),
    description="Gaussian clusters in d=16 (the 1/eps^d blow-up regime)",
)
def _high_dim(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Moderate-``n`` clusters in 16 dimensions.

    Size thresholds of the streaming/window structures scale like
    ``1/eps^d``; high ambient dimension is where those thresholds and
    the kernels' norm accumulations are stressed.
    """
    n, k, z, d = (400, 4, 8, 16) if quick else (3000, 4, 32, 16)
    rng = np.random.default_rng(seed)
    w = clustered_with_outliers(n, k, z, d=d, rng=rng)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=d, seed=seed)
    return ScenarioInstance("high-dim", spec, _split(w.points))


@register_scenario(
    "integer-grid",
    tags=("baseline", "integer"),
    description="clustered points on the integer grid [Delta]^2 "
                "(fully-dynamic input domain)",
)
def _integer_grid(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Clusters on ``[Delta]^d`` — the only stream the sketch-based
    fully-dynamic backends can ingest, so this is the scenario that puts
    them into the cross-backend matrix."""
    n, k, z, delta = (400, 4, 8, 1024) if quick else (4000, 4, 32, 1024)
    rng = np.random.default_rng(seed)
    w = integer_workload(n, k, z, delta_universe=delta, d=2,
                         cluster_radius=8, rng=rng)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance(
        "integer-grid", spec, _split(w.points), delta_universe=delta,
    )


def _ooc_clustered_store(n: int, k: int, z: int, d: int, seed: int,
                         chunk_rows: int):
    """Build (or reuse) an on-disk clustered store, chunk by chunk.

    Deterministic in ``(n, k, z, d, seed)``: cluster centres come from
    ``rng(seed)`` and each chunk's labels/noise from an independent
    ``rng([seed, chunk_index])`` child, so the stream is identical
    whether it is generated in one process or resumed — and the store is
    cached under ``$REPRO_DATA_DIR/stores`` keyed by those parameters,
    so repeated sweeps (and the bench ``--store-dir`` path) generate the
    geometry once.  The writer's working set is one chunk: n=10^7 is
    generated without ever holding more than ``chunk_rows`` rows.

    The ``z`` planted outliers sit on a far shell at deterministic,
    evenly spaced stream positions — spread out (not a tail burst) so
    the bounded reference sample sees a proportional share of them.
    """
    root = os.path.join(default_data_dir(), "stores")
    path = os.path.join(root, f"ooc-clustered-n{n}-k{k}-z{z}-d{d}-s{seed}")
    try:
        return PointStore.open(path)
    except StoreError:
        pass
    os.makedirs(root, exist_ok=True)
    rng0 = np.random.default_rng(seed)
    centers = rng0.uniform(-40.0, 40.0, size=(k, d))
    out_at = np.linspace(0, n - 1, num=z, dtype=np.int64) if z else \
        np.zeros(0, dtype=np.int64)
    store = PointStore.create(path, chunk_rows=chunk_rows, overwrite=True)
    try:
        for ci, lo in enumerate(range(0, n, chunk_rows)):
            b = min(chunk_rows, n - lo)
            rng = np.random.default_rng([seed, ci])
            labels = rng.integers(0, k, size=b)
            pts = centers[labels] + rng.normal(0.0, 0.8, size=(b, d))
            local = out_at[(out_at >= lo) & (out_at < lo + b)] - lo
            if len(local):
                dirs = rng.normal(size=(len(local), d))
                dirs /= np.maximum(
                    np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12
                )
                pts[local] = dirs * rng.uniform(
                    400.0, 800.0, size=(len(local), 1)
                )
            store.append(pts)
    except BaseException:
        store.abort()
        raise
    return store.finalize()


def _ooc_instance(name: str, n: int, chunk_rows: int, quick_n: int,
                  quick: bool, seed: int) -> ScenarioInstance:
    k, z = 8, 64
    if quick:
        n, chunk_rows = quick_n, max(quick_n // 8, 1)
    source = _ooc_clustered_store(n, k, z, d=2, seed=seed,
                                  chunk_rows=chunk_rows)
    spec = ProblemSpec(k=k, z=z, eps=0.5, dim=2, seed=seed)
    return ScenarioInstance(
        name, spec, source=source, chunk_rows=chunk_rows,
        reference_sample=4096,
        notes=f"on-disk store {source.path} ({n} rows, "
              f"{source.n_chunks} chunks of {chunk_rows})",
    )


@register_scenario(
    "ooc-clustered-1m",
    tags=("out-of-core", "scale"),
    description="n=10^6 clustered stream served from a memory-mapped "
                "on-disk store (quick: n=2*10^4)",
)
def _ooc_clustered_1m(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """Out-of-core clustered stream at n=10^6 (see ROADMAP items 2-3).

    The stream never exists in RAM: it is generated chunk-wise into a
    cached :class:`~repro.store.PointStore` and replayed by memory-
    mapping one chunk at a time.  The reference radius comes from a
    deterministic 4096-row subsample.  Tagged ``"scale"`` and excluded
    from the default sweep — opt in by name.
    """
    return _ooc_instance("ooc-clustered-1m", 1_000_000, 65_536, 20_000,
                         quick, seed)


@register_scenario(
    "ooc-clustered-10m",
    tags=("out-of-core", "scale"),
    description="n=10^7 clustered stream served from a memory-mapped "
                "on-disk store (quick: n=4*10^4)",
)
def _ooc_clustered_10m(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """The n=10^7 scaling workload the kernel PRs (7/8) made feasible:
    ~160 MB of geometry on disk, streamed through a working set of one
    65536-row chunk.  Same construction as ``ooc-clustered-1m``."""
    return _ooc_instance("ooc-clustered-10m", 10_000_000, 65_536, 40_000,
                         quick, seed)


@register_scenario(
    "real-iris",
    tags=("real", "on-disk"),
    description="UCI Iris point cloud (a user-dropped csv, cached on disk)",
)
def _real_iris(quick: bool = False, seed: int = 0) -> ScenarioInstance:
    """The UCI Iris measurements as a real 4-d point cloud.

    Loaded through :func:`repro.scenarios.datasets.load_dataset`
    (cache -> user-dropped csv); raises
    :class:`~repro.scenarios.datasets.DatasetUnavailableError` when
    neither is in the data directory, which the matrix records as an
    ``"unavailable"`` cell.  ``seed`` shuffles the arrival order.
    """
    pts = load_dataset("iris")
    rng = np.random.default_rng(seed)
    pts = pts[rng.permutation(len(pts))]
    spec = ProblemSpec(k=3, z=5, eps=0.5, dim=int(pts.shape[1]), seed=seed)
    return ScenarioInstance(
        "real-iris", spec, _split(pts, 4),
        notes="UCI Iris, labels dropped, order shuffled by seed",
    )
