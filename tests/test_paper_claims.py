"""The paper's claims, one test per experiment id.

Table 1's storage shapes (E1-E4, E6, E8), the lower-bound mechanisms of
Figures 2-8 (E5, E7, E12, E14, E15), end-to-end coreset quality (E9),
the Figure 1 mini-ball covering (E10), the ablations (E16, E17), the §5
dynamic applications (E18, E19) and the sqrt(n) MPC scaling (E20).

Registered ids run their ``python -m repro.experiments`` driver at its
``--quick`` parameters, which are chosen so the quick tables show every
shape asserted here; the other ids build their instances below.
"""

import numpy as np

from repro import WeightedPointSet, mbc_construction
from repro.core import charikar_greedy, mbc_size_bound, verify_mbc
from repro.experiments.__main__ import EXPERIMENTS
from repro.mpc import (
    partition_adversarial_outliers,
    partition_contiguous,
    partition_random,
    recommended_num_machines,
    two_round_coreset,
)
from repro.streaming import (
    DeterministicDynamicCoreset,
    DynamicCoreset,
    DynamicKCenter,
)
from repro.workloads import clustered_with_outliers, integer_workload


def _quick(eid):
    return EXPERIMENTS[eid].run(quick=True)


def test_e1_one_round_storage_vs_z():
    """Rows 1-2: CPP19's randomized coreset carries the ``1/eps^d``
    factor on the outlier term, so it outgrows ours in ``z``."""
    rows = _quick("E1")
    ours = {r.params["z"]: r.metrics["coreset"] for r in rows if r.algorithm == "ours-1round"}
    base = {r.params["z"]: r.metrics["coreset"] for r in rows if r.algorithm == "cpp19-rand"}
    assert base[128] > 2 * ours[128]


def test_e2_two_round_storage_vs_z():
    """Rows 3-4: under an adversarial partition Algorithm 2's guessed
    budgets sum to ``<= 2z``, while CPP19 budgets ``z`` on every
    machine."""
    rows = _quick("E2")
    ours = {r.params["z"]: r for r in rows if r.algorithm == "ours-2round"}
    base = {r.params["z"]: r for r in rows if r.algorithm == "cpp19-det"}
    for z, r in ours.items():
        assert r.metrics["budget_sum"] <= 2 * z
    assert base[128].metrics["coreset"] > 3 * ours[128].metrics["coreset"]
    assert ours[128].metrics["rounds"] == 2


def test_e3_rounds_tradeoff():
    """Row 5: more rounds ship a smaller coreset at the price of error
    ``(1+eps)^R - 1``."""
    by_r = {r.params["R"]: r for r in _quick("E3")}
    assert by_r[3].metrics["coreset"] < by_r[1].metrics["coreset"]
    assert by_r[3].metrics["eps_guarantee"] > by_r[1].metrics["eps_guarantee"]


def test_e4_insertion_streaming():
    """Rows 6-8: ours stores ``O(k/eps^d + z)``; CPP19's threshold
    multiplies ``z`` by ``1/eps^d``."""
    rows = _quick("E4")

    def get(alg, eps, z):
        return next(r for r in rows if r.algorithm == alg
                    and r.params["eps"] == eps and r.params["z"] == z)

    assert (get("cpp19-stream", 0.5, 64).metrics["threshold"]
            > 4 * get("ours-stream", 0.5, 64).metrics["threshold"])
    for r in rows:
        if r.algorithm == "ours-stream":  # Theorem 18
            assert r.metrics["stored"] <= r.metrics["threshold"]


def test_e5_insertion_lower_bound():
    """Figures 2-3 (Lemma 12): an exact maintainer stores every cluster
    point, and dropping any one of them is fatal."""
    for r in _quick("E5"):
        if r.algorithm == "exact-maintainer":
            assert r.metrics["survived"] == 1
            assert r.metrics["stored"] >= r.metrics["required"]
        else:
            assert r.metrics["fatal"] == r.metrics["attacks"]


def test_e6_dynamic_storage_vs_delta():
    """Row 12: sketch storage grows with ``Delta`` but far slower than
    the universe, and deletions leave the live weight exact."""
    rows = _quick("E6")
    by_delta = {r.params["Delta"]: r for r in rows}
    small, large = by_delta[64].metrics, by_delta[1024].metrics
    assert large["storage_cells"] > small["storage_cells"]
    assert large["storage_cells"] / small["storage_cells"] < 1024 / 64
    for r in rows:
        assert r.metrics["weight_ok"] == 1


def test_e7_dynamic_lower_bound():
    """Figure 5 (Theorem 28): required storage grows with ``log Delta``
    and the scaled cross gadget is fatal at every scale."""
    rows = _quick("E7")
    assert [r.metrics["g"] for r in rows] == sorted(r.metrics["g"] for r in rows)
    req = [r.metrics["required"] for r in rows]
    assert req == sorted(req) and req[-1] > req[0]
    for r in rows:
        assert r.metrics["fatal"] == r.metrics["attacks"]


def test_e8_sliding_window():
    """Rows 9-11: storage grows with ``z`` (the z+1 recency buffers) and
    the window radius tracks offline recomputation."""
    rows = _quick("E8")
    by_z = {r.params["z"]: r for r in rows}
    assert by_z[8].metrics["stored"] > by_z[2].metrics["stored"]
    for r in rows:
        assert 0.3 <= r.metrics["quality"] <= 3.5


def test_e9_coreset_quality():
    """Both radii come from the 3-approximation, so the coreset's eps and
    the greedy slack bound every ratio within [0.2, 5]."""
    for r in _quick("E9"):
        assert 0.2 <= r.metrics["quality"] <= 5.0, r


def test_e10_mbc_on_figure1_scene():
    """Figure 1: the k=2, z=5 mini-ball covering meets Lemma 7's size
    bound and the whole Definition 2 / Lemma 3 contract."""
    rng = np.random.default_rng(1)
    P = WeightedPointSet.from_points(np.concatenate([
        rng.normal((0, 0), 0.5, (200, 2)),
        rng.normal((7, 0), 0.7, (160, 2)),
        rng.uniform(20, 40, (5, 2)),
    ]))
    k, z, eps = 2, 5, 0.5
    mbc = mbc_construction(P, k, z, eps)
    assert mbc.size <= mbc_size_bound(k, z, eps, 2)
    chk = verify_mbc(P, mbc, k, z, eps)
    assert chk.ok, chk.details


def test_e12_omega_z_lower_bound():
    """Figure 4 (Lemma 15): all ``k+z`` points on the line are mandatory."""
    for r in _quick("E12"):
        assert r.metrics["exact_survived"] == 1
        assert r.metrics["fatal"] == r.metrics["attacks"]


def test_e14_sliding_window_lower_bound():
    """Figures 6-7 (Claim 31): at every scale the window optimum drops
    below ``1 - 4 eps`` of its value when the attacked point expires."""
    for r in _quick("E14"):
        assert r.metrics["ratio"] <= r.metrics["bound_1_minus_4eps"] + 1e-9
        assert r.metrics["violates_1pm_eps"] == 1


def test_e15_geometry():
    """Figure 8: Lemma 41 holds strictly, Claims 38-39 hold."""
    for r in _quick("E15"):
        assert r.metrics["lemma41_gap"] > 0
        assert r.metrics["claim38_ok"] == 1
        assert r.metrics["claim39_slack"] >= -1e-9


def _budget_ablation(z, m=8, n=3000):
    """``(union size, budget sum)`` of Algorithm 2 as shipped and with the
    naive local budget ``z`` on every machine, under an adversarial
    partition."""
    rng = np.random.default_rng(0)
    wl = clustered_with_outliers(n, 4, z, 2, rng=rng)
    parts = partition_adversarial_outliers(wl.point_set(), wl.outlier_mask, m, rng)
    out = {}
    for name, res in (
        ("guessing", two_round_coreset(parts, 4, z, 0.5)),
        ("naive-z", two_round_coreset(parts, 4, z, 0.5, outlier_guessing=False)),
    ):
        out[name] = (res.extras["union_size"], sum(res.extras["outlier_budgets"]))
    return out


def test_e16_outlier_guessing_ablation():
    """§3: the default budget rule is the guessing vector (sum <= 2z); the
    naive rule pays ``m*z``, and its union grows by ~m*z items."""
    small, large = _budget_ablation(16), _budget_ablation(128)
    assert large["guessing"][1] <= 2 * 128
    assert large["naive-z"][1] == 8 * 128
    gap_small = small["naive-z"][0] - small["guessing"][0]
    gap_large = large["naive-z"][0] - large["guessing"][0]
    assert gap_large >= 3 * 128, "naive budget must pay ~m*z extra union items"
    assert gap_large > gap_small, "the gap must grow with z"


def test_e17_recompress_ablation():
    """Lemma 5: the coordinator's final MBC shrinks the coreset and
    triples the error parameter, with quality kept."""
    rng = np.random.default_rng(0)
    P = clustered_with_outliers(3000, 4, 32, 2, rng=rng).point_set()
    parts = partition_random(P, 10, rng)
    r_full = charikar_greedy(P, 4, 32).radius
    on, off = (two_round_coreset(parts, 4, 32, 0.5, final_compress=flag)
               for flag in (True, False))
    assert len(on.coreset) < len(off.coreset)
    assert on.eps_guarantee > off.eps_guarantee
    for res in (on, off):
        assert 0.2 <= charikar_greedy(res.coreset, 4, 32).radius / r_full <= 5.0


def test_e18_dynamic_kcenter():
    """§5: an insert/delete cycle touches only sketch buckets, and a query
    tracks an offline recomputation within the composed guarantee."""
    wl = integer_workload(150, 3, 6, 256, 2, rng=np.random.default_rng(3))
    algo = DynamicKCenter(3, 6, 1.0, 256, 2, rng=np.random.default_rng(4))
    for p in wl.points:
        algo.insert(p)
    algo.insert(np.array([100, 100]))
    algo.delete(np.array([100, 100]))
    r_dyn = algo.radius()
    r_off = charikar_greedy(WeightedPointSet.from_points(wl.points.astype(float)),
                            3, 6).radius
    assert r_dyn > 0
    assert r_off / 3.5 <= r_dyn <= 3.5 * max(r_off, 1e-9) + 1e-9


def test_e19_deterministic_dynamic():
    """§5 realized: the Vandermonde sketch recovers exactly the live
    weight the randomized Algorithm 5 does, in log-Delta storage, and
    decodes bit for bit the same on every run."""
    cells = []
    for delta in (64, 256, 1024):
        wl = integer_workload(120, 2, 4, delta, 2, rng=np.random.default_rng(0))
        det = DeterministicDynamicCoreset(2, 4, 1.0, delta, 2, s_override=64)
        ran = DynamicCoreset(2, 4, 1.0, delta, 2, rng=np.random.default_rng(1))
        for sketch in (det, ran):
            sketch.extend(wl.points)
            sketch.delete_many(wl.points[:50])
        weight = det.coreset().total_weight
        assert weight == 70  # 120 - 50 live points, exactly
        assert weight == ran.coreset().total_weight
        cells.append(det.storage_cells)
    assert cells[0] < cells[1] < cells[2]
    assert cells[2] / cells[0] < 1024 / 64

    pts = np.random.default_rng(3).integers(1, 257, size=(60, 2))

    def build_and_decode():
        d = DeterministicDynamicCoreset(2, 3, 1.0, 256, 2, s_override=48)
        for p in pts:
            d.insert(p)
        cs = d.coreset()
        return cs.points.tobytes(), cs.weights.tobytes()

    assert build_and_decode() == build_and_decode()


def test_e20_sqrt_n_scaling():
    """Theorem 10: at ``m = Theta(sqrt(n eps^d / k))`` machines the worker
    peak grows like ``n^0.5`` and the coreset size stays flat."""
    k, z, eps, d = 4, 16, 0.5, 2
    ns, peaks, sizes = (1000, 4000, 16000), [], []
    for n in ns:
        wl = clustered_with_outliers(n, k, z, d, rng=np.random.default_rng(0))
        m = recommended_num_machines(n, k, z, eps, d)
        res = two_round_coreset(partition_contiguous(wl.point_set(), m), k, z, eps)
        peaks.append(res.stats.worker_peak)
        sizes.append(len(res.coreset))
    exponent = np.polyfit(np.log(ns), np.log(peaks), 1)[0]
    assert 0.3 <= exponent <= 0.75, exponent
    assert max(sizes) <= 2.5 * min(sizes)
