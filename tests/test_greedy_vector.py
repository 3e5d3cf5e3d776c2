"""One radius search for a whole outlier vector.

:func:`charikar_greedy` takes one outlier budget or an ascending
sequence of them.  The Charikar decision at a guess does not depend on
the budget, so a multi-budget call decides each guess once and runs each
budget's binary search over the shared decisions.  These tests pin that
every entry of the vector call is bit-identical to the one-budget call
and to the frozen :func:`charikar_greedy_reference`, that no guess is
decided twice, and that bad budgets fail closed.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightedPointSet, charikar_greedy, mbc_construction
from repro.core import greedy as greedy_mod
from _greedy_reference import charikar_greedy_reference
from repro.core.metrics import get_metric
from repro.mpc.tasks import radius_vector_task
from test_greedy_lists import _stratified

METRICS = ("euclidean", "chebyshev", "manhattan")
#: the Algorithm 2 round-1 budgets 2^j - 1 of an mpc-two-round machine
MPC_BUDGETS = [0, 1, 3, 7, 15, 31]
#: the decision entry points perfbench's tracer times as one span each
ENTRIES = ("_greedy_disks", "_geometric_decision", "_grid_decision")


def _assert_same(a, b):
    assert a.radius == b.radius
    assert a.guess == b.guess
    np.testing.assert_array_equal(a.centers_idx, b.centers_idx)
    np.testing.assert_array_equal(a.uncovered, b.uncovered)


class _FractionalPoints:
    """Duck-typed point set with fractional weights (WeightedPointSet
    only holds integers); fractional weights force the dense search."""

    def __init__(self, points, weights):
        self.points = points
        self.weights = weights
        self.total_weight = float(weights.sum())

    def __len__(self):
        return len(self.points)


@contextmanager
def _recorded_entries():
    """Patch every decision entry point to record the guess (its fourth
    positional argument) of each call: ``{name: [guess, ...]}``."""
    calls = {name: [] for name in ENTRIES}

    def recorder(name):
        real = getattr(greedy_mod, name)

        def record(*args, **kwargs):
            calls[name].append(args[3])
            return real(*args, **kwargs)
        return record

    with mock.patch.multiple(greedy_mod,
                             **{name: recorder(name) for name in ENTRIES}):
        yield calls


def _assert_one_entry_per_decision(calls, res, name):
    """Every decision entered ``name``, once per distinct guess, and no
    entry point ran nested inside another."""
    probed = calls[name]
    assert len(probed) == len(set(probed))
    assert res.stats["decisions"] == len(probed) \
        == sum(len(c) for c in calls.values())


def _mpc_machine() -> WeightedPointSet:
    """The first machine of the mpc-two-round benchmark input: 4,200
    stratified points in [0, 100]^2 dealt to 2 machines by the colour of
    their 70 x 60 stratification cell (a checkerboard)."""
    pts = _stratified((70, 60), 0)
    cells = np.floor(pts * np.array((70, 60)) / 100.0).astype(np.int64)
    part = pts[(cells[:, 0] + cells[:, 1]) % 2 == 0]
    return WeightedPointSet(part, np.ones(len(part), dtype=np.int64))


# ---------------------------------------------------------------------------
# Parity: vector call == per-budget calls == frozen reference
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    path=st.sampled_from(["pairwise", "grid", "dense"]),
    n=st.integers(2, 110),
    k=st.integers(1, 5),
    budgets=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    beyond_total=st.booleans(),
    dup=st.sampled_from(["none", "some", "all"]),
    metric=st.sampled_from(METRICS),
)
def test_vector_matches_per_budget_and_reference(seed, path, n, k, budgets,
                                                 beyond_total, dup, metric):
    rng = np.random.default_rng(seed)
    # d > 4 keeps the geometric search off the grid (the dense path)
    d = 5 if path == "dense" else 2
    pts = rng.normal(size=(n, d)) * float(rng.choice([1e-3, 1.0, 1e4]))
    if dup == "all":  # guess 0 is feasible for every budget
        pts[:] = pts[0]
    elif dup == "some" and n >= 4:
        pts[: n // 2] = pts[n - n // 2:]
    P = WeightedPointSet(pts, rng.integers(1, 4, n))
    zs = sorted(budgets + ([P.total_weight] if beyond_total else []))
    limit = greedy_mod.PAIRWISE_LIMIT if path == "pairwise" else 1
    met = get_metric(metric)
    vec = charikar_greedy(P, k, zs, met, pairwise_limit=limit)
    assert len(vec) == len(zs)
    for z, res in zip(zs, vec):
        one = charikar_greedy(P, k, z, met, pairwise_limit=limit)
        _assert_same(res, one)
        _assert_same(res, charikar_greedy_reference(P, k, z, met,
                                                    pairwise_limit=limit))
        if z >= P.total_weight or dup == "all":
            assert res.radius == 0.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 90),
    k=st.integers(1, 4),
    budgets=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=5),
    pairwise=st.booleans(),
)
def test_fractional_weights_vector_matches_per_budget(seed, n, k, budgets,
                                                      pairwise):
    # the frozen reference truncates fractional uncovered weight (a
    # documented historical bug), so here parity is vector vs per-budget
    rng = np.random.default_rng(seed)
    P = _FractionalPoints(rng.normal(size=(n, 2)), rng.random(n) + 0.05)
    zs = sorted(budgets)
    limit = greedy_mod.PAIRWISE_LIMIT if pairwise else 1
    vec = charikar_greedy(P, k, zs, pairwise_limit=limit)
    for z, res in zip(zs, vec):
        one = charikar_greedy(P, k, z, pairwise_limit=limit)
        _assert_same(res, one)
        if z < P.total_weight and k < n:
            assert res.path == ("pairwise" if pairwise else "dense")


def test_empty_budget_sequence():
    P = WeightedPointSet(np.arange(10.0).reshape(-1, 1))
    assert charikar_greedy(P, 2, []) == []


# ---------------------------------------------------------------------------
# Each guess is decided once per call
# ---------------------------------------------------------------------------


class TestSharedDecisions:
    def test_mpc_machine_decides_each_guess_once(self):
        P = _mpc_machine()
        assert len(P) == 2100  # above the pairwise limit: grid search
        probed = []
        real = greedy_mod._grid_decision

        def record(wps, metric, k, guess, *args, **kwargs):
            probed.append(guess)
            return real(wps, metric, k, guess, *args, **kwargs)

        with mock.patch.object(greedy_mod, "_grid_decision", record):
            per_z = [charikar_greedy(P, 8, z) for z in MPC_BUDGETS]
        made, distinct = len(probed), len(set(probed))
        with _recorded_entries() as calls:
            vec = charikar_greedy(P, 8, MPC_BUDGETS)
        assert vec[0].path == "grid"
        # 13 guesses probed, 3 of them below every probing budget's floor
        assert vec[0].stats["decisions"] == distinct == 10
        assert vec[0].stats["skipped"] == 3
        _assert_one_entry_per_decision(calls, vec[0], "_grid_decision")
        assert made > 3 * distinct
        for a, b in zip(vec, per_z):
            _assert_same(a, b)

    def test_radius_vector_task_is_one_search(self):
        P = _mpc_machine()
        with mock.patch.object(
            greedy_mod, "_farthest_first", wraps=greedy_mod._farthest_first
        ) as walk:
            v = radius_vector_task((P, 8, len(MPC_BUDGETS), None))
        assert walk.call_count == 1
        expected = [charikar_greedy(P, 8, z).radius for z in MPC_BUDGETS]
        assert v.tolist() == expected

    def test_pairwise_budgets_share_the_candidate_decisions(self, rng):
        P = WeightedPointSet(rng.uniform(0, 10, size=(300, 2)),
                             rng.integers(1, 4, 300))
        with _recorded_entries() as calls:
            vec = charikar_greedy(P, 4, MPC_BUDGETS)
        assert vec[0].path == "pairwise"
        _assert_one_entry_per_decision(calls, vec[0], "_greedy_disks")
        for z, res in zip(MPC_BUDGETS, vec):
            _assert_same(res, charikar_greedy(P, 4, z))

    def test_dense_budgets_share_the_ladder_decisions(self, rng):
        # d = 6 is past the grid's dimension gate: the chunked dense path
        P = WeightedPointSet(rng.uniform(0, 10, size=(300, 6)),
                             rng.integers(1, 4, 300))
        with _recorded_entries() as calls:
            vec = charikar_greedy(P, 4, MPC_BUDGETS, pairwise_limit=8)
        assert vec[0].path == "dense"
        _assert_one_entry_per_decision(calls, vec[0], "_geometric_decision")
        for z, res in zip(MPC_BUDGETS, vec):
            _assert_same(res, charikar_greedy(P, 4, z, pairwise_limit=8))


# ---------------------------------------------------------------------------
# Bad budgets fail closed
# ---------------------------------------------------------------------------


class TestBadBudgets:
    # 300 points take the exact pairwise search, 3,000 the grid search:
    # a negative budget used to raise RuntimeError on the first and
    # return a radius from an infeasible decision on the second; a NaN
    # budget raised RuntimeError on the first and IndexError on the second
    @pytest.mark.parametrize("n", [300, 3000])
    def test_negative_budget_rejected(self, rng, n):
        P = WeightedPointSet(rng.uniform(0, 10, size=(n, 2)))
        for bad in (-1, float("nan")):
            with pytest.raises(ValueError, match="z must be >= 0"):
                charikar_greedy(P, 4, bad)
            with pytest.raises(ValueError, match="z must be >= 0"):
                charikar_greedy(P, 4, [bad, 0, 3])

    def test_unsorted_budgets_rejected(self, rng):
        P = WeightedPointSet(rng.uniform(0, 10, size=(50, 2)))
        with pytest.raises(ValueError, match="ascending"):
            charikar_greedy(P, 4, [3, 1])

    def test_negative_budget_rejected_by_mbc_construction(self, rng):
        P = WeightedPointSet(rng.uniform(0, 10, size=(3000, 2)))
        with pytest.raises(ValueError, match="z must be >= 0"):
            mbc_construction(P, 4, -1, 0.5)
