"""Exact solvers against brute-force oracles and 1-D closed forms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from otkit import _mincostflow
from otkit._mincostflow import quantize_simplex, solve_transportation
from otkit.duality import check_feasibility, duality_gap
from otkit.errors import ConvergenceError, MetricAxiomError, ValidationError
from otkit.exact import (
    is_extremal_coupling,
    solve_1d_sorted,
    solve_assignment,
    solve_kantorovich,
    validate_metric,
    w1_1d_cdf,
    wasserstein_p,
)
from otkit.measures import (MARGINAL_TOL, CostSpec, DiscreteMeasure,
                            build_cost_matrix, product_coupling)

import forest_reference
import mincostflow_reference
import sweep_reference
import transport_reference
from conftest import random_points, random_simplex, rational_simplex
from oracles import (
    brute_force_assignment,
    hungarian_mean_cost,
    linprog_transport_cost,
    vertex_enumeration_cost,
    w1_piecewise_integral,
)


class TestAssignment:
    def test_matches_exhaustive_search(self, rng):
        for n in range(2, 8):
            for _ in range(8):
                C = rng.uniform(size=(n, n))
                perm, cost = solve_assignment(C)
                _, expected = brute_force_assignment(C)
                assert sorted(perm) == list(range(n))
                assert_allclose(cost, expected, rtol=0, atol=1e-12)

    def test_matches_hungarian_at_larger_sizes(self, rng):
        for n in (10, 17, 25):
            C = build_cost_matrix(
                random_points(rng, n, 2), random_points(rng, n, 2),
                CostSpec.sq_euclidean(),
            )
            _, cost = solve_assignment(C)
            assert_allclose(cost, hungarian_mean_cost(C), rtol=0, atol=1e-10)

    def test_identity_is_optimal_for_sorted_line(self):
        x = np.arange(5.0)
        C = (x[:, None] - x[None, :]) ** 2
        perm, cost = solve_assignment(C)
        assert_allclose(perm, np.arange(5), rtol=0, atol=0)
        assert cost == 0.0

    def test_rectangular_rejected(self):
        with pytest.raises(ValidationError):
            solve_assignment(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            solve_assignment(np.zeros((0, 0)))


class TestKantorovich:
    def test_matches_vertex_enumeration(self, rng):
        sizes = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (2, 5)]
        for n, m in sizes:
            for _ in range(4):
                a = rational_simplex(rng, n)
                b = rational_simplex(rng, m)
                C = rng.uniform(size=(n, m))
                res = solve_kantorovich(a, b, C)
                expected = vertex_enumeration_cost(a, b, C)
                assert_allclose(res.cost, expected, rtol=0, atol=1e-10)

    def test_matches_scipy_linprog(self, rng):
        for n, m in [(5, 9), (12, 7), (20, 20)]:
            a = rational_simplex(rng, n)
            b = rational_simplex(rng, m)
            C = build_cost_matrix(
                random_points(rng, n, 3), random_points(rng, m, 3),
                CostSpec.euclidean(),
            )
            res = solve_kantorovich(a, b, C)
            assert_allclose(res.cost, linprog_transport_cost(a, b, C),
                            rtol=0, atol=1e-8)

    def test_cost_equals_plan_contraction(self, rng):
        a = random_simplex(rng, 6)
        b = random_simplex(rng, 5)
        C = rng.uniform(size=(6, 5))
        res = solve_kantorovich(a, b, C)
        assert res.cost == res.coupling.cost(C)

    def test_support_is_a_forest(self, rng):
        for _ in range(20):
            n, m = rng.integers(2, 9, size=2)
            a = random_simplex(rng, n)
            b = random_simplex(rng, m)
            C = rng.uniform(size=(n, m))
            res = solve_kantorovich(a, b, C)
            assert np.count_nonzero(res.coupling.plan) <= n + m - 1
            assert is_extremal_coupling(res.coupling)

    def test_duals_feasible_with_complementary_slackness(self, rng):
        for _ in range(10):
            n, m = 7, 6
            a = random_simplex(rng, n)
            b = random_simplex(rng, m)
            C = rng.uniform(size=(n, m))
            res = solve_kantorovich(a, b, C)
            pot = res.potentials
            check_feasibility(pot, C, atol=1e-9)
            slack = C - pot.f[:, None] - pot.g[None, :]
            assert float(np.max(np.abs(slack * res.coupling.plan))) <= 1e-12

    def test_duality_gap_below_1e8(self, rng):
        for _ in range(10):
            a = rational_simplex(rng, 8)
            b = rational_simplex(rng, 5)
            C = rng.uniform(size=(8, 5))
            res = solve_kantorovich(a, b, C)
            gap = duality_gap(res, res.potentials, C)
            assert -1e-10 <= gap <= 1e-8

    @pytest.mark.parametrize("bad", [np.full((1, 5), 10.0),
                                     np.full((8, 1), 10.0),
                                     np.full((8, 5), np.nan)],
                             ids=["one-row", "one-column", "all-nan"])
    def test_certificates_refuse_a_bad_cost_matrix(self, rng, bad):
        # A row or column broadcasts against f + g and NaN compares false
        # against any tolerance, so neither may reach the slack test.
        a = rational_simplex(rng, 8)
        b = rational_simplex(rng, 5)
        res = solve_kantorovich(a, b, rng.uniform(size=(8, 5)))
        with pytest.raises(ValidationError, match="cost matrix"):
            check_feasibility(res.potentials, bad)
        with pytest.raises(ValidationError, match="cost matrix"):
            duality_gap(res, res.potentials, bad)

    def test_zero_weight_atom_gets_empty_row(self, rng):
        a = np.array([0.5, 0.0, 0.5])
        b = rational_simplex(rng, 4)
        C = rng.uniform(size=(3, 4))
        res = solve_kantorovich(a, b, C)
        assert_allclose(res.coupling.plan[1], 0.0, rtol=0, atol=0)

    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValidationError):
            solve_kantorovich([0.5, 0.6], [0.5, 0.5], np.zeros((2, 2)))

    def test_identical_marginals_zero_cost_on_metric(self, rng):
        a = rational_simplex(rng, 5)
        x = random_points(rng, 5, 2)
        C = build_cost_matrix(x, x, CostSpec.euclidean())
        res = solve_kantorovich(a, a, C)
        assert_allclose(res.cost, 0.0, rtol=0, atol=1e-12)


@st.composite
def transport_instances(draw):
    """Small integer transport problems, degenerate ones included.

    Draws zero-weight atoms, points shared by both sides and points on a
    coarse grid (tied costs), uniform weights, a small common denominator
    (more ties in the marginals), cost scales from 1e-8 to 1e8 and costs
    shifted down by a share of their maximum, so some are negative.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, 2))
    y = rng.random((m, 2))
    shared = draw(st.integers(0, min(n, m)))
    y[:shared] = x[:shared]
    if draw(st.booleans()):
        x, y = np.round(2 * x) / 2, np.round(2 * y) / 2
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    C *= 10.0 ** draw(st.integers(-8, 8))
    if draw(st.booleans()):
        C -= draw(st.floats(0.0, 1.0)) * C.max()
    denominator = draw(st.sampled_from([12, 10**9]))

    def weights(k):
        w = np.ones(k) if draw(st.booleans()) else rng.uniform(0.1, 1.0, k)
        w[: draw(st.integers(0, k - 1))] = 0.0
        w = rng.permutation(w)
        return quantize_simplex(w / w.sum(), denominator)

    return weights(n), weights(m), C


@st.composite
def unique_optimum_instances(draw):
    """Uniform random costs, which make the optimal plan unique."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.uniform(size=(n, m))

    def weights(k):
        w = np.ones(k) if uniform else rng.uniform(0.1, 1.0, k)
        return quantize_simplex(w / w.sum(), 10**9)

    return weights(n), weights(m), C


# A sink at the nearest sink's distance is reached only through a
# non-sink column whose label ties that distance, so labels equal to the
# nearest sink's must still be relaxed.
TIED_AT_THE_NEAREST_SINK = (
    np.array([2, 2, 2, 2, 1, 1, 1, 1]),
    np.array([2, 2, 1, 1, 2, 3, 1]),
    np.array([[0.25, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
              [1.25, 0.5, 0.0, 0.5, 0.5, 2.0, 0.5],
              [0.25, 0.5, 2.0, 0.5, 0.5, 0.0, 0.5],
              [0.25, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
              [0.5, 0.25, 1.25, 0.25, 0.25, 0.25, 0.25],
              [0.25, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5],
              [0.25, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5],
              [0.5, 0.25, 0.25, 0.25, 0.25, 1.25, 0.25]]),
)

# The second phase starts from row 1 alone and reaches columns 0 and 2,
# both at distance 1, through column 1 and the reverse of the support
# entry (0, 1), which carries one unit.  The push to column 0 empties that
# entry, so column 2's tree path is broken and must wait for the next
# phase; pushing along it anyway would drive plan[0, 1] to -1.
EMPTIED_EARLIER_IN_THE_PHASE = (
    np.array([1, 3]),
    np.array([2, 1, 1]),
    np.array([[1.0, 0.0, 0.0],
              [4.0, 1.0, 4.0]]),
)


# One row or one column, with zero-weight atoms on the other side.
ONE_ROW = (np.array([7]), np.array([3, 0, 4]), np.array([[1.0, 0.0, 1.0]]))
ONE_COLUMN = (np.array([0, 5, 2]), np.array([7]),
              np.array([[0.0], [2.0], [2.0]]))


def _arc_list_flow(a, b, C):
    """The reference min-cost flow on the complete bipartite arc list.

    Arc i*m + j joins row i to column j.
    """
    n, m = C.shape
    return mincostflow_reference.solve_min_cost_flow(
        n + m, np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n),
        C.reshape(-1), np.concatenate([a, -b]),
    )


def assert_optimal_transport(a, b, C, plan, f, g, status, ref_cost):
    """Exact marginals, the reference cost and complementary duals."""
    assert status == "optimal"
    assert plan.dtype == np.int64 and plan.min(initial=0) >= 0
    assert np.array_equal(plan.sum(axis=1), a)
    assert np.array_equal(plan.sum(axis=0), b)
    scale = float(np.abs(C).max())
    assert_allclose(float(np.sum(plan * C)), ref_cost,
                    rtol=1e-12, atol=1e-12 * scale * a.sum())
    slack = C - f[:, None] - g[None, :]
    tol = 1e-12 * scale
    assert slack.min() >= -tol
    assert np.abs(slack[plan > 0]).max() <= tol


def _draw_tied_problem(draw):
    """A tie-heavy transport problem and the generator that drew it.

    Costs in {0, 1, 2}, 0/1 costs or squared distances between points of
    a 3 x 3 lattice, times a power of ten; some rows and columns weigh
    nothing; n, m <= 12.  Returns ``a, b, C, rng``.
    """
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["0/1/2", "0/1", "lattice"]))
    if kind == "lattice":
        x, y = rng.integers(0, 3, (n, 2)), rng.integers(0, 3, (m, 2))
        C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    else:
        C = rng.integers(0, 3 if kind == "0/1/2" else 2, (n, m))
    C = C * 10.0 ** draw(st.integers(-8, 8))
    uniform = draw(st.booleans())

    def weights(k):
        w = np.ones(k) if uniform else rng.uniform(0.1, 1.0, k)
        w[: draw(st.integers(0, k - 1))] = 0.0
        w = rng.permutation(w)
        return quantize_simplex(w / w.sum(), 10**9)

    return weights(n), weights(m), C, rng


@st.composite
def tied_instances(draw):
    """Tie-heavy transport problems ``a, b, C``; see `_draw_tied_problem`."""
    return _draw_tied_problem(draw)[:3]


@st.composite
def tied_optimal_plans(draw):
    """Optimal integer plans of tie-heavy problems, often with cycles.

    The problem comes from `_draw_tied_problem`.  The plan is the heap
    reference's optimum, or the sum of it and the optimum of a row- and
    column-shuffled copy of the problem: an optimal plan for twice the
    marginals that has a support cycle wherever the two optima differ.
    """
    a, b, C, rng = _draw_tied_problem(draw)
    n, m = C.shape
    plan = _arc_list_flow(a, b, C).flows.reshape(n, m)
    if draw(st.booleans()):
        rows, cols = rng.permutation(n), rng.permutation(m)
        shuffled = np.ix_(rows, cols)
        other = _arc_list_flow(a[rows], b[cols], C[shuffled]).flows
        plan[shuffled] += other.reshape(n, m)
    return plan, C


class TestDenseTransportEngine:
    """`solve_transportation` against two other engines.

    They are the heap arc-list loop and the same phase loop with the
    dense label-correcting search of ``tests/transport_reference.py``.
    Where shortest paths tie the engines may pick different optimal
    plans, and their duals differ in gauge, so each case is held to what
    optimality fixes.  Where the optimum is unique the plans must be
    bit-equal, and against the dense search so must the duals and the
    push count.
    """

    @given(transport_instances())
    @example(TIED_AT_THE_NEAREST_SINK)
    @example(EMPTIED_EARLIER_IN_THE_PHASE)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_generic_engine(self, instance):
        a, b, C = instance
        n, m = C.shape
        ref = _arc_list_flow(a, b, C)
        assert ref.status == "optimal"
        forest, f, g, _, status = solve_transportation(a, b, C)
        assert_optimal_transport(a, b, C, forest, f, g, status, ref.cost)
        assert np.count_nonzero(forest) <= n + m - 1
        assert forest_reference._find_support_cycle(forest) is None

    @given(unique_optimum_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_unique_optimum_is_bit_equal(self, instance):
        a, b, C = instance
        n, m = C.shape
        ref = _arc_list_flow(a, b, C)
        plan, _, _, _, status = solve_transportation(a, b, C)
        assert status == ref.status == "optimal"
        assert plan.tobytes() == ref.flows.reshape(n, m).tobytes()

    @given(unique_optimum_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_dense_and_sparse_searches_agree(self, instance):
        # The same phase loop with the dense label-correcting search and
        # with the csgraph Dijkstra on the bipartite arc list.
        got = solve_transportation(*instance)
        ref = transport_reference.solve_transportation(*instance)
        assert got[4] == ref[4] == "optimal"
        assert got[3] == ref[3]
        for x, y in zip(got[:3], ref[:3]):
            assert x.tobytes() == y.tobytes()

    @given(tied_instances())
    @example(ONE_ROW)
    @example(ONE_COLUMN)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_tied_costs_match_dense_search(self, instance):
        # Where paths tie, the two searches may grow other trees and so
        # end at other optimal vertices with other duals; the cost and the
        # forest support are what they must share.
        a, b, C = instance
        ref_plan = transport_reference.solve_transportation(a, b, C)[0]
        ref_cost = float(np.sum(ref_plan * C))
        plan, f, g, _, status = solve_transportation(a, b, C)
        assert_optimal_transport(a, b, C, plan, f, g, status, ref_cost)
        assert_allclose(float(np.sum(plan * C)), ref_cost, rtol=1e-12, atol=0)
        assert forest_reference._find_support_cycle(plan) is None

    def test_assignment_sizes_match_generic_engine(self, rng):
        for n in (16, 40):
            C = build_cost_matrix(random_points(rng, n, 2),
                                  random_points(rng, n, 2),
                                  CostSpec.sq_euclidean())
            for a, b in ((np.ones(n, dtype=np.int64),) * 2,
                         (quantize_simplex(random_simplex(rng, n), 10**9),
                          quantize_simplex(random_simplex(rng, n), 10**9))):
                ref = _arc_list_flow(a, b, C)
                plan, _, _, _, _ = solve_transportation(a, b, C)
                assert np.array_equal(plan, ref.flows.reshape(n, n))

    def test_push_budget(self, monkeypatch):
        a, b, C = TIED_AT_THE_NEAREST_SINK
        *_, pushes, _ = solve_transportation(a, b, C)
        assert pushes > 2
        for budget in (0, 1, 2, pushes - 1):
            monkeypatch.setattr(_mincostflow, "_push_budget",
                                lambda n_nodes, n_arcs: budget)
            with pytest.raises(ConvergenceError):
                solve_transportation(a, b, C)
        monkeypatch.setattr(_mincostflow, "_push_budget",
                            lambda n_nodes, n_arcs: pushes)
        assert solve_transportation(a, b, C)[4] == "optimal"

    def test_pass_budget(self):
        # A negative cycle row 0 -> column 0 -> row 0: the labels fall on
        # every pass, and only the pass budget ends the search.
        with pytest.raises(ConvergenceError):
            transport_reference._shortest_distances(
                np.array([[-1.0, 0.0]]), np.array([[0.0, np.inf]]),
                np.array([True]))


class TestCancelSupportCycles:
    @given(tied_optimal_plans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_reference_forest_step(self, instance):
        plan, C = instance
        out = _mincostflow._cancel_support_cycles(plan, C)
        if forest_reference._find_support_cycle(plan) is None:
            assert out.tobytes() == plan.tobytes()
        assert out.min() >= 0
        assert np.array_equal(out.sum(axis=1), plan.sum(axis=1))
        assert np.array_equal(out.sum(axis=0), plan.sum(axis=0))
        assert forest_reference._find_support_cycle(out) is None
        ref = forest_reference._cancel_support_cycles(plan, C)
        cost = float(np.sum(out * C))
        for expected in (np.sum(plan * C), np.sum(ref * C)):
            assert_allclose(cost, expected, rtol=1e-12, atol=0)

    def test_four_cycle_becomes_a_forest(self):
        for C in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.array([[1.0, 0.0], [0.0, 1.0]]),
                  np.array([[0.0, 1.0], [1.0, 2.0]])):
            plan = np.array([[2, 1], [1, 2]], dtype=np.int64)
            out = _mincostflow._cancel_support_cycles(plan, C)
            assert np.count_nonzero(out) <= 3
            assert forest_reference._find_support_cycle(out) is None
            assert np.array_equal(out.sum(axis=1), plan.sum(axis=1))
            assert np.array_equal(out.sum(axis=0), plan.sum(axis=0))
            assert np.sum(out * C) <= np.sum(plan * C)

    def test_cycle_inside_a_larger_support(self):
        plan = np.array([[3, 1, 0], [2, 0, 4], [0, 5, 1]], dtype=np.int64)
        C = np.arange(9.0).reshape(3, 3) % 4
        out = _mincostflow._cancel_support_cycles(plan, C)
        assert np.count_nonzero(out) <= 5
        assert forest_reference._find_support_cycle(out) is None
        assert np.array_equal(out.sum(axis=1), plan.sum(axis=1))
        assert np.array_equal(out.sum(axis=0), plan.sum(axis=0))
        assert np.sum(out * C) <= np.sum(plan * C)

    def test_budget_stops_a_search_that_keeps_finding_cycles(self,
                                                           monkeypatch):
        plan = np.array([[2, 1], [1, 2]], dtype=np.int64)
        cycle = _mincostflow._support_cycle(plan)
        monkeypatch.setattr(_mincostflow, "_support_cycle",
                            lambda _plan: cycle)
        with pytest.raises(ConvergenceError):
            _mincostflow._cancel_support_cycles(plan, np.zeros((2, 2)))


@st.composite
def line_measures(draw):
    """A 1-D probability measure of 1 to 40 atoms.

    Its weights are all 1/n, uniform draws, a Dirichlet draw, exact
    multiples of 1e-9, or uniform draws with some atoms weighing nothing;
    its points are normal draws or, to make ties, a few small integers.
    """
    n = draw(st.sampled_from([1, 1, 2, 3, 5, 8, 13, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["equal", "uniform", "dirichlet", "rational", "zeros"]))
    if kind == "equal":
        w = np.full(n, 1.0 / n)
    elif kind == "dirichlet":
        w = rng.dirichlet(np.ones(n))
    elif kind == "rational":
        w = rational_simplex(rng, n)
    else:
        w = rng.uniform(size=n)
        if kind == "zeros":
            w[rng.random(n) < 0.4] = 0.0
            w[rng.integers(n)] = 1.0
        w = w / w.sum()
    if draw(st.booleans()):
        x = rng.integers(0, 3, n).astype(float)
    else:
        x = rng.standard_normal(n)
    return DiscreteMeasure(x, w)


class TestMonotone1D:
    @given(line_measures(), line_measures(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_sweep_reference(self, alpha, beta, p):
        # Each entry is a difference of cumulative sums here and of
        # running remainders in the sweep, each of up to n + m rounded
        # terms: an entry may move by that much, and an entry of rounding
        # size may appear in one plan only.
        got = solve_1d_sorted(alpha, beta, p)
        ref = sweep_reference.solve_1d_sorted(alpha, beta, p)
        assert abs(got.cost - ref.cost) <= 1e-12 * max(1.0, ref.cost)
        plan = got.coupling.plan
        entry_tol = max(1e-15, (alpha.n + beta.n) * np.finfo(float).eps)
        assert np.max(np.abs(plan - ref.coupling.plan)) <= entry_tol
        assert_allclose(plan.sum(axis=1), alpha.weights, rtol=0, atol=MARGINAL_TOL)
        assert_allclose(plan.sum(axis=0), beta.weights, rtol=0, atol=MARGINAL_TOL)
        assert is_extremal_coupling(got.coupling)
        assert got.iterations == np.count_nonzero(plan)

    def test_matches_lp_for_several_exponents(self, rng):
        for p in (1.0, 2.0, 3.0):
            for _ in range(5):
                n, m = rng.integers(2, 9, size=2)
                alpha = DiscreteMeasure(rng.standard_normal(n),
                                        rational_simplex(rng, n))
                beta = DiscreteMeasure(rng.standard_normal(m),
                                       rational_simplex(rng, m))
                res = solve_1d_sorted(alpha, beta, p)
                C = build_cost_matrix(alpha, beta, CostSpec.p_power(p))
                lp = solve_kantorovich(alpha.weights, beta.weights, C)
                assert_allclose(res.cost, lp.cost, rtol=0, atol=1e-10)

    def test_monotone_plan_is_extremal(self, rng):
        alpha = DiscreteMeasure(rng.standard_normal(7), random_simplex(rng, 7))
        beta = DiscreteMeasure(rng.standard_normal(5), random_simplex(rng, 5))
        res = solve_1d_sorted(alpha, beta, 2.0)
        assert is_extremal_coupling(res.coupling)

    def test_unsorted_input_handled(self):
        alpha = DiscreteMeasure([3.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        beta = DiscreteMeasure([2.0, -1.0], [0.5, 0.5])
        res = solve_1d_sorted(alpha, beta, 1.0)
        expected = w1_1d_cdf(alpha, beta)
        assert_allclose(res.cost, expected, rtol=0, atol=1e-12)

    def test_translation_by_constant(self):
        # W_2^2 between a measure and its translate by t is exactly t^2.
        alpha = DiscreteMeasure([0.0, 1.0, 4.0], [0.25, 0.25, 0.5])
        shifted = DiscreteMeasure(alpha.points + 3.0, alpha.weights)
        res = solve_1d_sorted(alpha, shifted, 2.0)
        assert_allclose(res.cost, 9.0, rtol=0, atol=1e-12)

    def test_p_below_one_rejected(self):
        alpha = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(ValidationError):
            solve_1d_sorted(alpha, alpha, 0.5)

    def test_cost_past_the_float_range_names_p(self):
        alpha = DiscreteMeasure([0.0], [1.0])
        beta = DiscreteMeasure([10.0], [1.0])
        with pytest.raises(ValidationError, match="at p 400.0"):
            solve_1d_sorted(alpha, beta, 400)


class TestW1Cdf:
    def test_agrees_with_sweep_at_p1(self, rng):
        for _ in range(30):
            n, m = rng.integers(1, 10, size=2)
            alpha = DiscreteMeasure(rng.standard_normal(n), random_simplex(rng, n))
            beta = DiscreteMeasure(rng.standard_normal(m), random_simplex(rng, m))
            sweep = solve_1d_sorted(alpha, beta, 1.0)
            assert_allclose(w1_1d_cdf(alpha, beta), sweep.cost, rtol=0, atol=1e-10)

    def test_agrees_with_quadrature(self, rng):
        alpha = DiscreteMeasure(rng.uniform(-2, 2, size=6), random_simplex(rng, 6))
        beta = DiscreteMeasure(rng.uniform(-2, 2, size=4), random_simplex(rng, 4))
        grid_value = w1_piecewise_integral(
            alpha.points[:, 0], alpha.weights, beta.points[:, 0], beta.weights
        )
        assert_allclose(w1_1d_cdf(alpha, beta), grid_value, rtol=0, atol=1e-3)

    def test_two_diracs(self):
        alpha = DiscreteMeasure([0.0], [1.0])
        beta = DiscreteMeasure([2.5], [1.0])
        assert w1_1d_cdf(alpha, beta) == 2.5


class TestExtremality:
    def test_product_coupling_is_not_extremal(self, rng):
        a = random_simplex(rng, 3)
        b = random_simplex(rng, 3)
        assert not is_extremal_coupling(product_coupling(a, b))

    def test_permutation_plan_is_extremal(self):
        assert is_extremal_coupling(np.eye(4) / 4.0)


class TestMetricValidation:
    def test_symmetry_witness(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricAxiomError) as err:
            validate_metric(D)
        assert err.value.axiom == "symmetry"

    def test_triangle_witness(self):
        D = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        with pytest.raises(MetricAxiomError) as err:
            validate_metric(D)
        assert err.value.axiom == "triangle"
        i, k, j = err.value.witness
        assert D[i, j] > D[i, k] + D[k, j]

    def test_diagonal_witness(self):
        D = np.array([[0.5]])
        with pytest.raises(MetricAxiomError) as err:
            validate_metric(D)
        assert err.value.axiom == "zero_diagonal"

    def test_euclidean_distances_pass(self, rng):
        x = random_points(rng, 20, 3)
        D = build_cost_matrix(x, x, CostSpec.euclidean())
        validate_metric(D)


class TestWassersteinP:
    def test_zero_one_cost_gives_tv_root(self, rng):
        for p in (1.0, 2.0):
            a = rational_simplex(rng, 6)
            b = rational_simplex(rng, 6)
            D = 1.0 - np.eye(6)
            tv_half = 0.5 * float(np.abs(a - b).sum())
            assert_allclose(wasserstein_p(a, b, D, p), tv_half ** (1.0 / p),
                            rtol=0, atol=1e-10)

    def test_orders_are_monotone(self, rng):
        x = random_points(rng, 6, 2)
        D = build_cost_matrix(x, x, CostSpec.euclidean())
        for _ in range(10):
            a = rational_simplex(rng, 6)
            b = rational_simplex(rng, 6)
            w1 = wasserstein_p(a, b, D, 1.0)
            w2 = wasserstein_p(a, b, D, 2.0)
            w3 = wasserstein_p(a, b, D, 3.0)
            assert w1 <= w2 + 1e-9
            assert w2 <= w3 + 1e-9

    def test_diameter_interpolation_bound(self, rng):
        # W_q <= diam^{(q-p)/q} * W_p^{p/q} for p <= q.
        x = random_points(rng, 5, 2)
        D = build_cost_matrix(x, x, CostSpec.euclidean())
        diam = float(D.max())
        for _ in range(10):
            a = rational_simplex(rng, 5)
            b = rational_simplex(rng, 5)
            for p, q in [(1.0, 2.0), (1.0, 3.0), (2.0, 3.0)]:
                wp = wasserstein_p(a, b, D, p)
                wq = wasserstein_p(a, b, D, q)
                bound = diam ** ((q - p) / q) * wp ** (p / q)
                assert wq <= bound + 1e-9

    def test_two_diracs_give_distance(self):
        # Distance d < 1 between two unit atoms: W_p = d for every p, which
        # also pins the exponent in the diameter bound.
        d = 0.3
        D = np.array([[0.0, d], [d, 0.0]])
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        for p in (1.0, 2.0, 3.0):
            assert_allclose(wasserstein_p(a, b, D, p), d, rtol=0, atol=1e-12)

    def test_power_past_the_float_range_names_p(self):
        D = np.array([[0.0, 10.0], [10.0, 0.0]])
        with pytest.raises(ValidationError, match="at p 400.0"):
            wasserstein_p([0.5, 0.5], [0.5, 0.5], D, 400)

    def test_costs_near_the_float_range_solve_without_a_warning(self):
        """The flow engine's total over flows scaled by 1e9 overflows here;
        the exact LP does not read it, so it must not warn (the suite
        turns a RuntimeWarning into an error)."""
        C = [[0.0, 1e300], [1e300, 0.0]]
        assert solve_kantorovich([1, 0], [0, 1], C).cost == 1e300
        D = np.array([[0.0, 10.0], [10.0, 0.0]])
        assert wasserstein_p([1, 0], [0, 1], D, 300) == 10.000000000000002
