"""Laguerre cells, semi-dual Monte Carlo energy, SGD, and Lloyd."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from otkit import semidiscrete
from otkit.errors import ValidationError
from otkit.measures import CostSpec
from otkit.semidiscrete import (
    LaguerreAssignment,
    LloydConfig,
    Sampler,
    SemiDiscreteProblem,
    SGDConfig,
    lloyd_quantize,
    semi_discrete_energy_mc,
    semi_discrete_gradient_mc,
    sgd_solve,
)

import sgd_reference


def unit_interval_problem(targets, weights):
    sampler = Sampler.uniform_box([0.0], [1.0])
    return SemiDiscreteProblem(sampler, np.asarray(targets, dtype=float),
                               weights)


class TestSampler:
    def test_uniform_box_bounds_and_shape(self):
        s = Sampler.uniform_box([0.0, -1.0], [1.0, 2.0])
        pts = s.draw(np.random.default_rng(0), 500)
        assert pts.shape == (500, 2)
        assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= 1.0
        assert pts[:, 1].min() >= -1.0 and pts[:, 1].max() <= 2.0

    def test_deterministic_given_seed(self):
        s = Sampler.gaussian([0.0, 0.0], np.eye(2))
        a = s.draw(np.random.default_rng(7), 100)
        b = s.draw(np.random.default_rng(7), 100)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_mixture_validation(self):
        with pytest.raises(ValidationError):
            Sampler.gaussian_mixture([0.7, 0.7], [[0.0]], [[[1.0]]])
        with pytest.raises(ValidationError):
            Sampler.uniform_box([1.0], [0.0])
        with pytest.raises(ValidationError):
            Sampler.gaussian_mixture([np.nan, 1.0], [[0.0], [1.0]],
                                     [[[1.0]], [[1.0]]])
        with pytest.raises(ValidationError):
            Sampler.gaussian_mixture([1.0], [[0.0, 0.0]], [np.eye(3)])
        with pytest.raises(ValidationError):
            Sampler.gaussian_mixture([0.5, 0.5], [[0.0], [0.0, 1.0]],
                                     [np.eye(1), np.eye(2)])


class TestProblemValidation:
    def test_non_finite_targets_or_weights_rejected(self):
        sampler = Sampler.uniform_box([0.0], [1.0])
        with pytest.raises(ValidationError):
            SemiDiscreteProblem(sampler, [[0.2], [0.8]], [np.nan, 1.0])
        with pytest.raises(ValidationError):
            SemiDiscreteProblem(sampler, [[0.2], [np.inf]], [0.5, 0.5])
        with pytest.raises(ValidationError):
            SemiDiscreteProblem(sampler, [[0.2], [np.nan]], [0.5, 0.5])

    @pytest.mark.parametrize("cov", [[[-1.0]], [[1.0, 0.5], [0.0, 1.0]],
                                     [[1.0, 2.0], [2.0, 1.0]], [[np.nan]]],
                             ids=["negative", "asymmetric", "indefinite",
                                  "nan"])
    def test_bad_covariance_rejected_when_the_sampler_is_built(self, cov):
        d = len(cov)
        with pytest.raises(ValidationError):
            Sampler.gaussian(np.zeros(d), cov)
        with pytest.raises(ValidationError):
            Sampler.gaussian_mixture([0.5, 0.5], np.zeros((2, d)),
                                     [np.eye(d).tolist(), cov])

    def test_non_finite_gaussian_mean_rejected(self):
        with pytest.raises(ValidationError):
            Sampler.gaussian([0.0, np.nan], np.eye(2))


class TestLaguerreCells:
    def test_zero_weights_give_voronoi(self):
        prob = unit_interval_problem([[0.2], [0.8]], [0.5, 0.5])
        cells = LaguerreAssignment(prob, [0.0, 0.0])
        x = np.array([[0.1], [0.49], [0.51], [0.9]])
        assert list(cells.membership(x)) == [0, 0, 1, 1]

    def test_ties_break_to_lowest_index(self):
        prob = unit_interval_problem([[0.25], [0.75]], [0.5, 0.5])
        cells = LaguerreAssignment(prob, [0.0, 0.0])
        assert cells.membership(np.array([[0.5]]))[0] == 0

    def test_raising_weight_enlarges_cell(self):
        prob = unit_interval_problem([[0.25], [0.75]], [0.5, 0.5])
        x = Sampler.uniform_box([0.0], [1.0]).draw(
            np.random.default_rng(3), 4000)
        base = np.mean(LaguerreAssignment(prob, [0.0, 0.0]).membership(x) == 0)
        grown = np.mean(
            LaguerreAssignment(prob, [0.2, 0.0]).membership(x) == 0)
        assert grown > base


class TestEnergy:
    def test_single_cell_reduces_to_expected_cost(self):
        prob = unit_interval_problem([[0.5]], [1.0])
        e0, _ = semi_discrete_energy_mc(prob, [0.0], 5000, seed=11)
        e5, _ = semi_discrete_energy_mc(prob, [5.0], 5000, seed=11)
        assert_allclose(e0, e5, rtol=0, atol=1e-12)
        # E[ (X - 1/2)^2 ] = 1/12 for X uniform on [0, 1].
        assert abs(e0 - 1.0 / 12.0) <= 4e-3

    def test_two_cell_analytic_value(self):
        prob = unit_interval_problem([[0.25], [0.75]], [0.5, 0.5])
        e, se = semi_discrete_energy_mc(prob, [0.0, 0.0], 60000, seed=5)
        assert abs(e - 1.0 / 48.0) <= 3.0 * se

    def test_gauge_invariance_same_seed(self):
        prob = unit_interval_problem([[0.2], [0.9]], [0.3, 0.7])
        g = np.array([0.05, -0.02])
        e1, _ = semi_discrete_energy_mc(prob, g, 2000, seed=2)
        e2, _ = semi_discrete_energy_mc(prob, g + 3.7, 2000, seed=2)
        assert_allclose(e1, e2, rtol=0, atol=1e-10)

    def test_deterministic_given_seed(self):
        prob = unit_interval_problem([[0.25], [0.75]], [0.5, 0.5])
        first = semi_discrete_energy_mc(prob, [0.1, 0.0], 1000, seed=9)
        second = semi_discrete_energy_mc(prob, [0.1, 0.0], 1000, seed=9)
        assert first == second


class TestGradient:
    def test_components_sum_to_zero(self):
        prob = unit_interval_problem([[0.1], [0.4], [0.9]],
                                     [0.2, 0.3, 0.5])
        grad = semi_discrete_gradient_mc(prob, [0.0, 0.1, -0.1], 3000, seed=4)
        assert abs(grad.sum()) <= 1e-12

    def test_symmetric_optimum_has_zero_gradient(self):
        prob = unit_interval_problem([[0.25], [0.75]], [0.5, 0.5])
        n = 40000
        grad = semi_discrete_gradient_mc(prob, [0.0, 0.0], n, seed=13)
        se = 0.5 / np.sqrt(n)
        assert np.abs(grad).max() <= 3.0 * se

    def test_voronoi_masses_on_unit_interval(self):
        prob = unit_interval_problem([[0.0], [1.0]], [1.0, 0.0])
        n = 40000
        grad = semi_discrete_gradient_mc(prob, [0.0, 0.0], n, seed=17)
        se = 0.5 / np.sqrt(n)
        assert abs(grad[0] - 0.5) <= 3.0 * se
        assert abs(grad[1] + 0.5) <= 3.0 * se

    def test_finite_differences_with_common_random_numbers(self):
        sampler = Sampler.gaussian([0.0, 0.0], 0.5 * np.eye(2))
        targets = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]])
        prob = SemiDiscreteProblem(sampler, targets,
                                   np.array([0.3, 0.3, 0.4]))
        g = np.array([0.1, -0.05, 0.0])
        n, seed, h = 60000, 23, 1e-3
        grad = semi_discrete_gradient_mc(prob, g, n, seed)
        for j in range(3):
            e_plus, se = semi_discrete_energy_mc(
                prob, g + h * np.eye(3)[j], n, seed)
            e_minus, _ = semi_discrete_energy_mc(
                prob, g - h * np.eye(3)[j], n, seed)
            fd = (e_plus - e_minus) / (2.0 * h)
            assert abs(fd - grad[j]) <= max(3.0 * se, 5.0 * h)


class TestSGD:
    def test_single_target_is_stationary(self):
        prob = unit_interval_problem([[0.5]], [1.0])
        g, trace = sgd_solve(prob, SGDConfig(n_iter=50, seed=1,
                                             eval_every=25))
        assert_allclose(g, [0.0], rtol=0, atol=1e-15)
        assert trace[-1].marginal_error == 0.0

    def test_symmetric_target_masses_converge(self):
        prob = unit_interval_problem([[0.0], [1.0]], [0.5, 0.5])
        cfg = SGDConfig(n_iter=100000, seed=3, eval_every=100000,
                        heldout_samples=20000)
        g, trace = sgd_solve(prob, cfg)
        assert trace[-1].marginal_error <= 0.04

    def test_asymmetric_boundary_location(self):
        # With b = (1/4, 3/4) the optimal cells split the interval at
        # x = 1/4; the boundary solves t^2 - g1 = (t-1)^2 - g2.
        prob = unit_interval_problem([[0.0], [1.0]], [0.25, 0.75])
        cfg = SGDConfig(n_iter=100000, seed=7, eval_every=50000,
                        heldout_samples=20000)
        g, trace = sgd_solve(prob, cfg)
        boundary = (1.0 + g[0] - g[1]) / 2.0
        assert abs(boundary - 0.25) <= 0.02
        assert trace[-1].marginal_error <= 0.04

    def test_trace_reports_progress(self):
        prob = unit_interval_problem([[0.0], [1.0]], [0.25, 0.75])
        cfg = SGDConfig(n_iter=20000, seed=5, eval_every=1000,
                        heldout_samples=5000)
        _, trace = sgd_solve(prob, cfg)
        assert len(trace) == 20
        assert trace[-1].marginal_error < trace[0].marginal_error
        assert trace[0].step_size > trace[-1].step_size

    def test_per_sample_gradients_pool_to_mc_gradient(self):
        prob = unit_interval_problem([[0.2], [0.8]], [0.4, 0.6])
        g = np.array([0.05, 0.0])
        n, seed = 5000, 29
        rng = np.random.default_rng(seed)
        x = prob.sampler.draw(rng, n)
        members = LaguerreAssignment(prob, g).membership(x)
        pooled = np.zeros(2)
        for j in members:
            step = prob.target_weights.copy()
            step[j] -= 1.0
            pooled += step
        pooled /= n
        mc = semi_discrete_gradient_mc(prob, g, n, seed)
        assert_allclose(pooled, mc, rtol=0, atol=1e-12)


def _sampler(kind, d):
    if kind == "uniform_box":
        return Sampler.uniform_box(np.zeros(d), np.ones(d))
    if kind == "gaussian":
        return Sampler.gaussian(np.full(d, 0.5), 0.1 * np.eye(d))
    return Sampler.gaussian_mixture([0.3, 0.7], [np.zeros(d), np.ones(d)],
                                    [0.05 * np.eye(d), 0.2 * np.eye(d)])


@st.composite
def sgd_instances(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    # Targets on a coarse lattice, repeats allowed, so that cells tie.
    lattice = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    targets = draw(st.lists(st.lists(lattice, min_size=d, max_size=d),
                            min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=m,
                                     max_size=m)), dtype=float)
    cost = draw(st.sampled_from([CostSpec.sq_euclidean(), CostSpec.euclidean(),
                                 CostSpec.p_power(1.5)]))
    problem = SemiDiscreteProblem(
        _sampler(draw(st.sampled_from(["uniform_box", "gaussian", "mixture"])),
                 d), targets, weights / weights.sum(), cost)
    config = SGDConfig(n_iter=draw(st.integers(1, 700)),
                       seed=draw(st.integers(0, 2**31)),
                       tau0=draw(st.sampled_from([0.01, 0.5, 1.0])),
                       ell0=draw(st.sampled_from([1.0, 100.0])),
                       eval_every=draw(st.integers(1, 400)),
                       heldout_samples=draw(st.integers(1, 60)))
    return problem, config


# How `_Replay` decides between replay passes and plain steps: its
# measured costs, replay passes only (passes cost nothing), or plain steps
# only (a pass costs more than any block).
REPLAY_RULES = {"measured": {},
                "replay only": {"_PASS_COST": 0, "_CELLS_PER_STEP": np.inf},
                "plain only": {"_PASS_COST": np.inf}}


def _same_as_reference(problem, config, window=semidiscrete._WINDOW,
                       rule="measured"):
    with mock.patch.multiple(semidiscrete, _WINDOW=window,
                             **REPLAY_RULES[rule]):
        g, trace = sgd_solve(problem, config)
    g_ref, trace_ref = sgd_reference.sgd_solve(problem, config)
    assert g.tobytes() == g_ref.tobytes()
    assert trace == trace_ref


class TestSGDAgainstPerStepReference:
    """Speculative replay in blocks against one validated 1 x m matrix per
    step.

    The instances take up to 700 steps, so they cross the 256-sample batch
    edges, with large steps (tau0 = 1, ell0 = 1) whose guesses often miss,
    and evaluations every 1 to 400 steps, which need not divide the block.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sgd_instances(), st.sampled_from([1, 2, 3, 7, 16, 64, 300]),
           st.sampled_from(sorted(REPLAY_RULES)))
    def test_same_potentials_and_trace(self, instance, window, rule):
        _same_as_reference(*instance, window=window, rule=rule)

    @pytest.mark.parametrize("tau0", [0.01, 1.0])
    def test_full_length_run(self, tau0):
        rng = np.random.default_rng(16)
        problem = SemiDiscreteProblem(Sampler.uniform_box([0, 0], [1, 1]),
                                      rng.random((16, 2)), np.full(16, 1 / 16))
        _same_as_reference(problem, SGDConfig(n_iter=15000, seed=5,
                                               tau0=tau0))

    def test_seed_past_float_precision(self):
        # 2**64 + 1 has no float; read through one it would become 2**64,
        # another stream.  The reference gets the seed as given.
        seed = 2**64 + 1
        problem = SemiDiscreteProblem(Sampler.uniform_box([0, 0], [1, 1]),
                                      [[0.2, 0.3], [0.7, 0.6], [0.5, 0.9]],
                                      [0.25, 0.5, 0.25])
        g, trace = sgd_solve(problem, SGDConfig(n_iter=600, seed=seed,
                                                eval_every=200))
        g_ref, trace_ref = sgd_reference.sgd_solve(problem, SimpleNamespace(
            n_iter=600, seed=seed, tau0=1.0, ell0=100.0, eval_every=200,
            heldout_samples=2000))
        assert g.tobytes() == g_ref.tobytes()
        assert trace == trace_ref


class TestLloyd:
    def test_uniform_interval_two_cells(self):
        sampler = Sampler.uniform_box([0.0], [1.0])
        cfg = LloydConfig(n_iter=80, seed=2, n_samples=40000)
        Y, b, cost = lloyd_quantize(sampler, 2, cfg)
        centers = np.sort(Y.ravel())
        assert np.abs(centers - np.array([0.25, 0.75])).max() <= 0.01
        assert abs(cost - 1.0 / 48.0) <= 0.05 / 48.0
        assert_allclose(b, [0.5, 0.5], rtol=0, atol=0.02)

    def test_single_centroid_is_the_mean(self):
        sampler = Sampler.uniform_box([0.0], [1.0])
        cfg = LloydConfig(n_iter=2, seed=6, n_samples=30000)
        Y, b, _ = lloyd_quantize(sampler, 1, cfg)
        assert abs(Y[0, 0] - 0.5) <= 3.0 * (1.0 / np.sqrt(12 * 30000))
        assert b[0] == 1.0

    def test_separated_mixture_recovers_components(self):
        sampler = Sampler.gaussian_mixture(
            [0.5, 0.5], [[-3.0], [3.0]], [[[0.1]], [[0.1]]])
        cfg = LloydConfig(n_iter=40, seed=8, n_samples=20000)
        Y, b, _ = lloyd_quantize(sampler, 2, cfg)
        centers = np.sort(Y.ravel())
        assert np.abs(centers - np.array([-3.0, 3.0])).max() <= 0.05
        assert_allclose(b, [0.5, 0.5], rtol=0, atol=0.02)

    def test_cost_nonincreasing_on_fixed_samples(self):
        sampler = Sampler.uniform_box([0.0, 0.0], [1.0, 1.0])
        costs = []
        for k in range(6):
            cfg = LloydConfig(n_iter=k, seed=4, n_samples=5000)
            _, _, cost = lloyd_quantize(sampler, 4, cfg)
            costs.append(cost)
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-12)

    def test_centroids_sit_at_cell_means(self):
        sampler = Sampler.uniform_box([0.0, 0.0], [1.0, 1.0])
        cfg = LloydConfig(n_iter=100, seed=10, n_samples=20000)
        Y, b, _ = lloyd_quantize(sampler, 3, cfg)
        fresh = sampler.draw(np.random.default_rng(99), 40000)
        d = ((fresh[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d, axis=1)
        for j in range(3):
            cell = fresh[labels == j]
            assert cell.shape[0] > 0
            assert np.abs(cell.mean(axis=0) - Y[j]).max() <= 0.02

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LloydConfig(n_iter=-1, seed=0)
        with pytest.raises(ValidationError):
            SGDConfig(n_iter=0, seed=0)
        with pytest.raises(ValidationError):
            SGDConfig(n_iter=10, seed=0, tau0=-1.0)
