"""Sinkhorn solver: convergence, dual identities, Hilbert-metric bounds."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from otkit import entropic
from otkit.entropic import (
    SinkhornConfig,
    contraction_eta_lambda,
    gibbs_kernel,
    hilbert_metric,
    kl_projection_col,
    kl_projection_row,
    sinkhorn,
    sinkhorn_divergence,
    softmin,
)
from otkit.entropic import _TRACE_BLOCK, _relaxation, _relaxed, _row_dots
from otkit.errors import ValidationError
from otkit.exact import solve_kantorovich
from otkit.measures import CostSpec, build_cost_matrix

from sinkhorn_reference import sinkhorn_log_domain

from conftest import (
    exponent_rounding,
    f_update_gap,
    full_iterates,
    l1_violations,
    potential_plan,
    random_points,
    random_simplex,
    rational_simplex,
)


def make_instance(rng, n, m, d=2):
    a = random_simplex(rng, n)
    b = random_simplex(rng, m)
    C = build_cost_matrix(random_points(rng, n, d), random_points(rng, m, d),
                          CostSpec.sq_euclidean())
    return a, b, C


def plan_from_potentials(a, b, C, f, g, eps):
    """The plan a_i b_j exp((f_i + g_j - C_ij) / eps) of two potentials."""
    return (np.outer(a, b)
            * np.exp((f[:, None] + g[None, :] - C) / eps))


def dual_value(a, b, C, f, g, eps):
    P = plan_from_potentials(a, b, C, f, g, eps)
    return float(f @ a + g @ b) - eps * (P.sum() - 1.0)


def kl_generalized(p, q):
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask]))
                 - p.sum() + q.sum())


class TestGibbsSoftmin:
    def test_gibbs_kernel_entries(self):
        C = np.array([[0.0, 1.0], [2.0, 3.0]])
        K = gibbs_kernel(C, 2.0)
        assert_allclose(K, np.exp(-C / 2.0), rtol=0, atol=0)

    def test_gibbs_kernel_overflow_is_a_validation_error(self):
        # exp(3000) is past the float range; exp(-3000) underflows to 0.
        with pytest.raises(ValidationError, match="overflows"):
            gibbs_kernel([[-3.0]], 1e-3)
        assert gibbs_kernel([[3.0]], 1e-3)[0, 0] == 0.0

    def test_softmin_approaches_hard_minimum(self):
        h = np.array([3.0, 1.0, 2.0])
        w = np.array([0.2, 0.5, 0.3])
        assert abs(softmin(h, w, 1e-6) - 1.0) <= 1e-5
        # With probability weights the softmin sits between the hard
        # minimum and the weighted mean.
        assert 1.0 <= softmin(h, w, 1.0) <= float(w @ h)

    def test_softmin_closed_form(self):
        h = np.array([0.0, 0.0])
        w = np.array([0.5, 0.5])
        # -eps log(sum w) = 0 when weights sum to one and values tie.
        assert_allclose(softmin(h, w, 0.7), 0.0, rtol=0, atol=1e-15)


class TestSinkhornBasics:
    def test_converges_to_marginals(self, rng):
        a, b, C = make_instance(rng, 7, 5)
        cfg = SinkhornConfig(epsilon=0.5 * float(C.mean()), marginal_tol=1e-10)
        state, coupling, cost_reg, cost_linear = sinkhorn(a, b, C, cfg)
        assert state.status == "optimal"
        assert np.abs(coupling.plan.sum(axis=1) - a).sum() <= 1e-9
        assert np.abs(coupling.plan.sum(axis=0) - b).sum() <= 1e-9
        assert cost_linear == pytest.approx(float((coupling.plan * C).sum()))

    def test_optimal_holds_for_the_returned_plan(self):
        # A 10 x 11 epsilon ladder whose scalings meet --tol 1e-12 one
        # iteration before the plan rebuilt from the gauge-split
        # potentials does: that plan sat at L1 1.000e-12 above the tol.
        X = [[0.9631574876881722, 0.061014348124349915],
             [0.08042700753990883, 0.4618202970541099],
             [0.5888525333700854, 0.46721827858919907],
             [0.961498185071562, 0.7944042603314723],
             [0.41825716200855145, 0.4591059259639044],
             [0.9485701916839363, 0.15696644320135344],
             [0.9749450129465713, 0.07811966808119886],
             [0.7288912388691787, 0.6159109483309191],
             [0.506865764590823, 0.6609822517517353],
             [0.29647400515993794, 0.26322293930623686]]
        Y = [[0.899974458682981, 0.5020544173317742],
             [0.30611287640638696, 0.5789749542022691],
             [0.9794825735681212, 0.34194915280560356],
             [0.15680380995779097, 0.06742638765883935],
             [0.0013532615547933169, 0.8240630980206657],
             [0.13939051269787228, 0.8564717611724671],
             [0.6020508677195069, 0.5168918625013361],
             [0.05903560046550871, 0.32219466552062703],
             [0.09460958810471554, 0.45777389127390034],
             [0.11653231641900552, 0.4634149887197919],
             [0.5299172316598677, 0.004123846705839651]]
        a = np.array([72498172, 2471276, 104529274, 255573148, 200365029,
                      40886760, 79861550, 7954680, 69172603,
                      166687508]) / 1e9
        b = np.array([145108281, 147349677, 111553209, 2560667, 38892468,
                      4623660, 21334024, 124950965, 10808034, 188988848,
                      203830167]) / 1e9
        C = build_cost_matrix(np.array(X), np.array(Y),
                              CostSpec.sq_euclidean())
        schedule = [0.41185946657820816, 0.20592973328910408,
                    0.10296486664455204, 0.05148243332227602,
                    0.04118594665782082]
        tol = 1e-12
        cfg = SinkhornConfig(epsilon=schedule[-1], max_iter=200000,
                             marginal_tol=tol, epsilon_schedule=schedule)
        state, coupling, *_ = sinkhorn(a, b, C, cfg)
        assert state.status == "optimal"
        assert np.abs(coupling.plan.sum(axis=1) - a).sum() <= tol
        assert np.abs(coupling.plan.sum(axis=0) - b).sum() <= tol
        # The same plan rebuilt from the returned potentials alone.
        P = a[:, None] * b * np.exp((state.f[:, None] + state.g - C)
                                    / state.epsilon)
        assert np.abs(P.sum(axis=1) - a).sum() <= tol * (1 + 1e-6)
        assert np.abs(P.sum(axis=0) - b).sum() <= tol * (1 + 1e-6)

    def test_gauge_balances_potentials(self, rng):
        a, b, C = make_instance(rng, 6, 6)
        cfg = SinkhornConfig(epsilon=0.3 * float(C.mean()))
        state, *_ = sinkhorn(a, b, C, cfg)
        assert abs(float(state.f @ a) - float(state.g @ b)) <= 1e-12

    def test_dual_trace_is_nondecreasing(self, rng):
        a, b, C = make_instance(rng, 8, 6)
        cfg = SinkhornConfig(epsilon=0.2 * float(C.mean()), marginal_tol=1e-11,
                             record_trace=True)
        state, *_ = sinkhorn(a, b, C, cfg)
        duals = [rec.dual for rec in state.trace]
        diffs = np.diff(duals)
        assert np.all(diffs >= -1e-12)

    def test_trace_is_recorded_only_when_asked(self, rng):
        a, b, C = make_instance(rng, 6, 5)
        cfg = SinkhornConfig(epsilon=0.3 * float(C.mean()))
        state = sinkhorn(a, b, C, cfg).state
        assert state.trace == []
        traced = sinkhorn(a, b, C, replace(cfg, record_trace=True)).state
        assert [rec.iteration for rec in traced.trace] == list(
            range(1, traced.iteration + 1))
        last = traced.trace[-1]
        assert (state.viol_a, state.viol_b) == (last.viol_a, last.viol_b)

    def test_budget_exhaustion_reported(self, rng):
        a, b, C = make_instance(rng, 6, 6)
        cfg = SinkhornConfig(epsilon=1e-3 * float(C.mean()), max_iter=3)
        state, coupling, *_ = sinkhorn(a, b, C, cfg)
        assert state.status == "max_iter"
        assert state.iteration == 3

    def test_unnormalized_weights_rejected(self, rng):
        a, b, C = make_instance(rng, 4, 4)
        with pytest.raises(ValidationError):
            sinkhorn(2 * a, b, C, SinkhornConfig(epsilon=1.0))

    def test_identical_marginals_zero_diagonal_cost(self, rng):
        # Self-transport at moderate eps keeps most mass near the diagonal;
        # the plan is symmetric by symmetry of the inputs.
        a = random_simplex(rng, 5)
        x = random_points(rng, 5, 2)
        C = build_cost_matrix(x, x, CostSpec.sq_euclidean())
        cfg = SinkhornConfig(epsilon=float(C.mean()), marginal_tol=1e-13,
                             max_iter=50000)
        state, coupling, *_ = sinkhorn(a, a, C, cfg)
        assert_allclose(coupling.plan, coupling.plan.T, rtol=0, atol=1e-12)


class TestDomainsAgree:
    def test_plans_and_potentials_match(self, rng):
        a, b, C = make_instance(rng, 6, 7)
        eps = 0.5 * float(C.mean())
        cfg_log = SinkhornConfig(epsilon=eps, marginal_tol=1e-12,
                                 log_domain=True, max_iter=20000)
        cfg_sca = SinkhornConfig(epsilon=eps, marginal_tol=1e-12,
                                 log_domain=False, max_iter=20000)
        res_log = sinkhorn(a, b, C, cfg_log)
        res_sca = sinkhorn(a, b, C, cfg_sca)
        assert np.max(np.abs(res_log.coupling.plan
                             - res_sca.coupling.plan)) <= 1e-10
        assert np.max(np.abs(res_log.state.f - res_sca.state.f)) <= 1e-8
        assert np.max(np.abs(res_log.state.g - res_sca.state.g)) <= 1e-8

    def test_scaling_domain_overflow_rejected(self, rng):
        a, b, C = make_instance(rng, 5, 5)
        C = C / C.max() * 2000.0
        with pytest.raises(ValidationError):
            sinkhorn(a, b, C, SinkhornConfig(epsilon=1.0, log_domain=False))


def unit_square_instance(seed, n, m):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = rng.random((m, 2))
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return rng, C


def assert_matches_reference(a, b, C, cfg):
    new_result = sinkhorn(a, b, C, cfg)
    ref_result = sinkhorn_log_domain(a, b, C, cfg)
    new, ref = new_result.state, ref_result.state
    assert len(new.trace) == new.iteration
    assert new.status == ref.status
    assert abs(new.iteration - ref.iteration) <= max(1, 0.01 * ref.iteration)
    scale = max(cfg.epsilon, float(np.abs(ref.f).max()),
                float(np.abs(ref.g).max()))
    assert np.abs(new.f - ref.f).max() <= 1e-12 * scale
    assert np.abs(new.g - ref.g).max() <= 1e-12 * scale
    for rec, want in zip(new.trace, ref.trace):
        assert (rec.iteration, rec.epsilon) == (want.iteration, want.epsilon)
        assert abs(rec.viol_a - want.viol_a) <= 1e-12
        assert abs(rec.viol_b - want.viol_b) <= 1e-12
        assert abs(rec.dual - want.dual) <= 1e-12 * scale
        assert abs(rec.hilbert_step - want.hilbert_step) <= 1e-10
    # The plan and the linear cost relative to their size; the regularized
    # cost, a difference of terms of the potentials' size, like the dual.
    new_plan, ref_plan = new_result.coupling.plan, ref_result.coupling.plan
    assert np.abs(new_plan - ref_plan).max() <= 1e-12 * ref_plan.max()
    assert (abs(new_result.cost_linear - ref_result.cost_linear)
            <= 1e-12 * abs(ref_result.cost_linear))
    assert abs(new_result.cost_reg - ref_result.cost_reg) <= 1e-12 * scale


# One draw of the instance law that the absorbed-kernel loop is fuzzed on.
# With ``single_atom`` set, that side is one atom of weight 1 (log b_j = 0)
# and about half the costs are -0.0: the instances on which a soft minimum
# comes out -0.0.
REFERENCE_LAW = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
    m=st.integers(1, 12), zero_a=st.booleans(), zero_b=st.booleans(),
    log10_scale=st.floats(-8.0, 8.0), eps_share=st.floats(3e-3, 1e3),
    single_atom=st.sampled_from([None, "a", "b"]), stages=st.integers(1, 4))
# A draw of the law with a single atom on the b side and -0.0 costs.
SINGLE_ATOM_DRAW = dict(seed=5, n=4, m=1, zero_a=False, zero_b=False,
                        log10_scale=0.0, eps_share=0.1, single_atom="b",
                        stages=1)


def reference_law_instance(seed, n, m, zero_a, zero_b, log10_scale,
                           eps_share, single_atom, stages):
    """(a, b, C, config) of one draw of `REFERENCE_LAW`, with a trace."""
    n, m = (1 if single_atom == "a" else n), (1 if single_atom == "b" else m)
    rng, C = unit_square_instance(seed, n, m)
    C = C * 10.0 ** log10_scale
    a = rng.exponential(size=n) + 1e-3
    b = rng.exponential(size=m) + 1e-3
    if zero_a and n > 1:
        a[rng.integers(n)] = 0.0
    if zero_b and m > 1:
        b[rng.integers(m)] = 0.0
    a, b = a / a.sum(), b / b.sum()
    eps = eps_share * float(C.mean())
    if single_atom:
        C[rng.random(C.shape) < 0.5] = -0.0
    schedule = tuple(eps * 2.0 ** k for k in range(stages - 1, -1, -1))
    return a, b, C, SinkhornConfig(epsilon=eps, max_iter=5000,
                                   marginal_tol=1e-9,
                                   epsilon_schedule=schedule,
                                   record_trace=True)


class TestAgainstLogDomainReference:
    """The absorbed-kernel loop against the plain log-domain loop."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**REFERENCE_LAW)
    @example(**SINGLE_ATOM_DRAW)
    def test_fuzz(self, **draw):
        a, b, C, cfg = reference_law_instance(**draw)
        assert_matches_reference(a, b, C, replace(cfg, overrelax=False))

    def test_kernel_at_zero_potentials_has_an_empty_row(self):
        rng, C = unit_square_instance(20, 8, 7)
        a, b = np.full(8, 1 / 8), np.full(7, 1 / 7)
        eps = 1e-3 * float(C.mean())
        assert np.any(np.all(np.exp(-C / eps) == 0.0, axis=1))
        with pytest.raises(ValidationError):
            sinkhorn(a, b, C, SinkhornConfig(epsilon=eps, max_iter=100000,
                                             log_domain=False))
        assert_matches_reference(a, b, C, SinkhornConfig(epsilon=eps,
                                                         max_iter=100000,
                                                         record_trace=True,
                                                         overrelax=False))


class TestOverrelaxedAgainstPlain:
    """Over-relaxed steps against plain ones, on the reference law."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(**REFERENCE_LAW)
    def test_fuzz(self, **draw):
        a, b, C, cfg = reference_law_instance(**draw)
        relaxed = sinkhorn(a, b, C, cfg)
        plain = sinkhorn(a, b, C, replace(cfg, overrelax=False))
        # The same status, except where the relaxed steps reach the
        # tolerance within a budget that the plain ones exhaust: at
        # eps = 3e-3 mean(C) plain steps can take over 10^5 iterations.
        assert (relaxed.state.status, plain.state.status) != (
            "max_iter", "optimal")
        on_a, on_b = a > 0, b > 0
        scale = float(np.abs(C).max()) + max(cfg.epsilon_schedule)
        tol = cfg.marginal_tol
        for res in (relaxed, plain):
            if res.state.status == "optimal":
                f, g = res.state.f, res.state.g
                P = potential_plan(a, b, C, f, g, cfg.epsilon)
                rounding = exponent_rounding(a, b, C, f, g, cfg.epsilon)
                assert max(l1_violations(P, a, b)) <= tol + rounding
        if plain.state.status == "optimal":
            # D is concave with gradient (a - P 1, b - P^T 1), whose L1
            # norms are at most tol at both solutions, so either value is
            # within tol (|f1 - f2|_inf + |g1 - g2|_inf) of the other.
            df = np.abs(relaxed.state.f - plain.state.f)[on_a].max()
            dg = np.abs(relaxed.state.g - plain.state.g)[on_b].max()
            assert (abs(relaxed.cost_reg - plain.cost_reg)
                    <= tol * (df + dg) + 1e-13 * scale)
        # Within a stage the dual value never decreases.
        for prev, rec in zip(relaxed.state.trace, relaxed.state.trace[1:]):
            if rec.epsilon == prev.epsilon:
                assert rec.dual >= prev.dual - 1e-13 * scale


class TestOverrelaxation:
    @pytest.mark.parametrize("ratio", [0.0, 1e-300, 1e-6, 0.3, 0.9,
                                       0.99**5 * (1 - 1e-15), 0.99**5,
                                       0.999, 1.0, 2.0, np.inf])
    def test_omega_stays_below_the_cap(self, ratio):
        # Over a window of 5 iterations the violation fell by `ratio`.
        omega = _relaxation(1.0, ratio)
        rate = ratio ** 0.2
        if rate < 0.99 * (1 - 1e-15):
            assert omega == pytest.approx(2.0 / (1.0 + np.sqrt(1.0 - rate)),
                                          rel=1e-15)
        assert 1.0 <= omega <= 2.0 / (1.0 + np.sqrt(1.0 - 0.99))

    def test_no_window_from_a_zero_violation(self):
        assert _relaxation(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("seed, n, m, share", [(24, 6, 5, 0.02),
                                                   (3, 10, 10, 0.01),
                                                   (30, 10, 10, 0.01)])
    def test_dual_trace_is_nondecreasing_at_small_eps(self, seed, n, m,
                                                      share):
        # Taken unguarded, the first relaxed steps of these solves lower
        # the dual value by 6e-4 to 2e-2.
        rng = np.random.default_rng(seed)
        x, y = rng.random((n, 2)), rng.random((m, 2))
        C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        a = rng.exponential(size=n) + 1e-3
        b = rng.exponential(size=m) + 1e-3
        cfg = SinkhornConfig(epsilon=share * float(C.mean()), max_iter=20000,
                             marginal_tol=1e-11, record_trace=True)
        state = sinkhorn(a / a.sum(), b / b.sum(), C, cfg).state
        assert state.status == "optimal"
        assert np.all(np.diff([rec.dual for rec in state.trace]) >= -1e-12)

    def test_step_that_lowers_the_dual_is_taken_plain(self):
        # One atom whose row holds e^-5 of its mass: t = 5, and the step
        # with omega = 1.8 changes D by eps (9 - e^4 + e^-5) < 0.
        # The marginal is x * Kx, and the plain step is target / Kx.
        x, target = np.array([2.0]), np.array([1.0])
        Kx = np.exp([-5.0]) / x
        plain = _relaxed(x, Kx, x * Kx, target, 1.8)
        assert plain.tobytes() == (target / Kx).tobytes()
        # With t = 0.5 the gain is positive and the step is over-relaxed.
        Kx = np.exp([-0.5]) / x
        relaxed = _relaxed(x, Kx, x * Kx, target, 1.8)
        assert_allclose(relaxed, x * np.exp([0.9]), rtol=1e-15)


class TestStageBoundary:
    @pytest.mark.parametrize("overrelax", [True, False])
    def test_budget_ending_a_stage_returns_that_stage(self, overrelax):
        # A budget that runs out exactly as the first stage stops returns
        # that stage's eps, potentials and plan together.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a, b, C = make_instance(rng, 6, 5)
            cfg = SinkhornConfig(epsilon=0.05, epsilon_schedule=(0.2, 0.05),
                                 overrelax=overrelax, record_trace=True)
            trace = sinkhorn(a, b, C, cfg).state.trace
            first = sum(rec.epsilon == 0.2 for rec in trace)
            res = sinkhorn(a, b, C, replace(cfg, max_iter=first))
            state = res.state
            assert (state.status, state.iteration, state.epsilon) == (
                "max_iter", first, 0.2)
            P = plan_from_potentials(a, b, C, state.f, state.g, 0.2)
            assert max(l1_violations(P, a, b)) <= cfg.marginal_tol * (1 + 1e-6)
            assert np.abs(P - res.coupling.plan).sum() <= 1e-12


def solve_or_error(a, b, C, cfg):
    """Everything a solve returns, as comparable bytes, or its error."""
    try:
        state, coupling, cost_reg, cost_linear = sinkhorn(a, b, C, cfg)
    except ValidationError as exc:
        return ("error", str(exc))
    return (state.status, state.iteration, state.epsilon, state.f.tobytes(),
            state.g.tobytes(), coupling.plan.tobytes(), cost_reg,
            cost_linear, state.viol_a, state.viol_b)


class TestTraceOffPath:
    """f and g are formed only where they are read, and a trace or history
    is formed after the loop from the absorbed potentials and scalings; a
    solve must not move by a bit whether either is kept.  Some draws hold
    costs of -0.0: forming a potential at unit scalings gives it back bit
    for bit only if it is not -0.0."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 12), zero_a=st.booleans(), zero_b=st.booleans(),
           log10_scale=st.floats(-8.0, 8.0),
           eps_decade=st.integers(-6, 2), stages=st.integers(1, 4),
           log_domain=st.booleans(), max_iter=st.sampled_from([1, 7, 5000]),
           negative_zero=st.booleans())
    def test_fuzz(self, seed, n, m, zero_a, zero_b, log10_scale,
                  eps_decade, stages, log_domain, max_iter,
                  negative_zero):
        rng, C = unit_square_instance(seed, n, m)
        C = C * 10.0 ** log10_scale
        a = rng.exponential(size=n) + 1e-3
        b = rng.exponential(size=m) + 1e-3
        if zero_a and n > 1:
            a[rng.integers(n)] = 0.0
        if zero_b and m > 1:
            b[rng.integers(m)] = 0.0
        a, b = a / a.sum(), b / b.sum()
        # In the lowest decades the scalings leave [1e-50, 1e50] and are
        # absorbed (or the scaling-domain kernel underflows).
        eps = 10.0 ** (eps_decade + rng.random()) * float(C.mean())
        schedule = tuple(eps * 2.0 ** k for k in range(stages - 1, -1, -1))
        if negative_zero:
            C[rng.random(C.shape) < 0.5] = -0.0
        cfg = SinkhornConfig(epsilon=eps, max_iter=max_iter,
                             marginal_tol=1e-9, log_domain=log_domain,
                             epsilon_schedule=schedule)
        plain = solve_or_error(a, b, C, cfg)
        for kept in ({"record_trace": True}, {"record_history": True},
                     {"record_trace": True, "record_history": True}):
            assert solve_or_error(a, b, C, replace(cfg, **kept)) == plain


def solve_bits(a, b, C, cfg):
    """f, g, plan, trace records and history pairs of a solve as bytes, or
    its error.  At the smallest epsilons the returned plan overflows, which
    numpy would report as a warning."""
    try:
        with np.errstate(over="ignore"):
            state, coupling, _, _ = sinkhorn(a, b, C, cfg)
    except ValidationError as exc:
        return ("error", str(exc))
    return (state.f.tobytes(), state.g.tobytes(), coupling.plan.tobytes(),
            repr(state.trace),
            [f.tobytes() + g.tobytes() for f, g in state.history])


class TestNegativeZeroCosts:
    """A soft minimum over a column of weight 1 that holds the row's
    minimum -0.0 is -0.0.  That sign must not reach what `sinkhorn`
    returns: -0.0 costs give the bits of +0.0 costs in f, g, the plan, the
    trace records and the history pairs, down to epsilons at which
    eps log u underflows to -0.0."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           single=st.sampled_from(["a", "b"]),
           eps=st.sampled_from([5e-324, 1e-310, 1e-300, 0.1]),
           zero_share=st.sampled_from([0.5, 1.0]), log_domain=st.booleans(),
           overrelax=st.booleans(), max_iter=st.sampled_from([1, 7, 50]),
           tol=st.sampled_from([1e-12, 1e-300]))
    @example(seed=0, n=4, single="b", eps=1e-310, zero_share=1.0,
             log_domain=True, overrelax=False, max_iter=50, tol=1e-300)
    def test_fuzz(self, seed, n, single, eps, zero_share, log_domain,
                  overrelax, max_iter, tol):
        rng, C = unit_square_instance(seed, *((1, n) if single == "a"
                                              else (n, 1)))
        w = rng.exponential(size=n) + 1e-3
        w = w / w.sum()
        a, b = (np.ones(1), w) if single == "a" else (w, np.ones(1))
        zero = rng.random(C.shape) < zero_share
        negative, positive = C.copy(), C.copy()
        negative[zero], positive[zero] = -0.0, 0.0
        cfg = SinkhornConfig(epsilon=eps, max_iter=max_iter,
                             marginal_tol=tol, log_domain=log_domain,
                             overrelax=overrelax, record_trace=True,
                             record_history=True)
        assert (solve_bits(a, b, negative, cfg)
                == solve_bits(a, b, positive, cfg))


class TestTraceBlocks:
    """A traced solve forms its records in blocks after the loop."""

    def test_row_dots_have_the_bits_of_1d_dots(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 16, 31, 33, 100, 257):
            rows = rng.standard_normal((65, n))
            x = rng.exponential(size=n)
            want = np.array([row @ x for row in rows])
            assert _row_dots(rows, x).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REFERENCE_LAW, log_domain=st.booleans(),
           block=st.sampled_from([1, 7]))
    def test_blocks_of_any_size_give_the_same_bits(self, log_domain, block,
                                                   **draw):
        # A block of one iteration forms each record alone, as an
        # iteration would.
        a, b, C, cfg = reference_law_instance(**draw)
        cfg = replace(cfg, log_domain=log_domain)
        want = solve_or_error(a, b, C, cfg)
        if want[0] == "error":
            return
        trace = sinkhorn(a, b, C, cfg).state.trace
        with mock.patch.object(entropic, "_TRACE_BLOCK", block):
            assert solve_or_error(a, b, C, cfg) == want
            assert list(map(repr, sinkhorn(a, b, C, cfg).state.trace)) == (
                list(map(repr, trace)))

    @pytest.mark.parametrize("log_domain", [True, False])
    def test_hilbert_steps_have_the_bits_of_one_iteration_at_a_time(
            self, log_domain):
        # The history forms f at every half-step; iteration k's f is its
        # entry 2k.  Past several blocks, with a schedule, a zero-weight
        # atom and (in the log domain) absorptions.
        rng, C = unit_square_instance(7, 9, 8)
        a = rng.exponential(size=9) + 1e-3
        a[3] = 0.0
        b = rng.exponential(size=8) + 1e-3
        a, b = a / a.sum(), b / b.sum()
        eps = (3e-3 if log_domain else 0.02) * float(C.mean())
        cfg = SinkhornConfig(epsilon=eps, epsilon_schedule=(4 * eps, eps),
                             log_domain=log_domain, marginal_tol=1e-12)
        trace = sinkhorn(a, b, C, replace(cfg, record_trace=True)).state.trace
        history = sinkhorn(a, b, C, replace(cfg, record_history=True)
                           ).state.history
        assert len(trace) > 3 * _TRACE_BLOCK
        for rec in trace:
            k = rec.iteration
            step = (history[2 * k][0] - history[2 * k - 2][0]) / rec.epsilon
            assert repr(rec.hilbert_step) == repr(float(step.max()
                                                        - step.min()))

    def test_peak_memory_grows_only_by_the_records(self):
        # What a solve keeps beyond its records is one block of references
        # to the iterations not yet recorded and the arrays that form
        # them, a few hundred KiB at 64 x 64, whatever the iteration count.
        rng, C = unit_square_instance(3, 64, 64)
        a = rng.exponential(size=64) + 1e-3
        b = rng.exponential(size=64) + 1e-3
        a, b = a / a.sum(), b / b.sum()

        def peak_and_kept(max_iter):
            cfg = SinkhornConfig(epsilon=0.1 * float(C.mean()),
                                 max_iter=max_iter, marginal_tol=1e-300,
                                 record_trace=True)
            tracemalloc.start()
            try:
                res = sinkhorn(a, b, C, cfg)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(res.state.trace) == max_iter
            return peak, kept

        peak_short, kept_short = peak_and_kept(2000)
        peak_long, kept_long = peak_and_kept(8000)
        records = kept_long - kept_short
        assert records > 0
        assert peak_long - peak_short <= records + 512 * 1024


class TestPeakMemory:
    def test_a_solve_holds_the_kernel_and_the_plan(self):
        # The kernel is built from its soft minimum's exponentials and the
        # plan from the scalings, in place: a solve holds at most the kernel
        # and the plan it returns as n x m arrays, and no temporary of that
        # size beyond them.
        rng, C = unit_square_instance(3, 256, 256)
        a = rng.exponential(size=256) + 1e-3
        b = rng.exponential(size=256) + 1e-3
        a, b = a / a.sum(), b / b.sum()
        cfg = SinkhornConfig(epsilon=0.1 * float(C.mean()))
        tracemalloc.start()
        try:
            res = sinkhorn(a, b, C, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.state.status == "optimal"
        assert peak <= 2.5 * C.nbytes


class TestDualIncrements:
    def test_half_step_increment_is_generalized_kl(self, rng):
        a, b, C = make_instance(rng, 5, 4)
        eps = 0.4 * float(C.mean())
        cfg = SinkhornConfig(epsilon=eps, max_iter=30, marginal_tol=1e-14,
                             record_history=True, overrelax=False)
        state, *_ = sinkhorn(a, b, C, cfg)
        hist = state.history
        assert hist is not None and len(hist) >= 7
        for t in range(len(hist) - 1):
            f0, g0 = hist[t]
            f1, g1 = hist[t + 1]
            d0 = dual_value(a, b, C, f0, g0, eps)
            d1 = dual_value(a, b, C, f1, g1, eps)
            P0 = plan_from_potentials(a, b, C, f0, g0, eps)
            if t % 2 == 0:  # f-update
                expected = eps * kl_generalized(a, P0.sum(axis=1))
            else:  # g-update
                expected = eps * kl_generalized(b, P0.sum(axis=0))
            assert_allclose(d1 - d0, expected, rtol=1e-7, atol=1e-9)


class TestFixedPoint:
    def test_converged_potentials_satisfy_softmin_equations(self, rng):
        a, b, C = make_instance(rng, 6, 5)
        eps = 0.3 * float(C.mean())
        cfg = SinkhornConfig(epsilon=eps, marginal_tol=1e-13, max_iter=50000)
        state, *_ = sinkhorn(a, b, C, cfg)
        f_next = np.array([softmin(C[i] - state.g, b, eps) for i in range(6)])
        g_next = np.array([softmin(C[:, j] - state.f, a, eps) for j in range(5)])
        # The softmin against reference weights (a, b) reproduces each
        # potential from the other at the fixed point.
        assert np.max(np.abs(f_next - state.f)) <= 1e-8
        assert np.max(np.abs(g_next - state.g)) <= 1e-8


class TestKLProjections:
    def test_row_projection_sets_rows(self, rng):
        P = rng.uniform(0.1, 1.0, size=(4, 5))
        a = random_simplex(rng, 4)
        Q = kl_projection_row(P, a)
        assert_allclose(Q.plan.sum(axis=1), a, rtol=0, atol=1e-15)

    def test_projections_idempotent(self, rng):
        P = rng.uniform(0.1, 1.0, size=(4, 5))
        a = random_simplex(rng, 4)
        b = random_simplex(rng, 5)
        Q1 = kl_projection_row(P, a).plan
        Q2 = kl_projection_row(Q1, a).plan
        assert_allclose(Q1, Q2, rtol=0, atol=1e-15)
        R1 = kl_projection_col(P, b).plan
        R2 = kl_projection_col(R1, b).plan
        assert_allclose(R1, R2, rtol=0, atol=1e-15)

    def test_zero_row_with_positive_target_rejected(self):
        P = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValidationError):
            kl_projection_row(P, np.array([0.5, 0.5]))

    def test_alternating_projections_reproduce_sinkhorn(self, rng):
        a, b, C = make_instance(rng, 5, 6)
        eps = float(C.mean())
        cfg = SinkhornConfig(epsilon=eps, max_iter=6, marginal_tol=1e-16,
                             log_domain=False, record_history=True)
        state, *_ = sinkhorn(a, b, C, cfg)
        P = gibbs_kernel(C, eps) * np.outer(a, b)
        for k in range(6):
            P = kl_projection_row(P, a).plan
            P = kl_projection_col(P, b).plan
            f_k, g_k = state.history[2 * (k + 1)]
            P_iter = plan_from_potentials(a, b, C, f_k, g_k, eps)
            assert np.max(np.abs(P - P_iter)) <= 1e-12


class TestHilbert:
    def test_metric_is_projective(self, rng):
        u = rng.uniform(0.5, 2.0, size=6)
        assert hilbert_metric(3.0 * u, u) <= 1e-14
        v = rng.uniform(0.5, 2.0, size=6)
        assert hilbert_metric(u, v) == hilbert_metric(v, u)

    def test_requires_positive_vectors(self):
        with pytest.raises(ValidationError):
            hilbert_metric([1.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("u, v", [([1.0, np.nan], [1.0, 1.0]),
                                      ([1.0, 1.0], [np.nan, 1.0])])
    def test_nan_entries_rejected(self, u, v):
        with pytest.raises(ValidationError):
            hilbert_metric(u, v)

    @pytest.mark.parametrize("K", [[[1.0, 0.0], [1.0, 1.0]],
                                   [[1.0, np.nan], [1.0, 1.0]]])
    def test_eta_requires_a_positive_kernel(self, K):
        with pytest.raises(ValidationError):
            contraction_eta_lambda(K)

    def test_eta_exhaustive_matches_pairwise(self, rng):
        K = rng.uniform(0.2, 3.0, size=(3, 4))  # against a pairwise loop
        eta, lam = contraction_eta_lambda(K)
        L = np.log(K)
        pairwise = 0.0
        for i in range(3):
            for j in range(3):
                d = L[i] - L[j]
                pairwise = max(pairwise, float(d.max() - d.min()))
        assert_allclose(np.log(eta), pairwise, rtol=1e-12, atol=1e-12)
        assert 0.0 <= lam < 1.0

    def test_eta_pairwise_matches_quadruple_loop(self, rng):
        for shape in ((3, 4), (9, 9)):
            K = rng.uniform(0.2, 3.0, size=shape)
            eta, _ = contraction_eta_lambda(K)
            n, m = shape
            best = 0.0
            for i in range(n):
                for j in range(n):
                    for k in range(m):
                        for L_ in range(m):
                            best = max(best, K[i, k] * K[j, L_]
                                       / (K[j, k] * K[i, L_]))
            assert_allclose(eta, best, rtol=1e-10)

    def test_iterates_contract_at_rate_lambda_squared(self, rng):
        a, b, C = make_instance(rng, 6, 6)
        eps = 0.4 * float(C.mean())
        _, lam = contraction_eta_lambda(gibbs_kernel(C, eps))
        tight = SinkhornConfig(epsilon=eps, marginal_tol=1e-15, max_iter=100000)
        f_star = sinkhorn(a, b, C, tight).state.f
        cfg = SinkhornConfig(epsilon=eps, max_iter=40, marginal_tol=1e-16,
                             record_history=True)
        state, *_ = sinkhorn(a, b, C, cfg)
        full_iterates = [state.history[2 * k] for k in range(41)]
        dists = [float(np.ptp((f - f_star) / eps)) for f, _ in full_iterates]
        for d0, d1 in zip(dists[1:], dists[2:]):
            if d0 <= 1e-9:
                break
            assert d1 <= (lam**2 + 0.05) * d0

    def test_a_posteriori_bound_holds_each_iteration(self, rng):
        a, b, C = make_instance(rng, 6, 5)
        eps = 0.5 * float(C.mean())
        _, lam = contraction_eta_lambda(gibbs_kernel(C, eps))
        tight = SinkhornConfig(epsilon=eps, marginal_tol=1e-15, max_iter=100000)
        f_star = sinkhorn(a, b, C, tight).state.f
        cfg = SinkhornConfig(epsilon=eps, max_iter=30, marginal_tol=1e-16,
                             record_history=True)
        state, *_ = sinkhorn(a, b, C, cfg)
        if state.iteration < 30:
            # Stopping early needs a fixed point, not just a small residual.
            assert state.status == "optimal"
            f_end, g_end = state.history[-1]
            assert (f_update_gap(b, C, f_end, g_end, eps)
                    <= 1e-15 * max(1.0, float(np.abs(f_end).max())))
        iterates = full_iterates(state, 30)
        for k in range(1, 31):
            f_k, g_k = iterates[k]
            P_k = plan_from_potentials(a, b, C, f_k, g_k, eps)
            row = P_k.sum(axis=1)
            lhs = float(np.ptp((f_k - f_star) / eps))
            rhs = hilbert_metric(row, a) / (1.0 - lam)
            assert lhs <= rhs + 1e-12


class TestEpsilonLimits:
    def test_large_epsilon_yields_product_coupling(self, rng):
        a, b, C = make_instance(rng, 6, 7)
        eps = 1000.0 * float(np.abs(C).max())
        state, coupling, *_ = sinkhorn(a, b, C, SinkhornConfig(epsilon=eps))
        deviation = float(np.abs(coupling.plan - np.outer(a, b)).sum())
        assert deviation <= 3.0 * float(np.abs(C).max()) / eps

    def test_schedule_reaches_lp_cost(self, rng):
        a = rational_simplex(rng, 8)
        b = rational_simplex(rng, 7)
        C = build_cost_matrix(random_points(rng, 8, 2),
                              random_points(rng, 7, 2),
                              CostSpec.sq_euclidean())
        lp = solve_kantorovich(a, b, C)
        eps = 1e-3 * float(C.mean())
        schedule = tuple(float(C.mean()) * 0.5**k for k in range(10)) + (eps,)
        cfg = SinkhornConfig(epsilon=eps, epsilon_schedule=schedule,
                             max_iter=50000, marginal_tol=1e-9)
        res = sinkhorn(a, b, C, cfg)
        scale = max(abs(lp.cost), float(C.mean()))
        assert abs(res.cost_linear - lp.cost) <= 0.01 * scale

    def test_schedule_must_decrease_to_target(self):
        with pytest.raises(ValidationError):
            SinkhornConfig(epsilon=0.1, epsilon_schedule=(0.1, 0.2))
        with pytest.raises(ValidationError):
            SinkhornConfig(epsilon=0.1, epsilon_schedule=(1.0, 0.5))


class TestZeroWeights:
    def test_zero_atoms_dropped_and_reinserted(self, rng):
        a, b, C = make_instance(rng, 6, 5)
        a = a.copy()
        a[2] = 0.0
        a = a / a.sum()
        cfg = SinkhornConfig(epsilon=0.5 * float(C.mean()), marginal_tol=1e-12)
        state, coupling, cost_reg, _ = sinkhorn(a, b, C, cfg)
        assert_allclose(coupling.plan[2], 0.0, rtol=0, atol=0)
        assert np.all(np.isfinite(state.f))
        keep = np.arange(6) != 2
        sub = sinkhorn(a[keep] / a[keep].sum(), b, C[keep], cfg)
        assert_allclose(cost_reg, sub.cost_reg, rtol=1e-10, atol=1e-12)


class TestSinkhornDivergence:
    def test_identical_arguments_give_exact_zero(self, rng):
        a = random_simplex(rng, 6)
        x = random_points(rng, 6, 2)
        C = build_cost_matrix(x, x, CostSpec.sq_euclidean())
        cfg = SinkhornConfig(epsilon=0.5 * float(C.mean()))
        assert sinkhorn_divergence(a, a, C, C, C, cfg) == 0.0

    def test_nonnegative_for_squared_euclidean(self, rng):
        for _ in range(5):
            x = random_points(rng, 5, 2)
            y = random_points(rng, 6, 2)
            a = random_simplex(rng, 5)
            b = random_simplex(rng, 6)
            sq = CostSpec.sq_euclidean()
            C_ab = build_cost_matrix(x, y, sq)
            C_aa = build_cost_matrix(x, x, sq)
            C_bb = build_cost_matrix(y, y, sq)
            cfg = SinkhornConfig(epsilon=0.5 * float(C_ab.mean()),
                                 marginal_tol=1e-11)
            val = sinkhorn_divergence(a, b, C_ab, C_aa, C_bb, cfg)
            assert val >= -1e-9

    def test_symmetry_under_argument_swap(self, rng):
        x = random_points(rng, 4, 2)
        y = random_points(rng, 5, 2)
        a = random_simplex(rng, 4)
        b = random_simplex(rng, 5)
        sq = CostSpec.sq_euclidean()
        C_ab = build_cost_matrix(x, y, sq)
        C_aa = build_cost_matrix(x, x, sq)
        C_bb = build_cost_matrix(y, y, sq)
        cfg = SinkhornConfig(epsilon=0.5 * float(C_ab.mean()),
                             marginal_tol=1e-12, max_iter=50000)
        s_ab = sinkhorn_divergence(a, b, C_ab, C_aa, C_bb, cfg)
        s_ba = sinkhorn_divergence(b, a, C_ab.T, C_bb, C_aa, cfg)
        assert_allclose(s_ab, s_ba, rtol=1e-8, atol=1e-10)
