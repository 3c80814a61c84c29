"""Degenerate inputs to the public entry points raise OTError or nothing.

Every argument below is drawn either as a valid value or as one of the
degenerate kinds the shared input checks in ``otkit.measures`` exist for:
NaN, +-inf, empty, negative, non-normalised, 2-D weights, mismatched
shapes, ragged nesting and strings.  A call may return or raise an
``OTError``; any other exception means an input got past the checks and
failed deep inside numpy or a solver.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from otkit import measures
from otkit.divergences import (
    EntropyFunction,
    KernelSpec,
    kernel_matrix,
    mmd_squared,
    phi_divergence,
    phi_dual_gap,
    phi_dual_value,
)
from otkit.duality import (
    DualPotentials,
    c_bar_transform,
    c_transform,
    semi_dual_energy,
)
from otkit.dynamics import (
    CouplingPath,
    Density1DPath,
    FunctionalSpec,
    GeneralizedEntropy,
    ParticleTrajectory,
    flow_match_velocity,
    gradient_flow,
    mlp_flow,
    transformer_flow,
)
from otkit.entropic import (
    SinkhornConfig,
    contraction_eta_lambda,
    gibbs_kernel,
    hilbert_metric,
    kl_projection_col,
    kl_projection_row,
    sinkhorn,
    softmin,
)
from otkit.errors import OTError, ValidationError
from otkit.exact import (
    is_extremal_coupling,
    solve_1d_sorted,
    solve_assignment,
    solve_kantorovich,
    validate_metric,
    wasserstein_p,
)
from otkit.gaussian import gaussian_monge_map, gaussian_w2_squared
from otkit.measures import (
    CostSpec,
    Coupling,
    DiscreteMeasure,
    GridDensity1D,
    as_float_array,
    as_integer,
    as_number,
    check_covariance,
    product_coupling,
)
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
from otkit.w1 import FlowGraph, SignedDiscreteMeasure, flat_norm, w1_kr_lp

SWEEP = settings(max_examples=150, deadline=None, derandomize=True)

BAD = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, "x"])
ENTRY = st.one_of(st.floats(-3.0, 3.0), BAD)


def _simplex(n):
    return [1.0 / n] * n


def vectors():
    """Weight-like input: a simplex vector or one degenerate kind."""
    good = st.integers(1, 4).map(_simplex)
    return st.one_of(
        good,
        st.lists(ENTRY, max_size=4),       # NaN, inf, negative, strings, empty
        good.map(lambda w: [w]),           # 2-D weights
        st.just([[0.5], [0.25, 0.25]]),    # ragged
        st.just("abc"),
    )


def point_sets():
    """Point-cloud input: a finite (n, d) list or one degenerate kind."""
    good = st.integers(1, 2).flatmap(lambda d: st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
        min_size=1, max_size=4))
    return st.one_of(
        good,
        st.lists(st.lists(ENTRY, max_size=2), max_size=4),  # ragged, empty
        st.lists(ENTRY, max_size=4),                        # 1-D
        good.map(lambda p: [p]),                            # 3-D
        st.just("abc"),
    )


def matrices():
    """Cost-matrix input: any (n, m) shape up to 4 or a degenerate kind."""
    good = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda nm: st.lists(
            st.lists(st.floats(0.0, 5.0), min_size=nm[1], max_size=nm[1]),
            min_size=nm[0], max_size=nm[0]))
    return st.one_of(
        good,
        st.lists(st.lists(ENTRY, max_size=4), max_size=4),
        st.lists(ENTRY, max_size=4),
        st.just("abc"),
    )


def returns_or_raises_ot_error(call, *args):
    try:
        call(*args)
    except OTError:
        pass


@SWEEP
@given(point_sets(), vectors())
def test_discrete_measure(points, weights):
    returns_or_raises_ot_error(DiscreteMeasure, points, weights)


@SWEEP
@given(matrices(), vectors(), vectors())
def test_coupling(plan, a, b):
    returns_or_raises_ot_error(Coupling, plan, a, b)


@SWEEP
@given(vectors(), vectors(), matrices())
def test_solve_kantorovich(a, b, C):
    returns_or_raises_ot_error(solve_kantorovich, a, b, C)


@SWEEP
@given(matrices())
def test_solve_assignment(C):
    returns_or_raises_ot_error(solve_assignment, C)


@SWEEP
@given(point_sets(), vectors(), point_sets(), vectors())
def test_solve_1d_sorted(x, a, y, b):
    returns_or_raises_ot_error(
        lambda: solve_1d_sorted(DiscreteMeasure(x, a), DiscreteMeasure(y, b), 2.0))


@SWEEP
@given(vectors(), vectors(), matrices())
def test_sinkhorn(a, b, C):
    config = SinkhornConfig(epsilon=1.0, max_iter=50)
    returns_or_raises_ot_error(sinkhorn, a, b, C, config)


@SWEEP
@given(vectors(), vectors())
def test_phi_divergence(a, b):
    returns_or_raises_ot_error(phi_divergence, a, b, EntropyFunction.kl())


@SWEEP
@given(point_sets(), vectors(), point_sets(), vectors())
def test_mmd_squared(x, a, y, b):
    returns_or_raises_ot_error(lambda: mmd_squared(
        DiscreteMeasure(x, a), DiscreteMeasure(y, b), KernelSpec.gaussian(1.0)))


@SWEEP
@given(point_sets(), vectors())
def test_semidiscrete_problem(targets, weights):
    sampler = Sampler.uniform_box([0.0, 0.0], [1.0, 1.0])
    returns_or_raises_ot_error(SemiDiscreteProblem, sampler, targets, weights)


COVARIANCES = st.sampled_from([
    [[[1.0]]], [[[1.0]], [[0.5]]], [np.eye(2).tolist()] * 2, [np.eye(3).tolist()],
    [[[np.nan]]], [[[np.inf]]], [[[-1.0]]], [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    [[1.0]], [], "abc",
])


def _draw_without_warnings(make_sampler):
    # numpy only warns when asked to sample from a covariance that is not
    # positive semidefinite; such input must be refused before that.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_sampler().draw(np.random.default_rng(0), 5)


@SWEEP
@given(vectors(), point_sets(), COVARIANCES)
def test_gaussian_mixture(weights, means, covs):
    returns_or_raises_ot_error(_draw_without_warnings, lambda: (
        Sampler.gaussian_mixture(weights, means, covs)))


@SWEEP
@given(vectors(), st.sampled_from([
    [[1.0]], [[2.0, 0.5], [0.5, 1.0]], [[-1.0]], [[1.0, 0.5], [0.0, 1.0]],
    [[1.0, 2.0], [2.0, 1.0]], [[np.nan]], [[1.0, 0.0], [0.0, np.inf]],
    [[1.0, 0.0]], 0.5, [], "abc",
]))
def test_gaussian_sampler(mean, cov):
    returns_or_raises_ot_error(_draw_without_warnings,
                               lambda: Sampler.gaussian(mean, cov))


MASSES = st.one_of(vectors(), st.just([0.5, -0.5]), st.just([1.0, -0.25, -0.75]))


def _signed_and_distances(points, masses, dist):
    m = SignedDiscreteMeasure(points, masses)
    return m, cdist(m.points, m.points) if dist is None else dist


@SWEEP
@given(point_sets(), MASSES, st.one_of(st.none(), matrices()))
def test_w1_kr_lp(points, masses, dist):
    returns_or_raises_ot_error(
        lambda: w1_kr_lp(*_signed_and_distances(points, masses, dist)))


@SWEEP
@given(point_sets(), MASSES, st.one_of(st.none(), matrices()))
def test_flat_norm(points, masses, dist):
    returns_or_raises_ot_error(
        lambda: flat_norm(*_signed_and_distances(points, masses, dist)))


@SWEEP
@given(point_sets(), point_sets(), vectors(), vectors())
def test_coupling_path(x, y, a, b):
    returns_or_raises_ot_error(lambda: CouplingPath(x, y, product_coupling(a, b)))
    returns_or_raises_ot_error(CouplingPath.monge, x, y, a)


def _quadratic(x):
    return 0.5 * np.sum(x * x, axis=-1)


@SWEEP
@given(point_sets(), st.sampled_from([0.1, "0.1", 0.0, -0.1, 0.3, np.nan, np.inf,
                                      "x", None]))
def test_gradient_flow(x0, dt):
    spec = FunctionalSpec.linear(_quadratic, lambda x: x, dim=2)
    returns_or_raises_ot_error(gradient_flow, spec, x0, dt, 0.2)


_EYE = [[1.0, 0.0], [0.0, 1.0]]
_PATH = CouplingPath.monge([[0.0], [1.0]], [[1.0], [3.0]], [0.5, 0.5])
_PROBLEM = SemiDiscreteProblem(Sampler.uniform_box([0.0], [1.0]),
                               [[0.25], [0.5], [0.75]], [0.25, 0.5, 0.25])
_KL = EntropyFunction.kl()
_LLOYD = LloydConfig(n_iter=1, seed=0, n_samples=10)
_G = [0.0, 0.0, 0.0]


def _draw_unit(rng, n):
    return rng.random((n, 1))


def _draw_box(low, high):
    return Sampler.uniform_box(low, high).draw(np.random.default_rng(0), 3)


# Entry points whose array arguments come from vectors() (u, v) and
# matrices() (M); each call takes the arguments it needs.
VECTOR_CALLS = {
    "c_transform": lambda u, v, M: c_transform(u, M),
    "c_bar_transform": lambda u, v, M: c_bar_transform(u, M),
    "dual_potentials": lambda u, v, M: DualPotentials(u, v),
    "semi_dual_energy": lambda u, v, M: semi_dual_energy(u, u, v, M),
    "uniform_box": lambda u, v, M: _draw_box(u, v),
    "laguerre": lambda u, v, M: LaguerreAssignment(_PROBLEM, u).membership(
        [[0.1], [0.9]]),
    "gaussian_w2": lambda u, v, M: gaussian_w2_squared(u, _EYE, v, _EYE),
    "gaussian_map": lambda u, v, M: gaussian_monge_map(u, _EYE, v, _EYE)(u),
    "mlp_risk": lambda u, v, M: FunctionalSpec.mlp_risk(M, u),
    "flow_match": lambda u, v, M: flow_match_velocity(_PATH, 0.5, u, 0.5),
    "trajectory": lambda u, v, M: ParticleTrajectory(
        u, np.zeros((len(v), 1, 1)), [1.0]),
    "density_path": lambda u, v, M: Density1DPath(u, v, M),
    "grid_density": lambda u, v, M: GridDensity1D(u, v).normalized(),
    "hilbert_metric": lambda u, v, M: hilbert_metric(u, v),
    "softmin": lambda u, v, M: softmin(u, v, 0.5),
    "gibbs_kernel": lambda u, v, M: gibbs_kernel(M, 0.5),
    # Negative costs at small epsilon overflow exp(-C / epsilon).
    "gibbs_kernel_small_epsilon": lambda u, v, M: gibbs_kernel(M, 1e-3),
    "contraction": lambda u, v, M: contraction_eta_lambda(M),
    "phi_dual_value": lambda u, v, M: phi_dual_value(u, v, _KL),
    "phi_dual_gap": lambda u, v, M: phi_dual_gap(u, v, u, _KL),
    "flow_graph": lambda u, v, M: FlowGraph(
        3, [(0, 1, 1.0), (1, 2, 1.0)], u),
    "extremal": lambda u, v, M: is_extremal_coupling(M),
}


@pytest.mark.parametrize("name", sorted(VECTOR_CALLS))
@SWEEP
@given(vectors(), vectors(), matrices())
def test_vector_and_matrix_arguments(name, u, v, M):
    returns_or_raises_ot_error(VECTOR_CALLS[name], u, v, M)


@pytest.mark.parametrize("call", [
    lambda: c_transform([np.nan, 1.0], [[1.0, 2.0]]),
    lambda: Sampler.uniform_box([np.nan], [1.0]),
    lambda: phi_dual_value([0.0], [np.nan], _KL),
    lambda: softmin([1.0], [1.0], 0.0),
    lambda: is_extremal_coupling([[np.nan]]),
    lambda: SGDConfig(n_iter=10, seed=0, tau0=np.nan),
    lambda: SinkhornConfig(epsilon=1.0, max_iter=2.5),
], ids=["c-transform-nan-potential", "uniform-box-nan-bound",
        "phi-dual-nan-weight", "softmin-zero-epsilon", "extremal-nan-plan",
        "sgd-nan-tau0", "sinkhorn-fractional-max-iter"])
def test_silently_accepted_input_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: kl_projection_row(np.ones((2, 2)), [0.5, "x"]),
    lambda: kl_projection_col(np.ones((2, 2)), [0.5, "x"]),
    lambda: solve_1d_sorted(DiscreteMeasure([0.0], [1.0]),
                            DiscreteMeasure([1.0], [1.0]), "x"),
    lambda: wasserstein_p([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]],
                          "x"),
    lambda: wasserstein_p([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]],
                          [1.0, 2.0]),
    lambda: GeneralizedEntropy.power("x"),
    lambda: transformer_flow([[0.0, 1.0]], _EYE, _EYE, _EYE, "x"),
    lambda: transformer_flow([[0.0, 1.0]], _EYE, _EYE, _EYE, [1, 2]),
    lambda: mlp_flow([[0.5], [1.0]], [0.0, 1.0], "x", 0.1, 0.2),
    lambda: flow_match_velocity(CouplingPath.monge([[0.0]], [[1.0]], [1.0]),
                                0.0, [0.0], "x"),
    lambda: SinkhornConfig(epsilon="x"),
    lambda: SinkhornConfig(epsilon=1.0, max_iter="x"),
    lambda: SinkhornConfig(epsilon=1.0, epsilon_schedule=["x", 1.0]),
    lambda: SGDConfig(n_iter="x", seed=0),
    lambda: LloydConfig(n_iter="x", seed=0),
    lambda: CostSpec.p_power("x"),
    lambda: KernelSpec.gaussian("x"),
    lambda: KernelSpec.energy("x"),
    lambda: gradient_flow(FunctionalSpec.linear(_quadratic, lambda x: x, dim=2),
                          [[0.0, 1.0]], 0.1, 0.2, scheme="implicit",
                          max_inner="x"),
    lambda: lloyd_quantize(_PROBLEM.sampler, "x", _LLOYD),
    lambda: semi_discrete_gradient_mc(_PROBLEM, _G, "x", 0),
    lambda: semi_discrete_energy_mc(_PROBLEM, _G, "x", 0),
    lambda: FunctionalSpec.linear(_quadratic, lambda x: x, dim="x"),
    lambda: Sampler("box", "x", _draw_unit),
    lambda: _PROBLEM.sampler.draw(np.random.default_rng(0), "x"),
], ids=["kl-row-target", "kl-col-target", "1d-p", "wasserstein-p",
        "wasserstein-p-vector", "power-q", "transformer-depth",
        "transformer-depth-vector", "mlp-n-neurons", "flowmatch-bandwidth",
        "sinkhorn-epsilon", "sinkhorn-max-iter", "sinkhorn-schedule",
        "sgd-n-iter", "lloyd-n-iter", "p-power", "gaussian-sigma",
        "energy-p", "max-inner", "lloyd-m", "gradient-mc-n-samples",
        "energy-mc-n-samples", "functional-dim", "sampler-dim",
        "sampler-draw-n"])
def test_non_numeric_setting_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: lloyd_quantize(_PROBLEM.sampler, 2.5, _LLOYD),
    lambda: semi_discrete_gradient_mc(_PROBLEM, _G, 2.5, 0),
    lambda: semi_discrete_energy_mc(_PROBLEM, _G, 2.5, 0),
    lambda: FunctionalSpec.linear(_quadratic, lambda x: x, dim=2.5),
    lambda: Sampler("box", 2.5, _draw_unit),
    lambda: _PROBLEM.sampler.draw(np.random.default_rng(0), 2.5),
    lambda: Density1DPath([0.0, 1.0], [0.0, 1.0],
                          [[1.0, 1.0], [1.0, 1.0]]).density_at(0.5),
    lambda: FlowGraph(3, [(0.5, 1, 1.0), (1, 2, 1.0)], [0.5, 0.0, -0.5]),
], ids=["lloyd-m", "gradient-mc-n-samples", "energy-mc-n-samples",
        "functional-dim", "sampler-dim", "sampler-draw-n", "density-at",
        "flow-graph-endpoint"])
def test_fractional_size_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="whole number"):
        call()


@pytest.mark.parametrize("call", [
    lambda: _PROBLEM.sampler.draw(np.random.default_rng(0), -1),
    lambda: Density1DPath([0.0, 1.0], [0.0, 1.0],
                          [[1.0, 1.0], [1.0, 1.0]]).density_at(5),
    lambda: Density1DPath([0.0, 1.0], [0.0, 1.0],
                          [[1.0, 1.0], [1.0, 1.0]]).density_at(-3),
    lambda: SGDConfig(n_iter=10, seed=-1),
    lambda: LloydConfig(n_iter=1, seed=-1),
    lambda: semi_discrete_gradient_mc(_PROBLEM, _G, 10, -1),
    lambda: semi_discrete_energy_mc(_PROBLEM, _G, 10, -1),
    lambda: mlp_flow([[0.5], [1.0]], [0.0, 1.0], 2, 0.1, 0.2, seed=-1),
], ids=["sampler-draw-negative-n", "density-at-past-end",
        "density-at-before-start", "sgd-seed", "lloyd-seed",
        "gradient-mc-seed", "energy-mc-seed", "mlp-seed"])
def test_out_of_range_size_or_seed_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: transformer_flow([[0.0, 1.0]], _EYE, _EYE, _EYE, 10 ** 20),
    lambda: transformer_flow([[0.0, 1.0]], _EYE, _EYE, _EYE, 1e20),
    lambda: mlp_flow([[0.5], [1.0]], [0.0, 1.0], 10 ** 20, 0.1, 0.2),
    lambda: semi_discrete_gradient_mc(_PROBLEM, _G, 10 ** 20, 0),
    lambda: semi_discrete_energy_mc(_PROBLEM, _G, 10 ** 20, 0),
    lambda: _PROBLEM.sampler.draw(np.random.default_rng(0), 10 ** 20),
    lambda: sgd_solve(_PROBLEM, SGDConfig(n_iter=1, seed=0,
                                          heldout_samples=10 ** 20)),
    lambda: lloyd_quantize(_PROBLEM.sampler, 2,
                           LloydConfig(n_iter=1, seed=0, n_samples=10 ** 20)),
], ids=["transformer-depth", "transformer-depth-float", "mlp-n-neurons",
        "gradient-mc-n-samples", "energy-mc-n-samples", "sampler-draw-n",
        "sgd-heldout-samples", "lloyd-n-samples"])
def test_size_past_the_ceiling_is_a_validation_error(call):
    """Numpy would refuse these sizes with a plain ValueError, so the
    ValidationError shows the guard ran before any allocation."""
    with pytest.raises(ValidationError, match="array elements, more than"):
        call()


@pytest.mark.parametrize("call", [
    lambda n: transformer_flow([[0.0, 1.0]], _EYE, _EYE, _EYE, n // 2 - 1),
    # One step: the trajectory holds two slices of n // 2 - 3 2-D neurons.
    lambda n: mlp_flow([[0.5], [1.0]], [0.0, 1.0], n // 2 - 3, 0.1, 0.1),
    # One target, so the n x 1 cost matrix holds no more than the samples.
    lambda n: semi_discrete_gradient_mc(SemiDiscreteProblem(
        _PROBLEM.sampler, [[0.5]], [1.0]), [0.0], n, 0),
    lambda n: _PROBLEM.sampler.draw(np.random.default_rng(0), n),
    lambda n: measures.build_cost_matrix([0.0], np.zeros(n),
                                         CostSpec.euclidean()),
    lambda n: kernel_matrix([0.0], np.zeros(n), KernelSpec.gaussian(1.0)),
], ids=["transformer-depth", "mlp-n-neurons", "gradient-mc-n-samples",
        "sampler-draw-n", "cost-matrix", "kernel-matrix"])
def test_the_ceiling_counts_every_element(monkeypatch, call):
    """With the ceiling lowered to 12 elements, the setting that asks for
    exactly 12 (a trajectory of 2-D tokens or neurons, a 1-D sample, or a
    1 x n matrix) runs and the next one up is refused."""
    monkeypatch.setattr(measures, "MAX_ELEMENTS", 12)
    call(12)
    with pytest.raises(ValidationError, match="more than the 12 allowed"):
        call(14)


@pytest.mark.parametrize("call, message", [
    (lambda: as_number(np.float64(-1.0), "epsilon", low=0, open=True),
     "epsilon must be > 0, got -1.0"),
    (lambda: as_number(0.0, "epsilon", low=0, open=True),
     "epsilon must be > 0, got 0.0"),
    (lambda: as_integer(np.int64(0), "depth", low=1),
     "depth must be >= 1, got 0"),
    (lambda: as_number(2, "p", 0, 2, open=True),
     "p must lie in (0, 2), got 2.0"),
    (lambda: as_number("1.5", "interpolation time", 0, 1),
     "interpolation time must lie in [0, 1], got 1.5"),
    (lambda: as_integer(5, "index", -2, 1), "index must lie in [-2, 1], got 5"),
    (lambda: SinkhornConfig(epsilon=np.float64("nan")),
     "epsilon must be one finite number, got nan"),
    (lambda: as_number(np.float64("-inf"), "dt"),
     "dt must be one finite number, got -inf"),
    (lambda: as_number(np.float32("inf"), "bandwidth"),
     "bandwidth must be one finite number, got inf"),
    (lambda: as_number(np.float32(-1.5), "dt", low=0, open=True),
     "dt must be > 0, got -1.5"),
    (lambda: as_number(np.array([np.nan, 1.0]), "epsilon"),
     "epsilon must be one finite number, got shape (2,)"),
    (lambda: check_covariance([[-1.0]]), "negative eigenvalue -1.0"),
    (lambda: Coupling([[-0.5, 0.5]], [0.0], [0.0, 0.0]),
     "negative entry -0.5"),
    (lambda: validate_metric([[0.0, -1.0], [-1.0, 0.0]]), ": D=-1.0"),
    (lambda: validate_metric([[0.0, 1.0], [1.0, 2.0]]), ": D=2.0"),
    (lambda: validate_metric([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0],
                              [5.0, 1.0, 0.0]]), "D[i,k]-D[k,j]=3.0"),
    (lambda: FlowGraph(3, [(0, 1)], [0.0, 0.0, 0.0]),
     "edges must be [u, v, length] triples"),
    (lambda: FlowGraph(3, 5, [0.0, 0.0, 0.0]),
     "edges must be [u, v, length] triples"),
], ids=["open-low", "open-low-at-bound", "integer-low", "open-interval",
        "closed-interval", "index", "float64-nan", "float64-inf",
        "float32-inf", "float32-low", "array", "covariance", "coupling",
        "metric-nonnegativity", "metric-zero-diagonal", "metric-triangle",
        "flow-graph-edge-pair", "flow-graph-edges-not-a-list"])
def test_error_text_prints_plain_numbers(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert message in str(info.value)
    assert "np." not in str(info.value)


@pytest.mark.parametrize("value", [
    True, np.False_, [1.0, True], [[0.0, 1.0], [1.0, False]], (1, True),
    np.array([True, False]), np.array([1.0, True], dtype=object),
    [np.array([1.0]), np.array([True])],
], ids=["bool", "numpy-bool", "mixed-list", "nested", "tuple", "bool-array",
        "object-array", "list-of-arrays"])
def test_a_boolean_is_not_a_number(value):
    """numpy reads True as 1.0 and upcasts a mixed list to floats without a
    word, so the shared layer refuses a boolean anywhere in a number."""
    with pytest.raises(ValidationError, match="weights must be numeric, "
                                              "got a boolean"):
        as_float_array(value, "weights")
    if np.ndim(value) == 0:
        with pytest.raises(ValidationError, match="got a boolean"):
            as_integer(value, "seed")


@pytest.mark.parametrize("value, expected", [
    ([0.0, 1.0], [0.0, 1.0]), ([[1, 0]], [[1.0, 0.0]]), ("0.5", 0.5),
    (["1", "0"], [1.0, 0.0]), (np.array([0, 1]), [0.0, 1.0]),
    (np.array([1.0, None], dtype=object), [1.0, np.nan]),
])
def test_numbers_read_as_zero_and_one_are_kept(value, expected):
    np.testing.assert_array_equal(as_float_array(value, "x"), expected)


def test_bounds_are_inclusive_unless_open():
    assert as_number(0, "x", low=0) == 0.0
    assert as_number(2, "x", 0, 2) == 2.0
    assert as_integer(-2, "x", -2, 1) == -2
    # Integer-typed input is read exactly, with no float in between.
    assert as_integer(2**64 + 1, "seed", low=0) == 2**64 + 1
    assert type(as_integer(np.uint64(2**63 + 1), "seed")) is int
    assert as_integer(np.uint64(2**63 + 1), "seed") == 2**63 + 1
