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

from otkit.divergences import EntropyFunction, KernelSpec, mmd_squared, phi_divergence
from otkit.dynamics import (
    CouplingPath,
    FunctionalSpec,
    GeneralizedEntropy,
    flow_match_velocity,
    gradient_flow,
    mlp_flow,
    transformer_flow,
)
from otkit.entropic import (
    SinkhornConfig,
    kl_projection_col,
    kl_projection_row,
    sinkhorn,
)
from otkit.errors import OTError, ValidationError
from otkit.exact import (
    solve_1d_sorted,
    solve_assignment,
    solve_kantorovich,
    wasserstein_p,
)
from otkit.measures import Coupling, DiscreteMeasure, product_coupling
from otkit.semidiscrete import Sampler, SemiDiscreteProblem
from otkit.w1 import SignedDiscreteMeasure, flat_norm, w1_kr_lp

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
], ids=["kl-row-target", "kl-col-target", "1d-p", "wasserstein-p",
        "wasserstein-p-vector", "power-q", "transformer-depth",
        "transformer-depth-vector", "mlp-n-neurons", "flowmatch-bandwidth"])
def test_non_numeric_setting_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()
