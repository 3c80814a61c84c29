"""Bures metric and Gaussian Monge maps against an independent sqrtm oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import sqrtm

from otkit.errors import ValidationError
from otkit.gaussian import (
    bures_distance,
    bures_squared,
    gaussian_monge_map,
    gaussian_w2,
    gaussian_w2_squared,
)

from conftest import random_spd


def bures_squared_oracle(Sa, Sb):
    """Trace formula evaluated with scipy's independent matrix root."""
    root = sqrtm(sqrtm(Sa) @ Sb @ sqrtm(Sa))
    return float(np.trace(Sa) + np.trace(Sb) - 2.0 * np.real(np.trace(root)))


class TestBures:
    def test_matches_scipy_sqrtm(self, rng):
        for d in (1, 2, 3, 5):
            for _ in range(5):
                Sa = random_spd(rng, d)
                Sb = random_spd(rng, d)
                assert_allclose(bures_squared(Sa, Sb),
                                bures_squared_oracle(Sa, Sb),
                                rtol=1e-9, atol=1e-9)

    def test_symmetric_in_arguments(self, rng):
        for _ in range(10):
            Sa = random_spd(rng, 3)
            Sb = random_spd(rng, 3)
            assert abs(bures_distance(Sa, Sb) - bures_distance(Sb, Sa)) <= 1e-9

    def test_identical_covariances_give_zero(self, rng):
        S = random_spd(rng, 4)
        assert bures_squared(S, S) <= 1e-10

    def test_scalar_case_is_std_difference(self):
        # In one dimension B = |s_a - s_b| for standard deviations s.
        assert_allclose(bures_squared([[9.0]], [[4.0]]), 1.0, rtol=0, atol=1e-12)
        assert_allclose(bures_distance([[9.0]], [[4.0]]), 1.0, rtol=0, atol=1e-12)

    def test_commuting_diagonal_hellinger_form(self):
        # For diagonal covariances B^2 = sum (sqrt(r_i) - sqrt(s_i))^2;
        # perfect squares keep the arithmetic exact.
        r = np.diag([1.0, 4.0, 9.0])
        s = np.diag([4.0, 16.0, 1.0])
        expected = (1 - 2) ** 2 + (2 - 4) ** 2 + (3 - 1) ** 2
        assert_allclose(bures_squared(r, s), expected, rtol=0, atol=1e-9)

    def test_means_must_match_the_covariances(self):
        with pytest.raises(ValidationError):
            gaussian_w2_squared([0.0, 0.0], np.eye(3), [1.0, 0.0], np.eye(3))
        with pytest.raises(ValidationError):
            gaussian_w2_squared(["x"], [[1.0]], [0.0], [[1.0]])

    def test_triangle_inequality(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            Sa, Sb, Sc = (random_spd(rng, d) for _ in range(3))
            ab = bures_distance(Sa, Sb)
            bc = bures_distance(Sb, Sc)
            ac = bures_distance(Sa, Sc)
            assert ac <= ab + bc + 1e-8

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError):
            bures_squared([[1.0, 0.5], [0.0, 1.0]], np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            bures_squared([[-1.0]], [[1.0]])


class TestGaussianW2:
    def test_one_dimensional_closed_form(self):
        # N(2, 9) vs N(5, 4): (2-5)^2 + (3-2)^2 = 10.
        assert_allclose(gaussian_w2_squared([2.0], [[9.0]], [5.0], [[4.0]]),
                        10.0, rtol=0, atol=1e-12)

    def test_equal_covariances_reduce_to_mean_shift(self, rng):
        S = random_spd(rng, 3)
        ma = rng.standard_normal(3)
        mb = rng.standard_normal(3)
        assert_allclose(gaussian_w2(ma, S, mb, S),
                        float(np.linalg.norm(ma - mb)), rtol=1e-10, atol=1e-10)

    def test_isotropic_scaling(self):
        # N(0, I_3) vs N(0, 4 I_3): B^2 = 3 * (1 + 4 - 4) = 3.
        assert_allclose(gaussian_w2_squared(np.zeros(3), np.eye(3),
                                            np.zeros(3), 4.0 * np.eye(3)),
                        3.0, rtol=0, atol=1e-12)

    def test_means_must_match_the_covariances(self):
        with pytest.raises(ValidationError):
            gaussian_w2_squared([0.0, 0.0], np.eye(3), [1.0, 0.0], np.eye(3))
        with pytest.raises(ValidationError):
            gaussian_w2_squared(["x"], [[1.0]], [0.0], [[1.0]])

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            means = [rng.standard_normal(d) for _ in range(3)]
            covs = [random_spd(rng, d) for _ in range(3)]
            ab = gaussian_w2(means[0], covs[0], means[1], covs[1])
            bc = gaussian_w2(means[1], covs[1], means[2], covs[2])
            ac = gaussian_w2(means[0], covs[0], means[2], covs[2])
            assert ac <= ab + bc + 1e-8


class TestMongeMap:
    def test_matrix_is_spd_and_conjugates_covariances(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            Sa = random_spd(rng, d)
            Sb = random_spd(rng, d)
            T = gaussian_monge_map(np.zeros(d), Sa, np.zeros(d), Sb)
            A = T.matrix
            assert_allclose(A, A.T, rtol=0, atol=1e-10)
            assert np.linalg.eigvalsh(A)[0] > 0
            assert_allclose(A @ Sa @ A, Sb, rtol=0, atol=1e-8)

    def test_map_cost_matches_w2(self, rng):
        # E|X - T(X)|^2 under X ~ N(ma, Sa) has the closed form
        # |ma-mb|^2 + tr(Sa) + tr(Sb) - 2 tr(A Sa), equal to W2^2.
        d = 3
        ma, mb = rng.standard_normal(d), rng.standard_normal(d)
        Sa, Sb = random_spd(rng, d), random_spd(rng, d)
        T = gaussian_monge_map(ma, Sa, mb, Sb)
        cost = (float(np.dot(ma - mb, ma - mb))
                + float(np.trace(Sa) + np.trace(Sb))
                - 2.0 * float(np.trace(T.matrix @ Sa)))
        assert_allclose(cost, gaussian_w2_squared(ma, Sa, mb, Sb),
                        rtol=1e-9, atol=1e-9)

    def test_pushforward_moments_monte_carlo(self, rng):
        d = 2
        ma = np.array([1.0, -2.0])
        mb = np.array([0.5, 3.0])
        Sa = random_spd(rng, d)
        Sb = random_spd(rng, d)
        T = gaussian_monge_map(ma, Sa, mb, Sb)
        X = rng.multivariate_normal(ma, Sa, size=200_000)
        Y = T(X)
        mean_err = np.linalg.norm(Y.mean(axis=0) - mb) / np.linalg.norm(mb)
        cov_err = (np.linalg.norm(np.cov(Y.T) - Sb, "fro")
                   / np.linalg.norm(Sb, "fro"))
        assert mean_err <= 0.05
        assert cov_err <= 0.05

    def test_identity_when_distributions_match(self, rng):
        S = random_spd(rng, 3)
        m = rng.standard_normal(3)
        T = gaussian_monge_map(m, S, m, S)
        assert_allclose(T.matrix, np.eye(3), rtol=0, atol=1e-9)
        x = rng.standard_normal((5, 3))
        assert_allclose(T(x), x, rtol=0, atol=1e-8)

    def test_singular_source_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_monge_map([0.0, 0.0], np.diag([1.0, 0.0]),
                               [0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize("mean_a, mean_b", [
        ([np.nan, 0.0], [0.0, 0.0]),
        ([0.0, 0.0], [0.0, np.inf]),
        (["x", 0.0], [0.0, 0.0]),
        ([0.0, 0.0], [0.0, 0.0, 0.0]),
    ], ids=["nan-source", "inf-target", "string", "length"])
    def test_bad_means_rejected(self, mean_a, mean_b):
        with pytest.raises(ValidationError):
            gaussian_monge_map(mean_a, np.eye(2), mean_b, np.eye(2))
