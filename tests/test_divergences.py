"""Entropy divergences, their Legendre duals, and kernel norms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otkit.divergences import (
    EntropyFunction,
    KernelSpec,
    from_name,
    kernel_matrix,
    mmd_squared,
    phi_divergence,
    phi_divergence_measures,
    phi_dual_gap,
    phi_dual_value,
)
from otkit.errors import ValidationError
from otkit.measures import DiscreteMeasure

from conftest import random_points, random_simplex
from oracles import mmd_squared_quadruple

PRESETS = [EntropyFunction.kl(), EntropyFunction.tv(), EntropyFunction.chi2()]


def legendre_grid_oracle(entropy, t, s_max=60.0, buckets=400000):
    """Brute-force sup_{s >= 0} s t - phi(s) on a dense grid."""
    s = np.linspace(0.0, s_max, buckets)
    vals = np.array([si * t - entropy.phi(si) for si in s])
    return float(vals.max())


class TestEntropyPresets:
    def test_phi_vanishes_at_one(self):
        for entropy in PRESETS:
            assert entropy.phi(1.0) == 0.0

    def test_phi_at_zero(self):
        assert EntropyFunction.kl().phi(0.0) == 1.0
        assert EntropyFunction.tv().phi(0.0) == 1.0
        assert EntropyFunction.chi2().phi(0.0) == 1.0

    def test_phi_midpoint_convexity(self, rng):
        for entropy in PRESETS:
            for _ in range(50):
                s, t = rng.uniform(0.0, 8.0, size=2)
                mid = entropy.phi(0.5 * (s + t))
                assert mid <= 0.5 * (entropy.phi(s) + entropy.phi(t)) + 1e-12

    def test_legendre_matches_grid_search(self):
        # The dense grid undershoots the true supremum slightly, so the
        # closed forms must dominate it and stay within the grid spacing.
        for entropy in PRESETS:
            for t in (-3.0, -1.5, -0.5, 0.0, 0.4, 0.9):
                closed = entropy.legendre_nonneg(t)
                grid = legendre_grid_oracle(entropy, t)
                assert grid <= closed + 1e-9
                assert closed - grid <= 1e-3

    def test_kl_legendre_closed_form(self):
        kl = EntropyFunction.kl()
        for t in (-2.0, 0.0, 1.3):
            assert_allclose(kl.legendre_nonneg(t), np.exp(t) - 1.0,
                            rtol=1e-15, atol=1e-15)

    def test_tv_legendre_piecewise(self):
        tv = EntropyFunction.tv()
        assert tv.legendre_nonneg(-5.0) == -1.0
        assert tv.legendre_nonneg(0.3) == 0.3
        assert tv.legendre_nonneg(1.0) == 1.0
        assert tv.legendre_nonneg(1.0 + 1e-9) == np.inf

    def test_preset_lookup(self):
        assert from_name("kl").name == "kl"
        with pytest.raises(ValidationError):
            from_name("hellinger")


class TestPhiDivergence:
    def test_kl_identical_is_zero(self):
        assert phi_divergence([0.5, 0.5], [0.5, 0.5],
                              EntropyFunction.kl()) == 0.0

    def test_tv_disjoint_diracs(self):
        val = phi_divergence([1.0, 0.0], [0.0, 1.0], EntropyFunction.tv())
        assert val == 2.0

    def test_kl_charging_zero_is_infinite(self):
        val = phi_divergence([0.5, 0.5], [1.0, 0.0], EntropyFunction.kl())
        assert val == np.inf

    def test_absent_mass_costs_nothing(self):
        # The 0 * phi'_inf = 0 convention keeps KL finite when both
        # vectors vanish on the same index.
        val = phi_divergence([0.5, 0.5, 0.0], [0.25, 0.75, 0.0],
                             EntropyFunction.kl())
        assert np.isfinite(val)

    def test_tv_equals_l1_norm(self, rng):
        tv = EntropyFunction.tv()
        for _ in range(20):
            a = random_simplex(rng, 6)
            b = random_simplex(rng, 6)
            assert_allclose(phi_divergence(a, b, tv),
                            np.abs(a - b).sum(), rtol=1e-13, atol=1e-15)

    def test_chi2_pearson_formula(self, rng):
        chi2 = EntropyFunction.chi2()
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 5)
        expected = float(((a - b) ** 2 / b).sum())
        assert_allclose(phi_divergence(a, b, chi2), expected, rtol=1e-13)

    def test_jensen_nonnegativity(self, rng):
        for entropy in PRESETS:
            for _ in range(20):
                a = random_simplex(rng, 7)
                b = random_simplex(rng, 7)
                assert phi_divergence(a, b, entropy) >= 0.0

    def test_strictly_convex_zero_iff_equal(self, rng):
        kl = EntropyFunction.kl()
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 5)
        assert phi_divergence(a, b, kl) > 0.0
        assert phi_divergence(a, a, kl) == 0.0

    def test_joint_one_homogeneity(self, rng):
        for entropy in PRESETS:
            a = random_simplex(rng, 6)
            b = random_simplex(rng, 6)
            v = phi_divergence(a, b, entropy)
            assert_allclose(phi_divergence(3.0 * a, 3.0 * b, entropy),
                            3.0 * v, rtol=1e-12)

    def test_convex_along_mixtures(self, rng):
        for entropy in PRESETS:
            for _ in range(10):
                a, a2 = random_simplex(rng, 6), random_simplex(rng, 6)
                b, b2 = random_simplex(rng, 6), random_simplex(rng, 6)
                mixed = phi_divergence(0.5 * (a + a2), 0.5 * (b + b2), entropy)
                avg = 0.5 * (phi_divergence(a, b, entropy)
                             + phi_divergence(a2, b2, entropy))
                assert mixed <= avg + 1e-12

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            phi_divergence([-0.1, 1.1], [0.5, 0.5], EntropyFunction.kl())

    def test_measure_level_alignment(self, rng):
        # Disjoint supports put all beta mass where alpha has none.
        alpha = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        beta = DiscreteMeasure(np.array([[2.0], [3.0]]), [0.5, 0.5])
        assert phi_divergence_measures(alpha, beta,
                                       EntropyFunction.tv()) == 2.0
        assert phi_divergence_measures(alpha, beta,
                                       EntropyFunction.kl()) == np.inf

    def test_kl_reference_shift_identity(self, rng):
        # KL(P | a (x) b) = KL(P | a' (x) b') - KL(a | a') - KL(b | b')
        # whenever P has marginals (a, b).
        kl = EntropyFunction.kl()
        P = rng.uniform(0.1, 1.0, size=(4, 5))
        for _ in range(200):
            P *= (1.0 / P.sum(axis=1))[:, None] / 4.0
            P *= (1.0 / P.sum(axis=0))[None, :] / 5.0 * (5.0 / 4.0) * 0.8
        P = P / P.sum()
        a = P.sum(axis=1)
        b = P.sum(axis=0)
        a2 = random_simplex(rng, 4)
        b2 = random_simplex(rng, 5)
        lhs = phi_divergence(P.ravel(), np.outer(a, b).ravel(), kl)
        rhs = (phi_divergence(P.ravel(), np.outer(a2, b2).ravel(), kl)
               - phi_divergence(a, a2, kl) - phi_divergence(b, b2, kl))
        assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestPhiDual:
    def test_weak_duality_random_witnesses(self, rng):
        for entropy in PRESETS:
            for _ in range(25):
                a = random_simplex(rng, 6)
                b = random_simplex(rng, 6)
                f = rng.normal(size=6)
                if entropy.name == "tv":
                    f = np.clip(f, -1.0, 1.0)
                assert phi_dual_gap(a, b, f, entropy) >= -1e-10

    def test_kl_plug_in_witness_closes_gap(self, rng):
        kl = EntropyFunction.kl()
        for _ in range(10):
            a = random_simplex(rng, 6)
            b = random_simplex(rng, 6)
            f = np.log(a / b)
            assert abs(phi_dual_gap(a, b, f, kl)) <= 1e-10

    def test_chi2_plug_in_witness_closes_gap(self, rng):
        chi2 = EntropyFunction.chi2()
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 5)
        f = 2.0 * (a / b - 1.0)
        assert abs(phi_dual_gap(a, b, f, chi2)) <= 1e-10

    def test_tv_sign_witness_attains_l1(self, rng):
        tv = EntropyFunction.tv()
        a = random_simplex(rng, 6)
        b = random_simplex(rng, 6)
        f = np.sign(a - b)
        dual = float(f @ a) - phi_dual_value(f, b, tv)
        assert_allclose(dual, np.abs(a - b).sum(), rtol=1e-13, atol=1e-15)

    def test_zero_witness_gives_zero_kl_bound(self, rng):
        kl = EntropyFunction.kl()
        b = random_simplex(rng, 4)
        assert phi_dual_value(np.zeros(4), b, kl) == 0.0

    def test_infeasible_tv_witness_gives_infinite_transform(self, rng):
        tv = EntropyFunction.tv()
        b = random_simplex(rng, 3)
        assert phi_dual_value(np.array([0.0, 2.0, 0.0]), b, tv) == np.inf


class TestMMD:
    def test_identical_measures_zero(self, rng):
        x = random_points(rng, 5, 2)
        a = random_simplex(rng, 5)
        alpha = DiscreteMeasure(x, a)
        val = mmd_squared(alpha, alpha, KernelSpec.gaussian(1.0))
        assert abs(val) <= 1e-14

    def test_energy_kernel_two_diracs(self):
        alpha = DiscreteMeasure(np.array([[0.0]]), [1.0])
        beta = DiscreteMeasure(np.array([[1.5]]), [1.0])
        val = mmd_squared(alpha, beta, KernelSpec.energy(1.0))
        assert_allclose(val, 2.0 * 1.5, rtol=1e-14)

    def test_gaussian_matches_quadruple_loop(self, rng):
        x = random_points(rng, 5, 2)
        y = random_points(rng, 5, 2)
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 5)
        kern = KernelSpec.gaussian(0.7)

        def k(u, v):
            return float(np.exp(-np.sum((u - v) ** 2) / (2 * 0.7**2)))

        expected = mmd_squared_quadruple(x, a, y, b, k)
        got = mmd_squared(DiscreteMeasure(x, a), DiscreteMeasure(y, b), kern)
        assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_positive_definite_kernel_nonnegative(self, rng):
        for _ in range(10):
            alpha = DiscreteMeasure(random_points(rng, 4, 3),
                                    random_simplex(rng, 4))
            beta = DiscreteMeasure(random_points(rng, 6, 3),
                                   random_simplex(rng, 6))
            val = mmd_squared(alpha, beta, KernelSpec.gaussian(0.5))
            assert val >= -1e-10

    def test_energy_nonnegative_for_equal_mass(self, rng):
        for _ in range(10):
            alpha = DiscreteMeasure(random_points(rng, 4, 2),
                                    random_simplex(rng, 4))
            beta = DiscreteMeasure(random_points(rng, 5, 2),
                                   random_simplex(rng, 5))
            val = mmd_squared(alpha, beta, KernelSpec.energy(1.5))
            assert val >= -1e-10

    def test_gaussian_metrizes_dirac_convergence_tv_does_not(self):
        # Moving a Dirac toward the target shrinks the kernel norm but
        # leaves the total variation distance pinned at 2.
        target = DiscreteMeasure(np.array([[0.0]]), [1.0])
        kern = KernelSpec.gaussian(1.0)
        prev = np.inf
        for xn in (1.0, 0.5, 0.25, 0.125, 0.0625):
            moving = DiscreteMeasure(np.array([[xn]]), [1.0])
            cur = mmd_squared(target, moving, kern)
            assert cur < prev
            prev = cur
            tv = phi_divergence_measures(target, moving, EntropyFunction.tv())
            assert tv == 2.0
        assert prev <= 0.01

    def test_custom_matrix_reproduces_gaussian(self, rng):
        x = random_points(rng, 3, 2)
        y = random_points(rng, 4, 2)
        a = random_simplex(rng, 3)
        b = random_simplex(rng, 4)
        kern = KernelSpec.gaussian(0.9)
        z = np.vstack([x, y])
        custom = KernelSpec.custom_matrix(kernel_matrix(z, z, kern))
        alpha, beta = DiscreteMeasure(x, a), DiscreteMeasure(y, b)
        assert_allclose(mmd_squared(alpha, beta, custom),
                        mmd_squared(alpha, beta, kern), rtol=1e-14)

    def test_invalid_kernel_parameters_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(ValidationError):
            KernelSpec.energy(2.0)
        with pytest.raises(ValidationError):
            KernelSpec.energy(0.0)
        with pytest.raises(ValidationError):
            KernelSpec.custom_matrix(np.ones((2, 3)))
