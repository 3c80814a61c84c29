"""Particle flows, 1-D diffusion, flow matching, attention, MLP training."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from otkit import dynamics
from otkit.cli import _interaction_preset, _linear_preset
from otkit.dynamics import (
    CouplingPath,
    Density1DPath,
    FunctionalSpec,
    GeneralizedEntropy,
    ParticleTrajectory,
    attention_velocity,
    dacorogna_moser_1d,
    entropy_flow_1d,
    flow_match_trajectory,
    flow_match_velocity,
    gradient_flow,
    integrate_flow_match,
    mlp_flow,
    transformer_flow,
)
from otkit.errors import (
    CFLViolationError,
    ConvergenceError,
    NoSupportError,
    ValidationError,
    VanishingDensityError,
)
from otkit.exact import solve_kantorovich
from otkit.measures import Coupling, GridDensity1D

from oracles import rk4_integrate

import dynamics_reference


def quad_linear():
    return FunctionalSpec.linear(
        lambda x: 0.5 * np.sum(x * x, axis=-1),
        lambda x: x,
        dim=2,
    )


def quad_interaction(dim=2):
    return FunctionalSpec.interaction(
        lambda x, y: 0.5 * np.sum((x - y) ** 2, axis=-1),
        lambda x, y: x - y,
        dim=dim,
    )


class TestParticleTrajectory:
    def test_fields(self):
        times = np.array([0.0, 0.5, 1.0])
        states = np.zeros((3, 4, 2))
        traj = ParticleTrajectory(times, states, np.full(4, 0.25))
        assert traj.n_times == 3
        assert traj.n_particles == 4
        assert traj.dim == 2
        assert traj.final_state.shape == (4, 2)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValidationError):
            ParticleTrajectory([0.0, 0.0], np.zeros((2, 1, 1)), [1.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            ParticleTrajectory([0.0, 1.0], np.zeros((2, 2, 1)), [0.9, 0.3])
        with pytest.raises(ValidationError):
            ParticleTrajectory([0.0, 1.0], np.zeros((2, 2, 1)), [1.2, -0.2])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ParticleTrajectory([0.0, 1.0], np.zeros((3, 2, 1)), [0.5, 0.5])


class TestFunctionalSpecValidation:
    def test_wrong_linear_gradient_rejected(self):
        with pytest.raises(ValidationError, match="finite differences"):
            FunctionalSpec.linear(
                lambda x: 0.5 * np.sum(x * x, axis=-1),
                lambda x: 2.0 * x,
                dim=2,
            )

    def test_wrong_interaction_gradient_rejected(self):
        with pytest.raises(ValidationError, match="finite differences"):
            FunctionalSpec.interaction(
                lambda x, y: np.sum((x - y) ** 2, axis=-1),
                lambda x, y: x - y,
                dim=2,
            )

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            FunctionalSpec.interaction(
                lambda x, y: np.sum(x * x, axis=-1) + 2.0 * np.sum(y * y, axis=-1),
                lambda x, y: 2.0 * x,
                dim=2,
            )

    def test_unknown_kind_and_activation(self):
        with pytest.raises(ValidationError):
            FunctionalSpec("frobnicate", 2)
        with pytest.raises(ValidationError):
            FunctionalSpec.mlp_risk([[1.0]], [1.0], activation="step")

    def test_mlp_shape_checks(self):
        with pytest.raises(ValidationError):
            FunctionalSpec.mlp_risk([[1.0, 2.0]], [1.0, 2.0])

    @pytest.mark.parametrize("make, expected", [
        # One value for the whole batch of probes.
        (lambda: FunctionalSpec.linear(lambda x: 0.5 * float(np.sum(x * x)),
                                       lambda x: x, dim=2), r"\(3,\)"),
        # A per-point callback: x @ x fails on a (3, 2) batch.
        (lambda: FunctionalSpec.linear(lambda x: float(x @ x),
                                       lambda x: 2.0 * x, dim=2), r"\(3,\)"),
        (lambda: FunctionalSpec.linear(lambda x: 0.5 * np.sum(x * x, axis=-1),
                                       lambda x: x[..., 0], dim=2),
         r"\(3, 2\)"),
        (lambda: FunctionalSpec.interaction(
            lambda x, y: float(np.sum((x - y) ** 2)), lambda x, y: 2 * (x - y),
            dim=2), r"\(3,\)"),
        (lambda: FunctionalSpec.interaction(
            lambda x, y: np.sum((x - y) ** 2, axis=-1),
            lambda x, y: np.sum(2 * (x - y), axis=-1), dim=2), r"\(3, 2\)"),
    ], ids=["h-scalar", "h-per-point", "grad_h", "k-scalar", "grad_k"])
    def test_wrong_callback_shape_rejected(self, make, expected):
        with pytest.raises(ValidationError, match=expected):
            make()

    def test_particle_dim_enforced(self):
        f = quad_linear()
        with pytest.raises(ValidationError):
            f.velocity(np.zeros((3, 5)))


class TestLinearFlow:
    def test_quadratic_potential_decay(self):
        # v_i = -(1/n) x_i, so every coordinate decays like exp(-t/n).
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((4, 2))
        traj = gradient_flow(quad_linear(), x0, dt=1e-3, T=1.0)
        n = 4
        for k in (250, 500, 1000):
            t = traj.times[k]
            assert_allclose(traj.states[k], np.exp(-t / n) * x0, rtol=1e-3)

    def test_constant_potential_is_frozen(self):
        f = FunctionalSpec.linear(
            lambda x: np.full(x.shape[:-1], 3.0),
            lambda x: np.zeros_like(x),
            dim=2,
        )
        x0 = np.random.default_rng(0).standard_normal((3, 2))
        traj = gradient_flow(f, x0, dt=0.1, T=1.0)
        assert_array_equal(traj.states, np.broadcast_to(x0, traj.states.shape))

    def test_horizon_must_divide(self):
        with pytest.raises(ValidationError):
            gradient_flow(quad_linear(), np.zeros((2, 2)), dt=0.3, T=1.0)
        with pytest.raises(ValidationError):
            gradient_flow(quad_linear(), np.zeros((2, 2)), dt=0.1, T=1.0,
                          scheme="leapfrog")


class TestInteractionFlow:
    def test_quadratic_kernel_contracts_deviations(self):
        # x_i - mean obeys d/dt dev = -2 dev once the 1/n-normalized
        # velocity -(2/n) sum_j (x_i - x_j) is written in terms of the mean.
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((5, 2))
        traj = gradient_flow(quad_interaction(), x0, dt=1e-3, T=1.0)
        dev0 = x0 - x0.mean(axis=0)
        for k in (200, 1000):
            t = traj.times[k]
            dev = traj.states[k] - traj.states[k].mean(axis=0)
            assert_allclose(dev, np.exp(-2.0 * t) * dev0, rtol=1e-2)

    def test_mean_is_conserved(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((6, 3))
        traj = gradient_flow(quad_interaction(dim=3), x0, dt=1e-2, T=1.0)
        drift = np.abs(traj.states.mean(axis=1) - x0.mean(axis=0))
        assert float(drift.max()) <= 1e-9

    def test_mean_conserved_for_gaussian_kernel(self):
        f = FunctionalSpec.interaction(
            lambda x, y: np.exp(-np.sum((x - y) ** 2, axis=-1)),
            lambda x, y: (-2.0 * (x - y)
                          * np.exp(-np.sum((x - y) ** 2, axis=-1))[..., None]),
            dim=2,
        )
        x0 = np.random.default_rng(3).standard_normal((5, 2))
        traj = gradient_flow(f, x0, dt=1e-2, T=1.0)
        drift = np.abs(traj.states.mean(axis=1) - x0.mean(axis=0))
        assert float(drift.max()) <= 1e-9


class TestImplicitScheme:
    def test_matches_explicit_as_dt_shrinks(self):
        # Both schemes are first order with opposite leading terms, so
        # their gap at a fixed time shrinks at least linearly in dt.
        f = quad_linear()
        x0 = np.random.default_rng(5).standard_normal((3, 2))

        def gap(dt):
            expl = gradient_flow(f, x0, dt=dt, T=1.0, scheme="explicit")
            impl = gradient_flow(f, x0, dt=dt, T=1.0, scheme="implicit")
            return float(np.max(np.abs(expl.final_state - impl.final_state)))

        g1, g2 = gap(0.05), gap(0.025)
        assert math.log2(g1 / g2) >= 0.9

    def test_implicit_approaches_closed_form(self):
        f = quad_linear()
        x0 = np.array([[1.0, -2.0], [0.5, 0.25], [-1.5, 0.75]])
        traj = gradient_flow(f, x0, dt=1e-3, T=0.5, scheme="implicit")
        assert_allclose(traj.final_state, np.exp(-0.5 / 3) * x0, rtol=1e-3)

    def test_inner_solve_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            gradient_flow(quad_linear(), np.ones((2, 2)), dt=0.5, T=0.5,
                          scheme="implicit", max_inner=1)


class TestEnergyDissipation:
    def halvings_until_monotone(self, f, x0, dt0, T, budget=3):
        dt = dt0
        for attempt in range(budget + 1):
            traj = gradient_flow(f, x0, dt=dt, T=T)
            values = np.array([f.value(s) for s in traj.states])
            if np.all(np.diff(values) <= 1e-12):
                return attempt
            dt *= 0.5
            T = T  # horizon fixed; only the step shrinks
        raise AssertionError("energy still not monotone after halvings")

    def test_linear_interaction_and_mlp_dissipate(self):
        rng = np.random.default_rng(19)
        well = FunctionalSpec.linear(
            lambda x: -np.exp(-np.sum(x * x, axis=-1)),
            lambda x: 2.0 * x * np.exp(-np.sum(x * x, axis=-1))[..., None],
            dim=2,
        )
        assert self.halvings_until_monotone(well, rng.standard_normal((4, 2)),
                                            0.4, 1.6) <= 3
        assert self.halvings_until_monotone(quad_interaction(),
                                            rng.standard_normal((4, 2)),
                                            0.4, 1.6) <= 3
        mlp = FunctionalSpec.mlp_risk(rng.standard_normal((6, 2)),
                                      rng.standard_normal(6),
                                      activation="tanh")
        theta0 = rng.standard_normal((5, 3)) * 0.5
        assert self.halvings_until_monotone(mlp, theta0, 0.8, 3.2) <= 3


def gaussian_density(grid, mean, var):
    return np.exp(-0.5 * (grid - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


class TestEntropyFlow1D:
    def test_shannon_flow_is_heat_flow(self):
        grid = np.linspace(-3.0, 3.0, 301)
        rho0 = GridDensity1D(grid, gaussian_density(grid, 0.0, 0.09))
        path = entropy_flow_1d(rho0, GeneralizedEntropy.shannon(),
                               dt=1.25e-4, T=0.1)
        # Heat flow adds 2t to the variance of a Gaussian.
        exact = gaussian_density(grid, 0.0, 0.09 + 2 * 0.1)
        h = grid[1] - grid[0]
        widths = np.full(grid.shape, h)
        widths[0] = widths[-1] = 0.5 * h
        l1 = float(np.sum(np.abs(path.densities[-1] - exact) * widths))
        assert l1 <= 0.02
        var = float(np.sum(path.densities[-1] * grid**2 * widths))
        assert_allclose(var, 0.29, rtol=1e-2)

    def test_porous_medium_conserves_mass(self):
        grid = np.linspace(-2.0, 2.0, 201)
        rho0 = GridDensity1D(grid, np.maximum(0.0, 1.0 - grid**2))
        path = entropy_flow_1d(rho0, GeneralizedEntropy.power(2),
                               dt=5e-5, T=0.01)
        h = grid[1] - grid[0]
        widths = np.full(grid.shape, h)
        widths[0] = widths[-1] = 0.5 * h
        masses = path.densities @ widths
        assert float(np.max(np.abs(masses - masses[0]))) <= 1e-12 * masses[0]
        assert float(path.densities.min()) >= -1e-15
        last = path.density_at(path.n_times - 1)
        assert isinstance(last, GridDensity1D)
        # Negative indices count from the end, as for a Python sequence.
        assert_array_equal(path.density_at(-1).density, last.density)

    def test_uniform_density_is_stationary(self):
        grid = np.linspace(0.0, 1.0, 41)
        rho0 = GridDensity1D(grid, np.full(41, 0.5))
        path = entropy_flow_1d(rho0, GeneralizedEntropy.shannon(),
                               dt=1e-4, T=0.01)
        assert_array_equal(path.densities,
                           np.broadcast_to(rho0.density, path.densities.shape))

    def test_cfl_violation_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        rho0 = GridDensity1D(grid, np.ones(11))
        with pytest.raises(CFLViolationError):
            entropy_flow_1d(rho0, GeneralizedEntropy.shannon(), dt=0.01, T=0.01)

    def test_porous_cfl_uses_current_density(self):
        # gtilde'(s) = 2s, so the admissible step shrinks with the peak.
        grid = np.linspace(-1.0, 1.0, 21)
        rho0 = GridDensity1D(grid, 4.0 * np.maximum(0.0, 1.0 - grid**2))
        h = 0.1
        with pytest.raises(CFLViolationError):
            entropy_flow_1d(rho0, GeneralizedEntropy.power(2),
                            dt=2.0 * h * h / 16.0, T=2.0 * h * h / 16.0)

    def test_nonuniform_grid_rejected(self):
        grid = np.array([0.0, 0.1, 0.3, 0.6])
        rho0 = GridDensity1D(grid, np.ones(4))
        with pytest.raises(ValidationError, match="uniform"):
            entropy_flow_1d(rho0, GeneralizedEntropy.shannon(), dt=1e-4, T=1e-3)

    def test_power_entropy_requires_q_above_one(self):
        with pytest.raises(ValidationError):
            GeneralizedEntropy.power(1.0)


def two_cloud_path(seed=0, n=2, m=3, d=2):
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((n, d))
    tgt = rng.standard_normal((m, d)) + 2.0
    a = rng.random(n) + 0.2
    a /= a.sum()
    b = rng.random(m) + 0.2
    b /= b.sum()
    coupling = Coupling(np.outer(a, b), a, b)
    return CouplingPath(src, tgt, coupling), a, b


class TestCouplingPath:
    def test_paired_velocity_constant_in_time(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([[0.5], [2.0], [2.5], [5.0], [6.0]])
        path = CouplingPath.monge(x, y, np.full(5, 0.2))
        for t in (0.0, 0.3, 0.7, 1.0):
            pos, _ = path.atoms_at(t)
            for i in range(5):
                v = flow_match_velocity(path, t, pos[i], bandwidth=1e-9)
                assert_allclose(v, y[i] - x[i], atol=1e-12)

    def test_two_atom_average_at_origin(self):
        coupling = Coupling(np.array([[0.5, 0.5]]), [1.0], [0.5, 0.5])
        path = CouplingPath([[0.0]], [[-1.0], [1.0]], coupling)
        v = flow_match_velocity(path, 0.0, np.array([0.0]), bandwidth=1e-9)
        assert_allclose(v, [0.0], atol=1e-15)

    def test_product_coupling_atom_count(self):
        path, _, _ = two_cloud_path(seed=1, n=3, m=4)
        pos, vel = path.atoms_at(0.5)
        assert pos.shape == (12, 2) and vel.shape == (12, 2)
        # Generic clouds keep the n*m midpoints distinct.
        pairwise = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        assert float(np.min(pairwise[np.triu_indices(12, 1)])) > 1e-6

    def test_endpoints_reproduce_marginals(self):
        path, a, b = two_cloud_path(seed=2)
        for t, points, marginal in ((0.0, path.source_points, a),
                                    (1.0, path.target_points, b)):
            pos, _ = path.atoms_at(t)
            for point, mass in zip(points, marginal):
                here = np.all(pos == point, axis=1)
                assert_allclose(float(path.pair_weights[here].sum()), mass,
                                atol=1e-15)

    def test_no_support_error(self):
        path, _, _ = two_cloud_path(seed=3)
        with pytest.raises(NoSupportError):
            flow_match_velocity(path, 0.5, np.full(2, 50.0), bandwidth=0.1)

    def test_time_domain_enforced(self):
        path, _, _ = two_cloud_path(seed=4)
        with pytest.raises(ValidationError):
            path.atoms_at(1.5)
        for t in ("x", float("nan")):
            with pytest.raises(ValidationError, match="interpolation time"):
                path.atoms_at(t)
        with pytest.raises(ValidationError):
            flow_match_velocity(path, -0.1, np.zeros(2), bandwidth=1.0)

    def test_custom_interpolation_must_project(self):
        coupling = Coupling(np.array([[1.0]]), [1.0], [1.0])
        with pytest.raises(ValidationError, match="P_0"):
            CouplingPath([[0.0]], [[2.0]], coupling,
                         interpolation=lambda t, x, y: x + t,
                         d_dt=lambda t, x, y: np.ones_like(x))
        with pytest.raises(ValidationError):
            CouplingPath([[0.0]], [[1.0]], coupling,
                         interpolation=lambda t, x, y: (1 - t) * x + t * y)

    def test_quadratic_interpolation_accepted(self):
        coupling = Coupling(np.array([[1.0]]), [1.0], [1.0])
        path = CouplingPath(
            [[0.0]], [[1.0]], coupling,
            interpolation=lambda t, x, y: (1 - t**2) * x + t**2 * y,
            d_dt=lambda t, x, y: 2 * t * (y - x),
        )
        v = flow_match_velocity(path, 0.5, np.array([0.25]), bandwidth=1e-9)
        assert_allclose(v, [1.0], atol=1e-12)


class TestIntegrateFlowMatch:
    def test_identity_coupling_is_static(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        path = CouplingPath.monge(x, x, np.full(4, 0.25))
        out = integrate_flow_match(path, x, dt=0.1)
        assert_array_equal(out, x)

    def test_sorted_pairing_reaches_targets(self):
        x = np.sort(np.random.default_rng(1).random(5))[:, None]
        y = np.sort(np.random.default_rng(2).random(5))[:, None] + 1.5
        path = CouplingPath.monge(x, y, np.full(5, 0.2))
        out = integrate_flow_match(path, x, dt=1e-2)
        assert_allclose(out, y, atol=1e-6)

    def test_single_point_shape(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = x + np.array([1.0, -1.0])
        path = CouplingPath.monge(x, y, [0.5, 0.5])
        out = integrate_flow_match(path, x[0], dt=0.25)
        assert out.shape == (2,)
        assert_allclose(out, y[0], atol=1e-9)

    def test_trajectory_ends_at_the_integrated_endpoint(self):
        x = np.sort(np.random.default_rng(3).random(4))[:, None]
        path = CouplingPath.monge(x, x + 1.0, np.full(4, 0.25))
        traj = flow_match_trajectory(path, x, dt=0.25)
        assert_array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert_array_equal(traj.states[0], x)
        assert_array_equal(traj.final_state,
                           integrate_flow_match(path, x, dt=0.25))

    def test_displacement_energy_matches_lp(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.random(5))[:, None]
        y = np.sort(rng.random(5) + 2.0)[:, None]
        w = np.full(5, 0.2)
        path = CouplingPath.monge(x, y, w)
        _, vel = path.atoms_at(0.0)
        energy = float(np.sum(path.pair_weights * np.sum(vel**2, axis=1)))
        C = (x - y.T) ** 2
        lp = solve_kantorovich(w, w, C)
        assert_allclose(energy, lp.cost, atol=1e-8)

    def test_weak_continuity_on_atom_trajectories(self):
        # d/dt int(phi d alpha_t) must equal int(<v_t, grad phi> d alpha_t)
        # for quadratic test functions; coincident atoms share an averaged
        # velocity, which leaves the grouped sums unchanged.
        path, _, _ = two_cloud_path(seed=5)
        rng = np.random.default_rng(6)
        A = rng.standard_normal((2, 2))
        A = 0.5 * (A + A.T)
        lin = rng.standard_normal(2)

        def phi(z):
            return float(z @ A @ z + lin @ z)

        def grad_phi(z):
            return (A + A.T) @ z + lin

        def integral(t):
            pos, _ = path.atoms_at(t)
            return float(sum(w * phi(p) for w, p in zip(path.pair_weights, pos)))

        delta = 1e-6
        for t in (0.25, 0.5, 0.75):
            lhs = (integral(t + delta) - integral(t - delta)) / (2 * delta)
            pos, _ = path.atoms_at(t)
            rhs = 0.0
            for w, p in zip(path.pair_weights, pos):
                v = flow_match_velocity(path, t, p, bandwidth=1e-9)
                rhs += w * float(v @ grad_phi(p))
            assert_allclose(lhs, rhs, atol=1e-6)

    def test_branching_needs_matching_bandwidth(self):
        # From the shared source atom the averaged velocity leaves both
        # branch trajectories, so a tight bandwidth must fail mid-flight.
        coupling = Coupling(np.array([[0.5, 0.5]]), [1.0], [0.5, 0.5])
        path = CouplingPath([[0.0]], [[-1.0], [1.0]], coupling)
        with pytest.raises(NoSupportError):
            integrate_flow_match(path, np.array([0.0]), dt=0.1)


class TestDacorognaMoser:
    def translating_path(self, c=0.5, n_times=5, span=0.2):
        # The cumulative mass starts at the left grid edge, so the grid
        # must extend far enough that the edge density is negligible
        # against the core threshold used below.
        grid = np.linspace(-7.0, 7.0, 701)
        times = np.linspace(0.0, span, n_times)
        dens = np.array([gaussian_density(grid, c * t, 1.44) for t in times])
        return Density1DPath(times, grid, dens), grid, times

    def test_translating_bump_velocity(self):
        path, grid, times = self.translating_path()
        v = dacorogna_moser_1d(path, times[2])
        rho = path.densities[2]
        core = rho >= 1e-3 * rho.max()
        assert_allclose(v[core], 0.5, rtol=0.05)

    def test_translating_bump_continuity_residual(self):
        path, grid, times = self.translating_path()
        idx = 2
        v = dacorogna_moser_1d(path, times[idx])
        drho_dt = (path.densities[idx + 1] - path.densities[idx - 1]) / (
            times[idx + 1] - times[idx - 1])
        div = np.gradient(path.densities[idx] * v, grid)
        h = grid[1] - grid[0]
        dt_path = times[1] - times[0]
        tol = (h + dt_path) * float(np.max(np.abs(drho_dt)))
        assert float(np.max(np.abs(drho_dt + div))) <= tol

    def test_static_path_has_zero_velocity(self):
        grid = np.linspace(-1.0, 1.0, 51)
        rho = gaussian_density(grid, 0.0, 0.5)
        path = Density1DPath([0.0, 1.0], grid, np.stack([rho, rho]))
        v = dacorogna_moser_1d(path, 0.0)
        assert float(np.max(np.abs(v))) <= 1e-14

    def test_heat_flow_velocity_is_score(self):
        grid = np.linspace(-4.0, 4.0, 161)
        rho0 = GridDensity1D(grid, gaussian_density(grid, 0.0, 0.5))
        flow = entropy_flow_1d(rho0, GeneralizedEntropy.shannon(),
                               dt=1e-3, T=0.05)
        t = 0.025
        v = dacorogna_moser_1d(flow, t)
        idx = int(np.argmin(np.abs(flow.times - t)))
        rho = flow.densities[idx]
        score = -np.gradient(rho, grid) / rho
        mask = np.abs(grid) <= 1.5
        assert_allclose(v[mask], score[mask], rtol=0.05, atol=0.01)

    def test_vanishing_density_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        rho = np.ones(11)
        rho[5] = 0.0
        path = Density1DPath([0.0, 0.1], grid, np.stack([rho, rho]))
        with pytest.raises(VanishingDensityError):
            dacorogna_moser_1d(path, 0.0)

    def test_unknown_time_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        rho = np.ones(11)
        path = Density1DPath([0.0, 0.1], grid, np.stack([rho, rho]))
        with pytest.raises(ValidationError):
            dacorogna_moser_1d(path, 0.05)

    @pytest.mark.parametrize("t", [float("nan"), "x"])
    def test_time_must_be_a_finite_number(self, t):
        # NaN compares false against the stored-time tolerance, so it
        # would pick the first snapshot.
        grid = np.linspace(0.0, 1.0, 11)
        rho = np.ones(11)
        path = Density1DPath([0.0, 0.1], grid, np.stack([rho, rho]))
        with pytest.raises(ValidationError, match="^t "):
            dacorogna_moser_1d(path, t)


class TestAttention:
    def test_zero_scores_move_to_value_mean(self):
        rng = np.random.default_rng(21)
        tokens = rng.standard_normal((6, 3))
        Q = np.zeros((3, 2))
        K = np.zeros((3, 2))
        vel = attention_velocity(tokens, Q, K, np.eye(3), tokens)
        assert_allclose(vel, np.broadcast_to(tokens.mean(axis=0), (6, 3)),
                        atol=1e-14)
        traj = transformer_flow(tokens, Q, K, np.eye(3), depth=4)
        expected = tokens + traj.states[0].mean(axis=0) / 4
        assert_allclose(traj.states[1], expected, atol=1e-14)

    def test_zero_values_freeze_tokens(self):
        rng = np.random.default_rng(22)
        tokens = rng.standard_normal((5, 2))
        Q = rng.standard_normal((2, 2))
        K = rng.standard_normal((2, 2))
        traj = transformer_flow(tokens, Q, K, np.zeros((2, 2)), depth=3)
        assert_array_equal(traj.states,
                           np.broadcast_to(tokens, traj.states.shape))

    def test_single_token_matrix_exponential(self):
        rng = np.random.default_rng(23)
        V = 0.5 * rng.standard_normal((2, 2))
        x0 = np.array([[0.7, -0.3]])
        traj = transformer_flow(x0, np.zeros((2, 1)), np.zeros((2, 1)), V,
                                depth=1000)
        exact = x0 @ expm(V)
        err = np.linalg.norm(traj.final_state - exact) / np.linalg.norm(exact)
        assert err <= 1e-3

    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(24)
        tokens = rng.standard_normal((6, 3))
        Q = 0.4 * rng.standard_normal((3, 2))
        K = 0.4 * rng.standard_normal((3, 2))
        V = 0.4 * rng.standard_normal((3, 3))
        perm = rng.permutation(6)
        base = transformer_flow(tokens, Q, K, V, depth=4)
        permuted = transformer_flow(tokens[perm], Q, K, V, depth=4)
        assert_array_equal(permuted.states, base.states[:, perm, :])

    def numerical_jacobian(self, tokens, Q, K, V, x, delta=1e-6):
        d = x.shape[0]
        J = np.empty((d, d))
        for b in range(d):
            e = np.zeros(d)
            e[b] = delta
            hi = attention_velocity(tokens, Q, K, V, (x + e)[None, :])[0]
            lo = attention_velocity(tokens, Q, K, V, (x - e)[None, :])[0]
            J[:, b] = (hi - lo) / (2 * delta)
        return J

    def test_gradient_field_jacobian_symmetry(self):
        # With V = K Q^T the attention field is a gradient, so its
        # Jacobian in the query must be symmetric.
        rng = np.random.default_rng(25)
        tokens = rng.standard_normal((5, 3))
        Q = 0.5 * rng.standard_normal((3, 2))
        K = 0.5 * rng.standard_normal((3, 2))
        V = K @ Q.T
        for x in rng.standard_normal((3, 3)):
            J = self.numerical_jacobian(tokens, Q, K, V, x)
            assert float(np.max(np.abs(J - J.T))) <= 1e-6

    def test_generic_values_break_symmetry(self):
        rng = np.random.default_rng(26)
        tokens = rng.standard_normal((5, 3))
        Q = 0.5 * rng.standard_normal((3, 2))
        K = 0.5 * rng.standard_normal((3, 2))
        V = rng.standard_normal((3, 3))
        J = self.numerical_jacobian(tokens, Q, K, V, rng.standard_normal(3))
        assert float(np.max(np.abs(J - J.T))) > 1e-4

    def test_shape_validation(self):
        tokens = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            attention_velocity(tokens, np.zeros((2, 1)), np.zeros((2, 2)),
                               np.eye(2), tokens)
        with pytest.raises(ValidationError):
            attention_velocity(tokens, np.zeros((2, 1)), np.zeros((2, 1)),
                               np.eye(3), tokens)
        with pytest.raises(ValidationError):
            transformer_flow(tokens, np.zeros((2, 1)), np.zeros((2, 1)),
                             np.eye(2), depth=0)

    def test_large_scores_do_not_overflow(self):
        tokens = np.array([[0.0, 0.0], [1000.0, 0.0]])
        Q = np.eye(2)
        K = np.eye(2)
        vel = attention_velocity(tokens, Q, K, np.eye(2), tokens)
        assert np.all(np.isfinite(vel))
        # The second token attends almost purely to itself.
        assert_allclose(vel[1], tokens[1], rtol=1e-12)


def mlp_psi_and_grad(theta, u, activation):
    w, a = theta[:-1], theta[-1]
    z = float(w @ u)
    if activation == "identity":
        s, sp = z, 1.0
    else:
        s = math.tanh(z)
        sp = 1.0 - s * s
    psi = a * s
    return psi, np.concatenate([a * sp * u, [s]])


class TestMLPFlow:
    def test_initial_risk_with_zero_output_weights(self):
        rng = np.random.default_rng(31)
        U = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        _, risk = mlp_flow(U, y, n_neurons=4, dt=0.1, T=0.1, seed=0)
        assert risk[0] == 0.5 * float(np.mean(y * y))

    def test_zero_targets_monotone_decay(self):
        rng = np.random.default_rng(32)
        U = rng.standard_normal((6, 2))
        traj, risk = mlp_flow(U, np.zeros(6), n_neurons=3, dt=0.05, T=2.0,
                              seed=1)
        assert np.all(np.diff(risk) <= 1e-15)
        assert risk[-1] >= 0.0

    def test_monotone_with_few_halvings(self):
        rng = np.random.default_rng(33)
        U = rng.standard_normal((10, 3))
        y = np.sin(U[:, 0])
        dt = 0.4
        for halvings in range(4):
            _, risk = mlp_flow(U, y, n_neurons=6, dt=dt, T=3.2,
                               activation="tanh", seed=2)
            if np.all(np.diff(risk) <= 1e-12):
                break
            dt *= 0.5
        else:
            raise AssertionError("risk not monotone within 3 halvings")
        assert halvings <= 3

    def test_single_neuron_against_rk4_reference(self):
        u, y = 1.5, 2.0
        traj, _ = mlp_flow([[u]], [y], n_neurons=1, dt=1e-3, T=0.5, seed=3)

        def rhs(t, theta):
            w, a = theta
            r = a * w * u - y
            return -np.array([r * a * u, r * w * u])

        theta0 = traj.states[0][0]
        ref = rk4_integrate(rhs, theta0, 0.0, 0.5, 50000)
        assert_allclose(traj.final_state[0], ref, rtol=1e-3)

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    def test_wasserstein_gradient_assembly(self, activation):
        # (1/n) sum_j grad_theta k(theta_i, theta_j) + grad g(theta_i)
        # with k and g built from psi must equal n times the Euclidean
        # risk gradient row of particle i.
        rng = np.random.default_rng(34)
        U = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        spec = FunctionalSpec.mlp_risk(U, y, activation)
        theta = rng.standard_normal((4, 3))
        n, big_n = 4, 6
        grad = spec.risk_gradient(theta)
        for i in range(n):
            assembly = np.zeros(3)
            for j in range(n):
                acc = np.zeros(3)
                for k in range(big_n):
                    psi_j, _ = mlp_psi_and_grad(theta[j], U[k], activation)
                    _, dpsi_i = mlp_psi_and_grad(theta[i], U[k], activation)
                    acc += dpsi_i * psi_j
                assembly += acc / big_n
            assembly /= n
            for k in range(big_n):
                _, dpsi_i = mlp_psi_and_grad(theta[i], U[k], activation)
                assembly -= y[k] * dpsi_i / big_n
            assert_allclose(assembly, n * grad[i], atol=1e-8)

    def test_trajectory_layout(self):
        traj, risk = mlp_flow([[1.0, 0.0]], [0.5], n_neurons=2, dt=0.1,
                              T=1.0, seed=4)
        assert traj.states.shape == (11, 2, 3)
        assert risk.shape == (11,)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_neuron_count_validated(self):
        with pytest.raises(ValidationError):
            mlp_flow([[1.0]], [1.0], n_neurons=0, dt=0.1, T=0.1)


def _soft_coulomb(dim):
    return FunctionalSpec.interaction(
        lambda x, y: 1.0 / np.sqrt(1.0 + np.sum((x - y) ** 2, axis=-1)),
        lambda x, y: -(x - y) * (
            1.0 + np.sum((x - y) ** 2, axis=-1)[..., None]) ** -1.5,
        dim=dim)


def _functional(kind, dim, rng):
    center = rng.standard_normal(dim).tolist()
    return {
        "gaussian": lambda: _interaction_preset(
            {"name": "gaussian", "sigma": 0.7}, dim),
        "quadratic": lambda: _interaction_preset({"name": "quadratic"}, dim),
        "soft coulomb": lambda: _soft_coulomb(dim),
        "quadratic potential": lambda: _linear_preset(
            {"name": "quadratic", "center": center}, dim),
        "gaussian well": lambda: _linear_preset(
            {"name": "gaussian_well", "center": center, "sigma": 0.8}, dim),
    }[kind]()


@st.composite
def particle_systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    spec = _functional(draw(st.sampled_from(
        ["gaussian", "quadratic", "soft coulomb", "quadratic potential",
         "gaussian well"])), dim, rng)
    x0 = rng.standard_normal((n, dim))
    if draw(st.booleans()):
        x0 = x0[rng.integers(n, size=n)]  # duplicate particles
    block = draw(st.sampled_from([1, 7, 64, dynamics._PAIR_BLOCK]))
    return spec, x0, block


class TestAgainstPerPairReference:
    """Stacked callbacks in blocks against one callback call per pair."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(particle_systems())
    def test_same_velocities_positions_and_energies(self, system):
        spec, x0, block = system
        with mock.patch.object(dynamics, "_PAIR_BLOCK", block):
            assert_array_equal(spec.velocity(x0),
                               dynamics_reference.velocity(spec, x0))
            traj = gradient_flow(spec, x0, dt=0.05, T=0.25)
            assert_array_equal(
                traj.states,
                dynamics_reference.explicit_flow(spec, x0, 0.05, 5))
            for state in (traj.states[0], traj.states[-1]):
                ref = dynamics_reference.value(spec, state)
                assert abs(spec.value(state) - ref) <= 1e-14 * abs(ref)


@st.composite
def flow_match_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["monge", "product", "optimal"]))
    m = n if mode == "monge" else draw(st.integers(1, 6))
    x = rng.standard_normal((n, dim))
    y = rng.standard_normal((m, dim)) + 1.0
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    if mode == "monge":
        path = CouplingPath.monge(x, y, a)
    elif mode == "product":
        path = CouplingPath(x, y, Coupling(np.outer(a, b), a, b))
    else:
        C = np.sum((x[:, None] - y[None]) ** 2, axis=2)
        path = CouplingPath(x, y, solve_kantorovich(a, b, C).coupling)
    bandwidth = draw(st.sampled_from([None, 1e-3, 0.5, 10.0]))
    dt = draw(st.sampled_from([0.5, 0.125, 0.05]))
    block = draw(st.sampled_from([1, 5, dynamics._PAIR_BLOCK]))
    return path, x, dt, bandwidth, block


class TestFlowMatchAgainstPerPointReference:
    """All points per step against one velocity query per point."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(flow_match_cases())
    def test_same_trajectory(self, case):
        path, x0, dt, bandwidth, block = case
        with mock.patch.object(dynamics, "_PAIR_BLOCK", block):
            try:
                ref = dynamics_reference.flow_match_trajectory(path, x0, dt,
                                                               bandwidth)
            except NoSupportError:
                with pytest.raises(NoSupportError):
                    flow_match_trajectory(path, x0, dt, bandwidth)
                return
            got = flow_match_trajectory(path, x0, dt, bandwidth)
        assert_array_equal(got.times, ref.times)
        assert_allclose(got.states, ref.states, rtol=1e-13, atol=1e-13)
