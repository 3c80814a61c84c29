"""Evolutions of measures: particle flows, 1-D diffusion, flow matching.

Particle flows discretize gradient flows of functionals evaluated on the
uniform empirical measure alpha = (1/n) sum_i delta_{x_i}.  The supported
kinds and their per-particle velocities are

    linear       f(alpha) = int h dalpha              v_i = -(1/n) grad h(x_i)
    interaction  f(alpha) = iint k d(alpha x alpha)   v_i = -(2/n) sum_j grad_1 k(x_i, x_j)
    mlp_risk     two-layer regression risk            v_i = -grad_{theta_i} F

Grid flows solve the nonlinear diffusion d/dt rho = Lap(gtilde(rho)) with
zero-flux boundaries, where the flux satisfies gtilde'(s) = s g''(s) for a
generalized entropy g (Shannon gives the heat equation).  Flow matching
evaluates the conditional-expectation velocity of a coupling path and
integrates it; `dacorogna_moser_1d` inverts a 1-D density path into the
velocity rho v = -d/dt cumulative(rho).  `transformer_flow` applies a
softmax attention layer as repeated Euler steps of a token transport ODE,
and `mlp_flow` trains a mean-field two-layer network on its neuron
particles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CFLViolationError,
    ConvergenceError,
    NoSupportError,
    ValidationError,
    VanishingDensityError,
)
from .measures import (Coupling, GridDensity1D, _check_increasing,
                       _trapezoid_cdf, as_float_array, as_integer, as_number,
                       check_matrix, check_points, check_size, check_vector,
                       check_weights)

__all__ = [
    "ParticleTrajectory",
    "FunctionalSpec",
    "gradient_flow",
    "GeneralizedEntropy",
    "Density1DPath",
    "entropy_flow_1d",
    "CouplingPath",
    "flow_match_velocity",
    "flow_match_trajectory",
    "integrate_flow_match",
    "dacorogna_moser_1d",
    "attention_velocity",
    "transformer_flow",
    "mlp_flow",
]


def _time_grid(dt, horizon, shape):
    """The checked step ``dt`` and the times 0, dt, ..., ``horizon`` of a
    flow whose state has ``shape``; the states at those times must pass
    `check_size`, which runs before the times are built."""
    dt = as_number(dt, "dt", low=0, open=True)
    horizon = as_number(horizon, "the time horizon", low=0, open=True)
    steps = horizon / dt
    # A quotient past the float range is no whole number of steps.
    steps = round(steps) if math.isfinite(steps) else steps
    if steps < 1 or abs(steps * dt - horizon) > 1e-8 * max(1.0, horizon):
        raise ValidationError(
            f"horizon {horizon:g} must be an integer multiple of dt={dt:g}")
    check_size("dt", steps + 1, *shape)
    return dt, np.arange(steps + 1) * dt


class ParticleTrajectory:
    """Time-sampled positions of a fixed set of weighted particles.

    Parameters
    ----------
    times : array_like, shape (k+1,)
        Strictly increasing sample times.
    states : array_like, shape (k+1, n, d)
        Particle positions at each time.
    weights : array_like, shape (n,)
        Simplex weights shared by every time slice; the flows in this
        module never split or merge particles.
    """

    def __init__(self, times, states, weights):
        times = _check_increasing(times, "times", 1)
        states = as_float_array(states, "states")
        if states.ndim != 3 or states.shape[0] != times.shape[0]:
            raise ValidationError(
                f"states must have shape (len(times), n, d), got {states.shape}"
            )
        if not np.all(np.isfinite(states)):
            raise ValidationError("states has non-finite values")
        weights = check_weights(weights, n=states.shape[1], probability=True)
        self.times = times
        self.states = states
        self.weights = weights

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    @property
    def n_particles(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def __repr__(self):
        return (
            f"ParticleTrajectory(n_times={self.n_times}, "
            f"n_particles={self.n_particles}, dim={self.dim}, "
            f"T={self.times[-1]:.6g})"
        )


def _run(times, state, step):
    """The states at ``times`` from ``state`` by ``step(s, state)``."""
    states = np.empty(times.shape + state.shape)
    states[0] = state
    for s in range(times.shape[0] - 1):
        state = step(s, state)
        states[s + 1] = state
    return states


def _trajectory(times, X, step):
    """The uniform-weight `ParticleTrajectory` of `_run` from ``X``."""
    return ParticleTrajectory(times, _run(times, X, step),
                              np.full(X.shape[0], 1.0 / X.shape[0]))


def _call(fn, shape, label, *args):
    """``fn(*args)`` as a float array, which must have ``shape``.

    A callback that fails on stacked points, or returns one value for the
    whole stack, is reported as a `ValidationError` naming the shape it
    should have returned.
    """
    given = " and ".join(str(np.shape(a)) for a in args)
    try:
        out = np.asarray(fn(*args), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{label} must map points of shape {given} to shape {shape}, "
            f"but raised {exc!r}"
        ) from exc
    if out.shape != shape:
        raise ValidationError(
            f"{label} must map points of shape {given} to shape {shape}, "
            f"got {out.shape}"
        )
    return out


def _check_gradient(fn, grad, probes, label):
    """Compare a gradient callback against central differences.

    ``probes`` is a (p, d) batch; ``fn`` must map it to (p,) and ``grad``
    to (p, d).  Each probe is held to relative tolerance 1e-5 of its own
    gradient scale.
    """
    step = 1e-5
    count, dim = probes.shape
    g = _call(grad, probes.shape, f"{label} gradient", probes)
    if not np.all(np.isfinite(g)):
        raise ValidationError(f"{label}: gradient must be finite")
    fd = np.empty_like(probes)
    for axis in range(dim):
        e = np.zeros(dim)
        e[axis] = step
        fd[:, axis] = (_call(fn, (count,), label, probes + e)
                       - _call(fn, (count,), label, probes - e)) / (2.0 * step)
    err = np.max(np.abs(fd - g), axis=1)
    if np.any(err > 1e-5 * np.maximum(1.0, np.max(np.abs(g), axis=1))):
        raise ValidationError(
            f"{label}: finite differences disagree with the supplied "
            f"gradient (max deviation {float(err.max()):.3e})"
        )


# Pairwise evaluations (interaction `value` and `velocity`, flow-matching
# queries against path atoms) take their rows in blocks of
# max(1, _PAIR_BLOCK // columns) rows, each against all columns, so no call
# builds the whole rows x columns x d array when both are large.
_PAIR_BLOCK = 1 << 16


def _row_blocks(rows, columns):
    step = max(1, _PAIR_BLOCK // columns)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


_FUNCTIONAL_KINDS = ("linear", "interaction", "mlp_risk")
_ACTIVATIONS = ("identity", "tanh")


class FunctionalSpec:
    """A functional on empirical measures plus its particle velocity field.

    Built through the classmethods `linear`, `interaction`, and
    `mlp_risk`.  `value(X)` evaluates the functional on the uniform
    empirical measure of the particle array X, shape (n, dim), and
    `velocity(X)` returns the flow velocity at each particle, shape
    (n, dim).

    Callbacks work on stacked points, whose last axis is the coordinate:

    * ``h(x)`` maps x of shape (..., dim) to (...) and ``grad_h(x)`` to
      (..., dim);
    * ``k(x, y)`` maps x and y of shapes (..., dim) that broadcast against
      each other to the broadcast shape without its last axis, and
      ``grad_k(x, y)``, the gradient in x, to the full broadcast shape.

    `velocity` and `value` call them once for all particles (linear) or
    once per block of particle pairs (interaction, about ``_PAIR_BLOCK``
    pairs per block, or one row of n pairs when n is larger).  At construction the callbacks run on
    a batch of three probes: a result of the wrong shape raises
    `ValidationError`, and supplied gradients are checked against central
    finite differences (relative tolerance 1e-5).
    """

    def __init__(self, kind, dim, *, h=None, grad_h=None, k=None, grad_k=None,
                 features=None, labels=None, activation=None):
        if kind not in _FUNCTIONAL_KINDS:
            raise ValidationError(
                f"unknown functional kind {kind!r}; expected one of {_FUNCTIONAL_KINDS}"
            )
        self.kind = kind
        self.dim = as_integer(dim, "dim", low=1)
        self.h = h
        self.grad_h = grad_h
        self.k = k
        self.grad_k = grad_k
        self.features = features
        self.labels = labels
        self.activation = activation

    @classmethod
    def linear(cls, h, grad_h, dim):
        """Potential energy f(alpha) = int h dalpha.

        `h` maps points (..., dim) to values (...) and `grad_h` to
        gradients (..., dim).
        """
        spec = cls("linear", dim, h=h, grad_h=grad_h)
        probes = np.random.default_rng(0).standard_normal((3, spec.dim))
        _check_gradient(h, grad_h, probes, "linear h")
        return spec

    @classmethod
    def interaction(cls, k, grad_k, dim):
        """Interaction energy f(alpha) = iint k(x, y) dalpha(x) dalpha(y).

        `k` maps broadcasting point stacks x, y of shapes (..., dim) to
        values (...) and must be symmetric in its two arguments; `grad_k`
        is the gradient of k in the first argument, shape (..., dim).
        """
        spec = cls("interaction", dim, k=k, grad_k=grad_k)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((3, spec.dim))
        ys = rng.standard_normal((3, spec.dim))
        kxy = _call(k, (3,), "interaction k", xs, ys)
        kyx = _call(k, (3,), "interaction k", ys, xs)
        bad = np.abs(kxy - kyx) > 1e-8 * np.maximum(1.0, np.abs(kxy))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"interaction kernel must be symmetric: k(x,y)={kxy[i]:.6g} "
                f"but k(y,x)={kyx[i]:.6g}"
            )
        _check_gradient(lambda z: k(z, ys), lambda z: grad_k(z, ys), xs,
                        "interaction k")
        return spec

    @classmethod
    def mlp_risk(cls, features, labels, activation="identity"):
        """Square-loss risk of a two-layer network with neuron particles.

        A particle theta = (w, a) in R^{d+1} contributes psi(theta, u) =
        a sigma(<w, u>) to the mean prediction G(u) = (1/n) sum_i psi; the
        functional is the empirical risk (1/2N) sum_k (G(u_k) - y_k)^2.
        """
        U = check_points(features, "features")
        y = check_vector(labels, "labels", U.shape[0])
        if activation not in _ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}"
            )
        return cls("mlp_risk", U.shape[1] + 1, features=U, labels=y,
                   activation=activation)

    def _as_particles(self, X):
        X = check_points(X, "particles")
        if X.shape[1] != self.dim:
            raise ValidationError(
                f"expected particles of shape (n, {self.dim}), got {X.shape}"
            )
        return X

    def _sigma(self, z):
        if self.activation == "identity":
            return z, np.ones_like(z)
        s = np.tanh(z)
        return s, 1.0 - s * s

    def _predictions(self, X):
        W = X[:, :-1]
        a = X[:, -1]
        s, _ = self._sigma(W @ self.features.T)
        return a @ s / X.shape[0]

    def value(self, X) -> float:
        """Evaluate F(X) = f of the uniform empirical measure on X."""
        X = self._as_particles(X)
        n = X.shape[0]
        if self.kind == "linear":
            return float(np.sum(_call(self.h, (n,), "h", X))) / n
        if self.kind == "interaction":
            total = 0.0
            for rows in _row_blocks(n, n):
                block = X[rows]
                total += float(np.sum(_call(self.k, (block.shape[0], n), "k",
                                            block[:, None], X[None])))
            return total / n**2
        residual = self._predictions(X) - self.labels
        return float(0.5 * np.mean(residual * residual))

    def risk_gradient(self, X) -> np.ndarray:
        """Euclidean gradient of the mlp_risk functional, one row per neuron."""
        if self.kind != "mlp_risk":
            raise ValidationError("risk_gradient is defined for mlp_risk only")
        X = self._as_particles(X)
        n = X.shape[0]
        U = self.features
        big_n = U.shape[0]
        W = X[:, :-1]
        a = X[:, -1]
        s, sp = self._sigma(W @ U.T)
        residual = a @ s / n - self.labels
        grad_w = (sp * residual[None, :]) @ U * a[:, None] / (big_n * n)
        grad_a = s @ residual / (big_n * n)
        return np.hstack([grad_w, grad_a[:, None]])

    def velocity(self, X) -> np.ndarray:
        """Flow velocity at each particle, shape (n, dim).

        Linear kind: -(1/n) grad h(x_i).  Interaction kind:
        -(2/n) sum_j grad_1 k(x_i, x_j).  mlp_risk kind: -grad_theta_i F.
        """
        X = self._as_particles(X)
        n = X.shape[0]
        if self.kind == "linear":
            return _call(self.grad_h, X.shape, "grad_h", X) / (-n)
        if self.kind == "interaction":
            out = np.empty_like(X)
            for rows in _row_blocks(n, n):
                block = X[rows]
                # grads[j, i] = grad_1 k(x_i, x_j).  cumsum adds the terms
                # one j at a time in index order, whatever the block shape;
                # sum() pairs them up when the j axis is the contiguous one.
                grads = _call(self.grad_k, (n,) + block.shape, "grad_k",
                              block[None], X[:, None])
                out[rows] = (-2.0 / n) * grads.cumsum(axis=0)[-1]
            return out
        return -self.risk_gradient(X)


_SCHEMES = ("explicit", "implicit")


def gradient_flow(functional: FunctionalSpec, x0, dt, T, scheme="explicit",
                  max_inner=200000) -> ParticleTrajectory:
    """Integrate the particle flow dX/dt = velocity(X) of a functional.

    Parameters
    ----------
    functional : FunctionalSpec
    x0 : array_like, shape (n, d)
        Initial particle positions; a 1-D array is read as n points in R.
    dt, T : float
        Step size and horizon; T must be an integer multiple of dt.
    scheme : {"explicit", "implicit"}
        Explicit Euler x <- x + dt v(x), or the proximal implicit step
        x+ = x + dt v(x+) solved by inner gradient descent on
        z -> ||z - x||^2/2 + dt Phi(z), where grad Phi = -velocity, down
        to max-norm gradient 1e-10.

    Returns
    -------
    ParticleTrajectory
        States at times 0, dt, ..., T with uniform weights.

    Raises
    ------
    ConvergenceError
        If an implicit inner solve stalls or exhausts `max_inner` steps.
    """
    if scheme not in _SCHEMES:
        raise ValidationError(
            f"unknown scheme {scheme!r}; expected one of {_SCHEMES}"
        )
    X = functional._as_particles(x0)
    dt, times = _time_grid(dt, T, X.shape)
    max_inner = as_integer(max_inner, "max_inner", low=0)

    def step(s, X):
        if scheme == "explicit":
            return X + dt * functional.velocity(X)
        return _proximal_step(functional, X, dt, max_inner)
    return _trajectory(times, X, step)


# Max-norm gradient at which an implicit step's inner solve stops.
_INNER_TOL = 1e-10


def _proximal_step(functional, X, dt, max_inner):
    # Gradient descent on z -> ||z - X||^2/2 + dt*Phi(z); the stationarity
    # condition (z - X) - dt*velocity(z) = 0 is the implicit Euler update.
    z = X.copy()
    eta = 1.0
    g = (z - X) - dt * functional.velocity(z)
    norm = float(np.max(np.abs(g)))
    for _ in range(max_inner):
        if norm <= _INNER_TOL:
            return z
        # eta <= 1 falls below the 1e-18 cutoff within 60 halvings.
        for _ in range(61):
            z_new = z - eta * g
            g_new = (z_new - X) - dt * functional.velocity(z_new)
            norm_new = float(np.max(np.abs(g_new)))
            if norm_new < norm or eta < 1e-18:
                break
            eta *= 0.5
        if eta < 1e-18:
            raise ConvergenceError(
                "implicit inner solve stalled before reaching tolerance"
            )
        z, g, norm = z_new, g_new, norm_new
        eta = min(1.0, 2.0 * eta)
    if norm <= _INNER_TOL:
        return z
    raise ConvergenceError(
        f"implicit inner solve did not reach {_INNER_TOL:g} within "
        f"{max_inner} iterations"
    )


class GeneralizedEntropy:
    """Flux description of a generalized-entropy diffusion.

    The flow of f(alpha) = int g(rho(x)) dx is d/dt rho = Lap(gtilde(rho))
    with gtilde'(s) = s g''(s).  Instances carry the flux `gtilde` and its
    derivative `gtilde_prime`, which is all the finite-volume scheme needs.
    """

    def __init__(self, name, gtilde, gtilde_prime):
        if not callable(gtilde) or not callable(gtilde_prime):
            raise ValidationError("gtilde and gtilde_prime must be callable")
        self.name = str(name)
        self.gtilde = gtilde
        self.gtilde_prime = gtilde_prime

    def __repr__(self):
        return f"GeneralizedEntropy({self.name!r})"

    @classmethod
    def shannon(cls):
        """g(s) = s log s - s: gtilde(s) = s, the heat equation."""
        return cls(
            "shannon",
            lambda s: np.asarray(s, dtype=float),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        )

    @classmethod
    def power(cls, q):
        """g(s) = s^q with q > 1: porous-medium flux gtilde(s) = (q-1) s^q."""
        q = as_number(q, "q", low=1, open=True)
        return cls(
            f"power({q:g})",
            lambda s: (q - 1.0) * np.asarray(s, dtype=float) ** q,
            lambda s: q * (q - 1.0) * np.asarray(s, dtype=float) ** (q - 1.0),
        )


class Density1DPath:
    """Densities on a fixed 1-D grid sampled at increasing times."""

    def __init__(self, times, grid, densities):
        self.times = _check_increasing(times, "times", 1)
        self.grid = _check_increasing(grid, "grid", 2)
        self.densities = check_matrix(densities, "densities",
                                      (self.times.shape[0], self.grid.shape[0]))

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    def density_at(self, index) -> GridDensity1D:
        # Flux-form rounding can leave nodes a few ulp below zero; clamp
        # only those before the validating constructor sees them.
        rho = self.densities[as_integer(index, "index", -self.n_times,
                                        self.n_times - 1)]
        if np.any(rho < -1e-12):
            raise ValidationError("density snapshot has negative values")
        return GridDensity1D(self.grid, np.maximum(rho, 0.0))

    def __repr__(self):
        return (
            f"Density1DPath(n_times={self.n_times}, "
            f"n_nodes={self.grid.shape[0]})"
        )


def entropy_flow_1d(rho0: GridDensity1D, entropy: GeneralizedEntropy,
                    dt, T) -> Density1DPath:
    """Evolve d/dt rho = Lap(gtilde(rho)) with zero-flux boundaries.

    Node-centered finite volumes on the uniform grid of `rho0`: each
    interior interface carries the flux (gtilde(rho_{i+1}) - gtilde(rho_i))/h,
    entering the two neighbouring cells with opposite signs, and the
    boundary fluxes are zero, so the discrete mass sum_i w_i rho_i is
    conserved to rounding at every step.  The stability bound
    dt <= h^2 / (2 max gtilde'(rho)) is enforced against the current
    density before each step.

    Returns
    -------
    Density1DPath
        Snapshots at times 0, dt, ..., T.

    Raises
    ------
    CFLViolationError
        If dt exceeds the stability bound at any step.
    """
    if not isinstance(rho0, GridDensity1D):
        raise ValidationError("rho0 must be a GridDensity1D")
    if not isinstance(entropy, GeneralizedEntropy):
        raise ValidationError("entropy must be a GeneralizedEntropy")
    grid = rho0.grid
    dt, times = _time_grid(dt, T, grid.shape)
    spacings = np.diff(grid)
    h = float(spacings[0])
    if float(np.max(np.abs(spacings - h))) > 1e-9 * h:
        raise ValidationError("entropy_flow_1d requires a uniform grid")
    widths = np.full_like(grid, h)
    widths[0] = widths[-1] = 0.5 * h

    def step(s, rho):
        gp = np.asarray(entropy.gtilde_prime(rho), dtype=float)
        if not np.all(np.isfinite(gp)) or np.any(gp < 0):
            raise ValidationError(
                "gtilde_prime must be finite and nonnegative on the density range"
            )
        gpmax = float(np.max(gp))
        if gpmax > 0.0:
            limit = h * h / (2.0 * gpmax)
            if dt > limit * (1.0 + 1e-12):
                raise CFLViolationError(
                    f"dt={dt:g} violates the stability bound "
                    f"h^2/(2 max gtilde') = {limit:g} at step {s}")
        flux = np.diff(np.asarray(entropy.gtilde(rho), dtype=float)) / h
        div = np.zeros_like(rho)
        div[:-1] += flux
        div[1:] -= flux
        return rho + dt * div / widths
    return Density1DPath(times, grid, _run(times, rho0.density, step))


class CouplingPath:
    """A coupling between two atomic measures plus an interpolation map.

    The path places mass pi_ij at P_t(x_i, y_j) for every support pair of
    the coupling.  P_0 and P_1 must be the coordinate projections, so the
    endpoint ensembles reproduce the coupling's two marginals exactly.

    Parameters
    ----------
    source_points : array_like, shape (n, d)
    target_points : array_like, shape (m, d)
    coupling : Coupling
        Joint weights over source x target atoms.
    interpolation, d_dt : callable, optional
        `interpolation(t, x, y)` maps paired atom arrays of shape (S, d)
        to positions, `d_dt(t, x, y)` to its time derivative.  Both
        default to the linear map (1-t) x + t y with derivative y - x and
        must be supplied together.
    """

    def __init__(self, source_points, target_points, coupling,
                 interpolation=None, d_dt=None):
        X = check_points(source_points, "source points")
        Y = check_points(target_points, "target points")
        if not isinstance(coupling, Coupling):
            raise ValidationError("coupling must be a Coupling instance")
        n, m = coupling.shape
        if X.shape[0] != n or Y.shape[0] != m:
            raise ValidationError(
                f"point counts ({X.shape[0]}, {Y.shape[0]}) do not match "
                f"the coupling shape {coupling.shape}"
            )
        if X.shape[1] != Y.shape[1]:
            raise ValidationError("source and target points must share a dimension")
        if (interpolation is None) != (d_dt is None):
            raise ValidationError(
                "a custom interpolation requires its time derivative and vice versa"
            )
        self.source_points = X
        self.target_points = Y
        self.coupling = coupling
        pairs = coupling.support()
        self.pairs = pairs
        self.pair_weights = coupling.plan[pairs[:, 0], pairs[:, 1]]
        self._xs = X[pairs[:, 0]]
        self._ys = Y[pairs[:, 1]]
        self._interp = interpolation
        self._d_dt = d_dt
        if interpolation is not None:
            p0 = np.asarray(interpolation(0.0, self._xs, self._ys), dtype=float)
            p1 = np.asarray(interpolation(1.0, self._xs, self._ys), dtype=float)
            if p0.shape != self._xs.shape or p1.shape != self._xs.shape:
                raise ValidationError(
                    "interpolation must preserve the paired atom array shape"
                )
            if (float(np.max(np.abs(p0 - self._xs))) > 1e-12
                    or float(np.max(np.abs(p1 - self._ys))) > 1e-12):
                raise ValidationError(
                    "interpolation must satisfy P_0(x,y) = x and P_1(x,y) = y"
                )

    @classmethod
    def monge(cls, points, targets, weights):
        """Paired path: atom i moves from points[i] to targets[i]."""
        w = check_weights(weights)
        return cls(points, targets, Coupling(np.diag(w), w, w))

    @property
    def dim(self) -> int:
        return self.source_points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.pairs.shape[0]

    @property
    def default_bandwidth(self) -> float:
        """Flow-matching radius: a small multiple of the coordinate scale.

        Tight enough for paired couplings whose integrated points ride
        single atom trajectories; branched couplings need an explicit,
        coarser radius.
        """
        scale = max(float(np.max(np.abs(self.source_points))),
                    float(np.max(np.abs(self.target_points))))
        return 1e-7 * (1.0 + scale)

    def atoms_at(self, t):
        """Positions and velocities of the path's atoms at time t.

        Returns
        -------
        positions, velocities : ndarray, shape (S, d)
            One row per support pair of the coupling, in support order;
            the corresponding masses are `pair_weights`.
        """
        t = as_number(t, "interpolation time", 0, 1)
        if self._interp is None:
            pos = (1.0 - t) * self._xs + t * self._ys
            vel = self._ys - self._xs
        else:
            pos = np.asarray(self._interp(t, self._xs, self._ys), dtype=float)
            vel = np.asarray(self._d_dt(t, self._xs, self._ys), dtype=float)
        return pos, vel

    def __repr__(self):
        return f"CouplingPath(n_atoms={self.n_atoms}, dim={self.dim})"


def flow_match_velocity(path: CouplingPath, t, z, bandwidth) -> np.ndarray:
    """Conditional-expectation velocity of a coupling path at a point.

    v_t(z) averages the atom velocities d/dt P_t(x_i, y_j), weighted by
    the coupling mass, over the atoms whose position at time t lies within
    Euclidean distance `bandwidth` of `z`.  At an atom with a unique
    preimage this is that atom's own velocity.

    Raises
    ------
    NoSupportError
        If no atom position is within `bandwidth` of `z`.
    """
    z = check_vector(z, "query point", path.dim)
    return _match_velocities(path, t, z[None],
                             as_number(bandwidth, "bandwidth", low=0))[0]


def _match_velocities(path, t, Z, bandwidth):
    """`flow_match_velocity` at every row of Z, shape (s, d), at once."""
    pos, vel = path.atoms_at(t)
    out = np.empty_like(Z)
    for rows in _row_blocks(Z.shape[0], pos.shape[0]):
        dist = np.sqrt(np.sum((pos[None, :, :] - Z[rows, None, :]) ** 2,
                              axis=2))
        near = dist <= bandwidth
        lost = np.flatnonzero(~near.any(axis=1))
        if lost.size:
            i = int(lost[0])
            raise NoSupportError(
                f"no path atom within bandwidth {bandwidth:g} of query point "
                f"{rows.start + i} (nearest at distance "
                f"{float(dist[i].min()):g})"
            )
        w = np.where(near, path.pair_weights, 0.0)
        out[rows] = (w @ vel) / w.sum(axis=1)[:, None]
    return out


def flow_match_trajectory(path: CouplingPath, x0, dt,
                          bandwidth=None) -> ParticleTrajectory:
    """Euler-integrate dz/dt = v_t(z) from t=0 to t=1.

    Each step evaluates the path's atoms once and the velocities of all
    points together.

    Parameters
    ----------
    x0 : array_like, shape (s, d)
        Start points, expected on the atoms of the path at t=0; a 1-D
        array is read as s points in R.
    dt : float
        Step size; 1 must be an integer multiple of dt.
    bandwidth : float, optional
        Match radius for the velocity queries; defaults to
        ``path.default_bandwidth``.

    Returns
    -------
    ParticleTrajectory
        States at times 0, dt, ..., 1 with uniform weights.

    Raises
    ------
    NoSupportError
        If at some step a point has no atom within `bandwidth`.
    """
    Z = check_points(x0, "x0")
    if Z.shape[1] != path.dim:
        raise ValidationError(f"x0 must be points in R^{path.dim}")
    dt, times = _time_grid(dt, 1.0, Z.shape)
    bandwidth = as_number(
        path.default_bandwidth if bandwidth is None else bandwidth,
        "bandwidth", low=0)
    return _trajectory(times, Z, lambda s, Z: Z + dt * _match_velocities(
        path, s * dt, Z, bandwidth))


def integrate_flow_match(path: CouplingPath, x0, dt, bandwidth=None) -> np.ndarray:
    """Endpoint at t=1 of `flow_match_trajectory`, same shape as `x0`.

    Unlike the trajectory, a 1-D `x0` of shape (d,) is one point in R^d.
    """
    Z = check_points(x0, "x0")
    single = np.ndim(x0) == 1
    traj = flow_match_trajectory(path, Z.T if single else Z, dt, bandwidth)
    return traj.final_state[0] if single else traj.final_state


def dacorogna_moser_1d(path: Density1DPath, t) -> np.ndarray:
    """Recover the 1-D continuity-equation velocity of a density path.

    In one dimension mass conservation forces rho_t v_t = -d/dt C_t with
    C_t the cumulative mass function, so v = -(d/dt C_t) / rho_t.  The
    time derivative is a centered difference of the trapezoid cumulative
    masses of the neighbouring snapshots (one-sided at the path ends).

    Parameters
    ----------
    path : Density1DPath
    t : float
        Must coincide with one of the stored times.

    Returns
    -------
    ndarray, shape (n_nodes,)
        Velocity at the grid nodes.

    Raises
    ------
    VanishingDensityError
        If a node density at time t is at or below 1e-12, which makes the
        quotient meaningless.
    """
    if not isinstance(path, Density1DPath):
        raise ValidationError("path must be a Density1DPath")
    if path.n_times < 2:
        raise ValidationError("velocity recovery needs at least two snapshots")
    t = as_number(t, "t")
    times = path.times
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError(f"t={t:g} is not one of the stored times")
    rho = path.densities[idx]
    if np.any(rho <= 1e-12):
        raise VanishingDensityError(
            "velocity recovery needs a strictly positive density "
            f"(min {float(rho.min()):.3e} at t={times[idx]:g})"
        )
    lo = max(idx - 1, 0)
    hi = min(idx + 1, path.n_times - 1)
    dC = (_trapezoid_cdf(path.grid, path.densities[hi])
          - _trapezoid_cdf(path.grid, path.densities[lo]))
    return -(dC / (times[hi] - times[lo])) / rho


def attention_velocity(tokens, Q, K, V, queries) -> np.ndarray:
    """Evaluate the softmax attention vector field at query points.

    The token cloud carries the uniform empirical measure.  With tokens
    and queries as rows, the score of query x against token y is
    <xQ, yK> and the value of y is yV, so

        Gamma(x) = sum_j softmax_j(<xQ, y_jK>) (y_j V).

    Scores are max-subtracted before exponentiation, and the softmax
    reductions use exactly rounded summation, so the output is invariant
    under any reordering of the tokens.
    """
    Y = check_points(tokens, "tokens")
    X = check_points(queries, "queries")
    d = Y.shape[1]
    Q = check_matrix(Q, "Q")
    if Q.shape[0] != d:
        raise ValidationError(f"Q must have {d} rows, got shape {Q.shape}")
    K = check_matrix(K, "K", Q.shape)
    V = check_matrix(V, "V", (d, d))
    if X.shape[1] != d:
        raise ValidationError("queries must share the token dimension")
    keys = Y @ K
    values = Y @ V
    out = np.empty_like(X)
    for i, x in enumerate(X):
        scores = keys @ (x @ Q)
        w = np.exp(scores - np.max(scores))
        denom = math.fsum(w)
        for axis in range(d):
            out[i, axis] = math.fsum(w * values[:, axis]) / denom
    return out


def transformer_flow(tokens, Q, K, V, depth) -> ParticleTrajectory:
    """Apply the attention layer map `depth` times with step 1/depth.

    Each layer moves every token by (1/depth) of the attention field of
    the current cloud, an explicit Euler discretization on [0, 1] of the
    token transport ODE.  Permuting the input tokens permutes the output
    states identically, bit for bit.
    """
    X = check_points(tokens, "tokens")
    depth = as_integer(depth, "depth", low=1)
    check_size("depth", depth + 1, *X.shape)
    return _trajectory(
        np.arange(depth + 1) / depth, X,
        lambda s, X: X + attention_velocity(X, Q, K, V, X) / depth)


def mlp_flow(features, labels, n_neurons, dt, T, activation="identity",
             seed=0):
    """Train a mean-field two-layer network by explicit particle descent.

    Neurons are particles theta_i = (w_i, a_i) flowing down the square-loss
    risk.  Input weights start standard normal scaled by 1/sqrt(d) drawn
    from `seed`; output weights start at zero, so the initial risk is
    (1/2N) sum_k y_k^2.

    Returns
    -------
    trajectory : ParticleTrajectory
        Neuron positions in R^{d+1} at times 0, dt, ..., T.
    risk : ndarray
        The risk along the trajectory, one value per time.
    """
    spec = FunctionalSpec.mlp_risk(features, labels, activation)
    n = as_integer(n_neurons, "n_neurons", low=1)
    check_size("n_neurons", n, spec.dim)
    rng = np.random.default_rng(as_integer(seed, "seed", low=0))
    d = spec.dim - 1
    theta0 = np.hstack([
        rng.standard_normal((n, d)) / np.sqrt(d),
        np.zeros((n, 1)),
    ])
    trajectory = gradient_flow(spec, theta0, dt, T, scheme="explicit")
    risk = np.array([spec.value(state) for state in trajectory.states])
    return trajectory, risk
