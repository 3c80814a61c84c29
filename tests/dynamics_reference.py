"""The per-pair and per-point dynamics loops, kept as differential references.

These are `otkit.dynamics.FunctionalSpec.value` / `velocity` and
`flow_match_velocity` / `flow_match_trajectory` as they were before the
callbacks took stacked points: `value` and `velocity` call ``h``/``k`` and
their gradients once per particle or per ordered pair, and the flow
matching loop queries one point at a time.  The array callbacks of the
package accept single points of shape (d,) too, so the same callbacks
drive both versions.  They are slow and not used by the package;
``tests/test_dynamics.py`` fuzzes the package loops against them.
"""

import numpy as np

from otkit.dynamics import ParticleTrajectory
from otkit.errors import NoSupportError, ValidationError
from otkit.measures import as_number, check_points


def value(spec, X) -> float:
    """Evaluate F(X) = f of the uniform empirical measure on X."""
    X = spec._as_particles(X)
    n = X.shape[0]
    if spec.kind == "linear":
        return float(sum(float(spec.h(x)) for x in X)) / n
    if spec.kind == "interaction":
        total = 0.0
        for x in X:
            for y in X:
                total += float(spec.k(x, y))
        return total / n**2
    residual = spec._predictions(X) - spec.labels
    return float(0.5 * np.mean(residual * residual))


def velocity(spec, X) -> np.ndarray:
    """Flow velocity at each particle, shape (n, dim).

    Linear kind: -(1/n) grad h(x_i).  Interaction kind:
    -(2/n) sum_j grad_1 k(x_i, x_j).  mlp_risk kind: -grad_theta_i F.
    """
    X = spec._as_particles(X)
    n = X.shape[0]
    if spec.kind == "linear":
        out = np.empty_like(X)
        for i, x in enumerate(X):
            out[i] = np.asarray(spec.grad_h(x), dtype=float) / (-n)
        return out
    if spec.kind == "interaction":
        out = np.empty_like(X)
        for i, x in enumerate(X):
            acc = np.zeros(spec.dim)
            for y in X:
                acc += np.asarray(spec.grad_k(x, y), dtype=float)
            out[i] = (-2.0 / n) * acc
        return out
    return -spec.risk_gradient(X)


def explicit_flow(spec, x0, dt, steps) -> np.ndarray:
    """States of the explicit Euler flow x <- x + dt velocity(x)."""
    X = spec._as_particles(x0)
    states = [X]
    for _ in range(steps):
        X = X + dt * velocity(spec, X)
        states.append(X)
    return np.array(states)


def flow_match_velocity(path, t, z, bandwidth) -> np.ndarray:
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
    z = np.asarray(z, dtype=float)
    if z.shape != (path.dim,):
        raise ValidationError(
            f"query point must have shape ({path.dim},), got {z.shape}"
        )
    bandwidth = as_number(bandwidth, "bandwidth")
    if bandwidth < 0:
        raise ValidationError("bandwidth must be finite and nonnegative")
    pos, vel = path.atoms_at(t)
    dist = np.sqrt(np.sum((pos - z) ** 2, axis=1))
    near = dist <= bandwidth
    if not np.any(near):
        raise NoSupportError(
            f"no path atom within bandwidth {bandwidth:g} of the query "
            f"(nearest at distance {float(dist.min()):g})"
        )
    w = path.pair_weights[near]
    return (w @ vel[near]) / float(np.sum(w))


def flow_match_trajectory(path, x0, dt,
                          bandwidth=None) -> ParticleTrajectory:
    """Euler-integrate dz/dt = v_t(z) from t=0 to t=1.

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
    """
    Z = check_points(x0, "x0").copy()
    if Z.shape[1] != path.dim:
        raise ValidationError(f"x0 must be points in R^{path.dim}")
    dt = float(dt)
    steps = int(round(1.0 / dt))
    if bandwidth is None:
        bandwidth = path.default_bandwidth
    states = np.empty((steps + 1,) + Z.shape)
    states[0] = Z
    for s in range(steps):
        t = s * dt
        for i in range(Z.shape[0]):
            Z[i] += dt * flow_match_velocity(path, t, Z[i], bandwidth)
        states[s + 1] = Z
    weights = np.full(Z.shape[0], 1.0 / Z.shape[0])
    return ParticleTrajectory(np.arange(steps + 1) * dt, states, weights)
