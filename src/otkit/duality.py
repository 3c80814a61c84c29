"""Kantorovich duality: potentials, c-transforms, gaps, semi-dual energy.

The sign conventions are fixed throughout the package: a potential pair
``(f, g)`` is feasible for the cost ``C`` when ``f_i + g_j <= C_ij``, the
dual objective is ``<f, a> + <g, b>``, and the two partial minimizations

    c_transform(g, C)_i     = min_j C_ij - g_j        (target -> source)
    c_bar_transform(f, C)_j = min_i C_ij - f_i        (source -> target)

produce the tightest feasible completion of one side given the other.
Because both transforms are pure min/subtract reductions, identities such
as ``c_bar(c(c_bar(f))) == c_bar(f)`` hold exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePotentialsError, ValidationError
from .measures import (EQUALITY_TOL, MARGINAL_TOL, DiscreteMeasure,
                       GridDensity1D, as_number, check_cost_matrix,
                       check_matrix, check_vector, check_weights)

__all__ = [
    "DualPotentials",
    "c_transform",
    "c_bar_transform",
    "dual_objective",
    "check_feasibility",
    "duality_gap",
    "semi_dual_energy",
    "BrenierReport",
    "w2_brenier_check",
]


@dataclass(frozen=True)
class DualPotentials:
    """A pair of dual potentials, optionally attached to a regularization.

    ``epsilon == 0`` marks potentials for the unregularized problem, where
    feasibility ``f_i + g_j <= C_ij`` is meaningful; entropic potentials
    carry their epsilon instead.
    """

    f: np.ndarray
    g: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "f", check_vector(self.f, "f"))
        object.__setattr__(self, "g", check_vector(self.g, "g"))
        object.__setattr__(self, "epsilon", as_number(self.epsilon, "epsilon"))
        if self.epsilon < 0.0:
            raise ValidationError("epsilon must be nonnegative")


def c_transform(g, C):
    """Tightest source potential for a given target potential.

    ``f_i = min_j C_ij - g_j``.
    """
    return _transform(g, "g", C, 1)


def c_bar_transform(f, C):
    """Tightest target potential for a given source potential.

    ``g_j = min_i C_ij - f_i``.
    """
    return _transform(f, "f", C, 0)


def _transform(h, name, C, axis):
    """``min`` over ``axis`` of ``C`` less the potential ``h`` laid along it."""
    C = check_matrix(C, "cost matrix")
    h = check_vector(h, name, C.shape[axis])
    return np.min(C - np.expand_dims(h, 1 - axis), axis=axis)


def dual_objective(a, b, potentials: DualPotentials) -> float:
    """Dual value <f, a> + <g, b>."""
    a = check_weights(a, "a", n=potentials.f.size)
    b = check_weights(b, "b", n=potentials.g.size)
    return float(np.dot(potentials.f, a) + np.dot(potentials.g, b))


def check_feasibility(potentials: DualPotentials, C, atol=MARGINAL_TOL):
    """Verify ``f_i + g_j <= C_ij`` up to ``atol``.

    ``C`` must be a finite matrix of shape ``(f.size, g.size)``.

    Raises
    ------
    InfeasiblePotentialsError
        With the worst-violating entry (i, j) as witness.
    """
    C = check_cost_matrix(C, (potentials.f.size, potentials.g.size))
    slack = potentials.f[:, None] + potentials.g[None, :] - C
    worst = np.unravel_index(np.argmax(slack), slack.shape)
    violation = float(slack[worst])
    if violation > atol:
        raise InfeasiblePotentialsError(worst, violation)
    return violation


def duality_gap(result, potentials: DualPotentials, C) -> float:
    """Primal cost minus dual value for a transport result.

    The potentials are first checked for feasibility (epsilon must be 0);
    infeasible pairs are rejected with a witness entry.  The returned gap
    is nonnegative up to rounding for any feasible pair, and is ~0 at an
    optimal primal/dual pair.
    """
    if potentials.epsilon != 0.0:
        raise ValidationError("duality_gap applies to unregularized potentials")
    check_feasibility(potentials, C)
    a = result.coupling.row_marginal
    b = result.coupling.col_marginal
    return float(result.cost) - dual_objective(a, b, potentials)


def semi_dual_energy(f, a, b, C) -> float:
    """Semi-dual value <f, a> + <f^c, b> with f^c the tight completion."""
    f = check_vector(f, "f")
    g = c_bar_transform(f, C)
    a = check_weights(a, "a", n=f.size)
    b = check_weights(b, "b", n=g.size)
    return float(np.dot(f, a) + np.dot(g, b))


@dataclass(frozen=True)
class BrenierReport:
    """Outcome of a 1-D monotone-map check.

    Attributes
    ----------
    monotone : bool
        Whether the candidate map is nondecreasing across the support.
    violation : tuple or None
        Grid interval (x_left, x_right) of the first monotonicity failure.
    pushforward_w1 : float
        W1 distance between the mapped source and the target.
    threshold : float
        Largest grid cell width; the pushforward must match within it.
    passed : bool
    """

    monotone: bool
    violation: tuple | None
    pushforward_w1: float
    threshold: float
    passed: bool


def w2_brenier_check(source: GridDensity1D, target, transport_map
                     ) -> BrenierReport:
    """Check that a candidate 1-D map is monotone and pushes source to target.

    The source density is discretized to cell-midpoint atoms (trapezoid
    masses), the map is applied, and the image is compared to the target in
    W1.  A map optimal for the squared cost must be nondecreasing on the
    support, up to `EQUALITY_TOL`, and reproduce the target up to the grid
    resolution.

    Parameters
    ----------
    source : GridDensity1D
        Probability density on a 1-D grid.
    target : DiscreteMeasure or GridDensity1D
        Probability measure the map should reach.
    transport_map : callable
        Vectorized map from positions to positions.
    """
    from .exact import w1_1d_cdf

    if abs(source.total_mass - 1.0) > MARGINAL_TOL:
        raise ValidationError("source must be a probability density")
    atoms = source.to_discrete()
    keep = atoms.weights > 0
    src = DiscreteMeasure(atoms.points[keep], atoms.weights[keep])

    mapped = np.asarray(transport_map(src.points[:, 0]), dtype=float)
    if mapped.shape != (src.n,):
        raise ValidationError("transport map must return one value per input")
    diffs = np.diff(mapped)
    bad = np.flatnonzero(diffs < -EQUALITY_TOL)
    monotone = bad.size == 0
    violation = None
    if not monotone:
        k = int(bad[0])
        violation = (float(src.points[k, 0]), float(src.points[k + 1, 0]))

    image = DiscreteMeasure(mapped, src.weights).normalized()
    if isinstance(target, GridDensity1D):
        target_atoms = target.to_discrete().normalized()
    elif isinstance(target, DiscreteMeasure):
        target_atoms = target.normalized()
    else:
        raise ValidationError(f"unsupported target type {type(target).__name__}")
    w1 = w1_1d_cdf(image, target_atoms)
    threshold = float(np.max(source.cell_widths))
    return BrenierReport(
        monotone=monotone,
        violation=violation,
        pushforward_w1=w1,
        threshold=threshold,
        passed=bool(monotone and w1 <= threshold),
    )
