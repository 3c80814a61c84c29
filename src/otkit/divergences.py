"""Divergences between nonnegative weight vectors and kernel norms.

Two families are implemented.  The first compares weights pointwise
through a convex entropy function phi::

    D_phi(a | b) = sum_{i : b_i > 0} phi(a_i / b_i) b_i
                   + phi'_inf * sum_{i : b_i = 0} a_i,

where phi'_inf = lim_{s -> inf} phi(s) / s is the recession slope.  The
divergence admits the dual (Legendre) representation

    D_phi(a | b) = sup_f  <f, a> - sum_i phi*(f_i) b_i,

with phi*(t) = sup_{s >= 0} s t - phi(s) the conjugate restricted to the
nonnegative axis.  Any finite f gives a lower bound (weak duality), and
for differentiable phi the choice f_i = phi'(a_i / b_i) closes the gap.

The second family is the squared kernel norm of the signed measure
alpha - beta,

    ||alpha - beta||_k^2 = sum a a' k(x, x') + sum b b' k(y, y')
                           - 2 sum a b k(x, y),

nonnegative for positive-definite kernels and, for conditionally
positive kernels such as -||x - y||^p with 0 < p < 2, nonnegative when
both measures carry equal total mass.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .measures import (DiscreteMeasure, _pairwise, align_supports, as_number,
                       check_cost_matrix, check_points, check_vector,
                       check_weights)


def _phi_kl(s):
    if s < 0:
        return np.inf
    if s == 0.0:
        return 1.0
    return s * np.log(s) - s + 1.0


def _phi_tv(s):
    if s < 0:
        return np.inf
    return abs(s - 1.0)


def _phi_chi2(s):
    if s < 0:
        return np.inf
    return (s - 1.0) ** 2


def _legendre_kl(t):
    return np.expm1(t)


def _legendre_tv(t):
    if t > 1.0:
        return np.inf
    return max(t, -1.0)


def _legendre_chi2(t):
    if t < -2.0:
        return -1.0
    return t + 0.25 * t * t


@dataclass(frozen=True)
class EntropyFunction:
    """Convex entropy on [0, inf) together with its dual ingredients.

    Parameters
    ----------
    name : str
        A label; the presets are "kl", "tv" and "chi2".
    phi : callable
        Scalar convex function with domain in [0, inf); returns ``np.inf``
        outside the domain.
    phi_prime_inf : float
        Recession slope lim phi(s)/s, possibly ``np.inf``.
    legendre_nonneg : callable
        Scalar conjugate ``phi*(t) = sup_{s >= 0} s t - phi(s)``.
    """

    name: str
    phi: Callable[[float], float]
    phi_prime_inf: float
    legendre_nonneg: Callable[[float], float]

    @classmethod
    def kl(cls) -> "EntropyFunction":
        """Shannon entropy phi(s) = s log s - s + 1, phi(0) = 1."""
        return cls("kl", _phi_kl, np.inf, _legendre_kl)

    @classmethod
    def tv(cls) -> "EntropyFunction":
        """Total variation entropy phi(s) = |s - 1|."""
        return cls("tv", _phi_tv, 1.0, _legendre_tv)

    @classmethod
    def chi2(cls) -> "EntropyFunction":
        """Pearson chi-squared entropy phi(s) = (s - 1)^2."""
        return cls("chi2", _phi_chi2, np.inf, _legendre_chi2)


def from_name(name: str) -> EntropyFunction:
    """Look up a preset entropy by name."""
    presets = {
        "kl": EntropyFunction.kl,
        "tv": EntropyFunction.tv,
        "chi2": EntropyFunction.chi2,
    }
    if name not in presets:
        raise ValidationError(f"unknown entropy preset {name!r}")
    return presets[name]()


def phi_divergence(a, b, entropy: EntropyFunction) -> float:
    """Divergence of weight vector ``a`` from ``b`` on a shared support.

    Entries where ``b`` vanishes contribute through the recession slope;
    if the slope is infinite and ``a`` charges such an entry the result
    is ``np.inf``.  The convention ``0 * phi'_inf = 0`` applies, so mass
    absent from both vectors costs nothing.
    """
    a = check_weights(a, "a")
    b = check_weights(b, "b", n=a.shape[0])
    total = 0.0
    for ai, bi in zip(a, b):
        if bi > 0:
            total += entropy.phi(ai / bi) * bi
        elif ai > 0:
            if not np.isfinite(entropy.phi_prime_inf):
                return np.inf
            total += entropy.phi_prime_inf * ai
    return float(total)


def phi_divergence_measures(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                            entropy: EntropyFunction) -> float:
    """Divergence between discrete measures after union-support alignment."""
    _, wa, wb = align_supports(alpha, beta)
    return phi_divergence(wa, wb, entropy)


def phi_dual_value(f, b, entropy: EntropyFunction) -> float:
    """Legendre transform of ``D_phi(. | b)`` evaluated at the witness f.

    Returns ``sum_i phi*(f_i) b_i``; combined with ``<f, a>`` this yields
    the weak-duality lower bound on the divergence.
    """
    b = check_weights(b, "b")
    f = check_vector(f, "witness", b.shape[0])
    total = 0.0
    for fi, bi in zip(f, b):
        if bi > 0:
            term = entropy.legendre_nonneg(fi)
            if not np.isfinite(term) and term > 0:
                return np.inf
            total += term * bi
    return float(total)


def phi_dual_gap(a, b, f, entropy: EntropyFunction) -> float:
    """Gap between the divergence and the dual objective at witness f.

    Nonnegative for every finite witness; zero (up to rounding) at the
    optimal witness ``f_i = phi'(a_i / b_i)`` when phi is differentiable.
    """
    a = check_weights(a, "a")
    f = check_vector(f, "witness", a.shape[0])
    primal = phi_divergence(a, b, entropy)
    dual = float(f @ a) - phi_dual_value(f, b, entropy)
    return primal - dual


@dataclass(frozen=True)
class KernelSpec:
    """Kernel for squared-norm comparisons of measures.

    ``gaussian(sigma)`` is positive definite; ``energy(p)`` with
    0 < p < 2 is conditionally positive definite, so the induced squared
    norm is guaranteed nonnegative only on differences of equal-mass
    measures.  ``custom_matrix`` carries an explicit Gram matrix over the
    concatenated supports of the two measures being compared.
    """

    kind: str
    sigma: Optional[float] = None
    exponent: Optional[float] = None
    matrix: Optional[np.ndarray] = None

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        sigma = as_number(sigma, "sigma")
        if not sigma > 0:
            raise ValidationError("gaussian kernel needs sigma > 0")
        return cls(kind="gaussian", sigma=sigma)

    @classmethod
    def energy(cls, p: float) -> "KernelSpec":
        p = as_number(p, "p")
        if not 0.0 < p < 2.0:
            raise ValidationError("energy kernel needs exponent in (0, 2)")
        return cls(kind="energy", exponent=p)

    @classmethod
    def custom_matrix(cls, matrix) -> "KernelSpec":
        M = check_cost_matrix(matrix, name="custom kernel matrix")
        if not np.allclose(M, M.T, rtol=0, atol=1e-12 * max(1.0, np.abs(M).max())):
            raise ValidationError("custom kernel matrix must be symmetric")
        return cls(kind="custom_matrix", matrix=M)


def kernel_matrix(x, y, kernel: KernelSpec) -> np.ndarray:
    """Evaluate the kernel on all pairs of points of ``x`` and ``y``.

    Both are read by `check_points`: a 1-D array is n points in R^1.
    """
    x = check_points(x, "x")
    y = check_points(y, "y")
    if kernel.kind == "gaussian":
        sq = _pairwise(x, y, "sqeuclidean")
        return np.exp(-sq / (2.0 * kernel.sigma**2))
    if kernel.kind == "energy":
        return -_pairwise(x, y, "euclidean") ** kernel.exponent
    raise ValidationError(
        f"kernel kind {kernel.kind!r} has no pointwise evaluation")


def mmd_squared(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                kernel: KernelSpec) -> float:
    """Squared kernel norm of the difference ``alpha - beta``.

    Computed as the quadratic form ``<K r, r>`` where ``r`` stacks the
    weights of ``alpha`` against the negated weights of ``beta`` and
    ``K`` is the Gram matrix over the concatenated supports.
    """
    if alpha.dim != beta.dim:
        raise ValidationError("measures live in different dimensions")
    r = np.concatenate([alpha.weights, -beta.weights])
    if kernel.kind == "custom_matrix":
        K = kernel.matrix
        if K.shape[0] != alpha.n + beta.n:
            raise ValidationError(
                "custom kernel matrix must cover the concatenated supports")
    else:
        z = np.vstack([alpha.points, beta.points])
        K = kernel_matrix(z, z, kernel)
    return float(r @ K @ r)
