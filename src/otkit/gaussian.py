"""Closed-form transport between Gaussians: Bures metric and Monge maps.

For nondegenerate Gaussians N(m_a, S_a) and N(m_b, S_b) the squared
2-Wasserstein distance splits into a mean term and the squared Bures
distance between covariances,

    W2^2 = |m_a - m_b|^2 + B(S_a, S_b)^2,
    B^2  = tr(S_a) + tr(S_b) - 2 tr((S_a^{1/2} S_b S_a^{1/2})^{1/2}),

and the optimal map is affine, T(x) = m_b + A (x - m_a) with the
symmetric positive definite matrix

    A = S_a^{-1/2} (S_a^{1/2} S_b S_a^{1/2})^{1/2} S_a^{-1/2},

which satisfies A S_a A = S_b.  All matrix roots are taken through
symmetric eigendecompositions with eigenvalues clamped at zero, so the
functions accept covariances that are singular up to rounding; the Monge
map additionally requires S_a to be nonsingular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import as_float_array, check_covariance

__all__ = [
    "bures_distance",
    "bures_squared",
    "gaussian_w2",
    "gaussian_w2_squared",
    "gaussian_monge_map",
    "GaussianMap",
]


def _sym_sqrt(S):
    """Symmetric PSD square root via eigendecomposition (clamped at 0)."""
    w, V = np.linalg.eigh(S)
    root = np.sqrt(np.maximum(w, 0.0))
    return (V * root) @ V.T


def _check_means(mean_a, mean_b, d=None):
    """Both means as finite vectors of one length (``d`` when given).

    Column vectors of shape (d, 1) are read as vectors.
    """
    means = []
    for mean, name in ((mean_a, "mean_a"), (mean_b, "mean_b")):
        m = as_float_array(mean, name).reshape(-1)
        if not np.all(np.isfinite(m)):
            raise ValidationError(f"{name} contains non-finite values")
        means.append(m)
    ma, mb = means
    if ma.shape != mb.shape:
        raise ValidationError("means have different dimensions")
    if d is not None and ma.shape != (d,):
        raise ValidationError("mean and covariance dimensions disagree")
    return ma, mb


def bures_squared(Sigma_a, Sigma_b) -> float:
    """Squared Bures distance between PSD covariance matrices.

    The value is clamped at zero: rounding can push the trace formula
    slightly negative when the matrices nearly coincide.
    """
    Sa = check_covariance(Sigma_a, "Sigma_a")
    Sb = check_covariance(Sigma_b, "Sigma_b")
    if Sa.shape != Sb.shape:
        raise ValidationError("covariances have different dimensions")
    root_a = _sym_sqrt(Sa)
    M = root_a @ Sb @ root_a
    M = 0.5 * (M + M.T)
    cross = float(np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(M), 0.0))))
    value = float(np.trace(Sa) + np.trace(Sb)) - 2.0 * cross
    return max(value, 0.0)


def bures_distance(Sigma_a, Sigma_b) -> float:
    """Bures distance B(Sigma_a, Sigma_b) >= 0."""
    return float(np.sqrt(bures_squared(Sigma_a, Sigma_b)))


def gaussian_w2_squared(mean_a, Sigma_a, mean_b, Sigma_b) -> float:
    """Squared W2 between Gaussians: mean shift plus squared Bures."""
    bures = bures_squared(Sigma_a, Sigma_b)
    ma, mb = _check_means(mean_a, mean_b, np.shape(Sigma_a)[0])
    return float(np.dot(ma - mb, ma - mb)) + bures


def gaussian_w2(mean_a, Sigma_a, mean_b, Sigma_b) -> float:
    """W2 distance between Gaussians N(mean_a, Sigma_a), N(mean_b, Sigma_b)."""
    return float(np.sqrt(gaussian_w2_squared(mean_a, Sigma_a, mean_b, Sigma_b)))


@dataclass(frozen=True)
class GaussianMap:
    """Affine optimal map T(x) = target_mean + A (x - source_mean)."""

    matrix: np.ndarray
    source_mean: np.ndarray
    target_mean: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.target_mean + (x - self.source_mean) @ self.matrix.T


def gaussian_monge_map(mean_a, Sigma_a, mean_b, Sigma_b) -> GaussianMap:
    """Optimal (Monge) map between nondegenerate Gaussians for squared cost.

    Returns
    -------
    GaussianMap
        Callable affine map whose matrix A is symmetric positive definite
        and satisfies ``A Sigma_a A = Sigma_b``.

    Raises
    ------
    ValidationError
        If a mean is not a finite vector, the dimensions disagree, or
        ``Sigma_a`` is singular (its inverse root is required).
    """
    Sa = check_covariance(Sigma_a, "Sigma_a")
    d = Sa.shape[0]
    Sb = check_covariance(Sigma_b, "Sigma_b", d)
    ma, mb = _check_means(mean_a, mean_b, d)
    w, V = np.linalg.eigh(Sa)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise ValidationError("Sigma_a is singular; the Monge map needs "
                              "a nondegenerate source")
    root_a = (V * np.sqrt(w)) @ V.T
    inv_root_a = (V / np.sqrt(w)) @ V.T
    M = root_a @ Sb @ root_a
    A = inv_root_a @ _sym_sqrt(0.5 * (M + M.T)) @ inv_root_a
    A = 0.5 * (A + A.T)
    return GaussianMap(matrix=A, source_mean=ma, target_mean=mb)
