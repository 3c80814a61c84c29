"""Semi-discrete transport: Laguerre cells, semi-dual ascent, quantization.

A continuous source is compared against m weighted target points through
the concave semi-dual energy

    E(g) = E_X[ min_j ( c(X, y_j) - g_j ) ] + <g, b>,

whose gradient is b_j - alpha(Lag_j(g)), the mass deficit of the j-th
Laguerre cell.  All cell masses are estimated by Monte Carlo membership
counting, so every procedure takes an explicit seed and reports its
sampling error where relevant.  Stochastic ascent moves g by tau_ell
(b - e_j) for a single sampled membership j; Lloyd iteration alternates
nearest-centroid assignment and cell averaging on one fixed sample set,
which makes its quantization cost exactly nonincreasing.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .measures import (CostSpec, as_float_array, as_integer, as_number,
                       build_cost_matrix, check_covariance, check_points,
                       check_vector, check_weights)


class Sampler:
    """Source distribution exposed only through i.i.d. sampling.

    ``draw(rng, n)`` must return an (n, dim) array.  The optional
    ``mean`` descriptor is used by tests with analytic expectations.
    """

    def __init__(self, name: str, dim: int, draw: Callable, mean=None):
        dim = as_integer(dim, "dim")
        if dim < 1:
            raise ValidationError("sampler dimension must be >= 1")
        self.name = name
        self.dim = dim
        self._draw = draw
        self.mean = None if mean is None else np.asarray(mean, dtype=float)

    def draw(self, rng, n: int) -> np.ndarray:
        n = as_integer(n, "n")
        pts = np.asarray(self._draw(rng, n), dtype=float)
        if pts.shape != (n, self.dim):
            raise ValidationError(
                f"sampler returned shape {pts.shape}, expected {(n, self.dim)}")
        return pts

    @classmethod
    def uniform_box(cls, low, high) -> "Sampler":
        low = check_vector(np.atleast_1d(as_float_array(low, "low")), "low")
        high = check_vector(np.atleast_1d(as_float_array(high, "high")),
                            "high", low.shape[0])
        if np.any(low >= high):
            raise ValidationError("box needs low < high componentwise")
        d = low.shape[0]

        def draw(rng, n):
            return rng.uniform(low, high, size=(n, d))

        return cls("uniform_box", d, draw, mean=0.5 * (low + high))

    @classmethod
    def gaussian(cls, mean, cov) -> "Sampler":
        mean = check_vector(np.atleast_1d(as_float_array(mean, "mean")), "mean")
        d = mean.shape[0]
        cov = check_covariance(np.atleast_2d(as_float_array(cov, "covariance")),
                               "covariance", d)

        def draw(rng, n):
            return rng.multivariate_normal(mean, cov, size=n,
                                           method="eigh")

        return cls("gaussian", d, draw, mean=mean)

    @classmethod
    def gaussian_mixture(cls, weights, means, covs) -> "Sampler":
        means = check_points(means, "mixture means")
        k, d = means.shape
        w = check_weights(weights, "mixture weights", n=k, probability=True)
        covs = as_float_array(covs, "mixture covariances")
        if covs.shape != (k, d, d):
            raise ValidationError(
                f"mixture covariances must be {k} matrices of size {d}x{d}")
        covs = np.array([check_covariance(S, f"mixture covariance {j}")
                         for j, S in enumerate(covs)])

        def draw(rng, n):
            comps = rng.choice(len(w), size=n, p=w / w.sum())
            out = np.empty((n, d))
            for k in range(len(w)):
                idx = np.flatnonzero(comps == k)
                if idx.size:
                    out[idx] = rng.multivariate_normal(
                        means[k], covs[k], size=idx.size, method="eigh")
            return out

        mixture_mean = sum(wk * mk for wk, mk in zip(w, means))
        return cls("gaussian_mixture", d, draw, mean=mixture_mean)


class SemiDiscreteProblem:
    """Continuous source vs. m weighted target atoms under a cost."""

    def __init__(self, sampler: Sampler, targets, target_weights,
                 cost: CostSpec = None):
        self.sampler = sampler
        y = check_points(targets, "targets")
        if y.shape[1] != sampler.dim:
            raise ValidationError("targets and sampler dimensions differ")
        b = check_weights(target_weights, "target weights", n=y.shape[0],
                          probability=True)
        self.targets = y
        self.target_weights = b / b.sum()
        self.cost = cost if cost is not None else CostSpec.sq_euclidean()
        if self.cost.kind == "explicit_matrix":
            raise ValidationError(
                "explicit cost matrices cannot score arbitrary samples")

    @property
    def m(self) -> int:
        return self.targets.shape[0]


class LaguerreAssignment:
    """Membership map x -> argmin_j c(x, y_j) - g_j, lowest index on ties."""

    def __init__(self, problem: SemiDiscreteProblem, g):
        self.problem = problem
        self.g = check_vector(g, "g", problem.m)

    def scores(self, points) -> np.ndarray:
        C = build_cost_matrix(points, self.problem.targets, self.problem.cost)
        return C - self.g[None, :]

    def membership(self, points) -> np.ndarray:
        return np.argmin(self.scores(points), axis=1)


def semi_discrete_energy_mc(problem: SemiDiscreteProblem, g,
                            n_samples: int, seed) -> Tuple[float, float]:
    """Monte Carlo estimate of the semi-dual energy with standard error."""
    n_samples = as_integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    cells = LaguerreAssignment(problem, g)
    rng = np.random.default_rng(seed)
    x = problem.sampler.draw(rng, n_samples)
    values = cells.scores(x).min(axis=1) + float(cells.g @ problem.target_weights)
    if n_samples == 1:
        return float(values[0]), np.inf
    std_err = float(values.std(ddof=1) / np.sqrt(n_samples))
    return float(values.mean()), std_err


def semi_discrete_gradient_mc(problem: SemiDiscreteProblem, g,
                              n_samples: int, seed) -> np.ndarray:
    """Estimate of the energy gradient b_j - alpha(Lag_j(g)).

    The components sum to zero because both the target weights and the
    empirical cell frequencies are probability vectors.
    """
    n_samples = as_integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    cells = LaguerreAssignment(problem, g)
    rng = np.random.default_rng(seed)
    x = problem.sampler.draw(rng, n_samples)
    counts = np.bincount(cells.membership(x), minlength=problem.m)
    return problem.target_weights - counts / n_samples


@dataclass(frozen=True)
class SGDConfig:
    """Step schedule tau_ell = tau0 / (1 + ell / ell0) and evaluation plan."""

    n_iter: int
    seed: int
    tau0: float = 1.0
    ell0: float = 100.0
    eval_every: int = 1000
    heldout_samples: int = 2000

    def __post_init__(self):
        for name in ("n_iter", "eval_every", "heldout_samples"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        for name in ("tau0", "ell0"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        if self.n_iter < 1 or self.tau0 <= 0 or self.ell0 < 1:
            raise ValidationError("need n_iter >= 1, tau0 > 0, ell0 >= 1")
        if self.eval_every < 1 or self.heldout_samples < 1:
            raise ValidationError("evaluation plan must be positive")


@dataclass(frozen=True)
class SGDTraceRecord:
    iteration: int
    step_size: float
    marginal_error: float


def sgd_solve(problem: SemiDiscreteProblem,
              config: SGDConfig) -> Tuple[np.ndarray, List[SGDTraceRecord]]:
    """Stochastic semi-dual ascent from g = 0.

    Each step draws one source point, finds its Laguerre cell j, and
    moves g by tau_ell (b - e_j).  Source points are drawn 256 at a time,
    and the costs from each batch to the targets are built as one matrix
    when the batch is drawn; a step then only reads its row, so the cell
    is ``argmin_j C[x, j] - g_j`` (lowest index on ties) at the current g.
    The trace reports the l1 mismatch between held-out cell frequencies
    and the target weights.
    """
    walk_seed, heldout_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(walk_seed)
    heldout = problem.sampler.draw(np.random.default_rng(heldout_seed),
                                   config.heldout_samples)
    b = problem.target_weights
    g = np.zeros(problem.m)
    trace = []
    batch = 256
    cursor = batch
    for ell in range(config.n_iter):
        if cursor == batch:
            costs = build_cost_matrix(problem.sampler.draw(rng, batch),
                                      problem.targets, problem.cost)
            cursor = 0
        j = int(np.argmin(costs[cursor] - g))
        cursor += 1
        tau = config.tau0 / (1.0 + ell / config.ell0)
        g = g + tau * b
        g[j] -= tau
        if (ell + 1) % config.eval_every == 0 or ell + 1 == config.n_iter:
            counts = np.bincount(LaguerreAssignment(problem, g)
                                 .membership(heldout), minlength=problem.m)
            err = float(np.abs(counts / heldout.shape[0] - b).sum())
            trace.append(SGDTraceRecord(ell + 1, tau, err))
    return g, trace


@dataclass(frozen=True)
class LloydConfig:
    """Iteration budget and sampling plan for Lloyd quantization."""

    n_iter: int
    seed: int
    n_samples: int = 20000

    def __post_init__(self):
        for name in ("n_iter", "n_samples"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.n_iter < 0 or self.n_samples < 1:
            raise ValidationError("need n_iter >= 0 and n_samples >= 1")


def _kmeanspp_seed(samples, m, rng):
    n = samples.shape[0]
    centroids = np.empty((m, samples.shape[1]))
    centroids[0] = samples[rng.integers(n)]
    closest = np.sum((samples - centroids[0]) ** 2, axis=1)
    for k in range(1, m):
        total = closest.sum()
        if total <= 0:
            centroids[k:] = samples[rng.integers(n, size=m - k)]
            break
        centroids[k] = samples[rng.choice(n, p=closest / total)]
        d_new = np.sum((samples - centroids[k]) ** 2, axis=1)
        closest = np.minimum(closest, d_new)
    return centroids


def lloyd_quantize(problem_or_sampler, m: int, config: LloydConfig):
    """Quadratic quantization of the source into m weighted points.

    Runs Lloyd iteration, from a k-means++ seeding, on one fixed sample
    set: assign each sample to
    its nearest centroid, recenter each centroid at its cell average,
    and reseed any emptied cell at a random sample.  Returns the
    centroids, their empirical masses, and the final mean squared
    quantization cost, which is nonincreasing across iterations on the
    fixed set.
    """
    sampler = problem_or_sampler
    if isinstance(sampler, SemiDiscreteProblem):
        if sampler.cost.kind != "sq_euclidean":
            raise ValidationError(
                "Lloyd recentering is specific to squared euclidean cost")
        sampler = sampler.sampler
    m = as_integer(m, "m")
    if m < 1:
        raise ValidationError("need at least one centroid")
    rng = np.random.default_rng(config.seed)
    samples = sampler.draw(rng, config.n_samples)
    centroids = _kmeanspp_seed(samples, m, rng)
    for _ in range(config.n_iter):
        sq = build_cost_matrix(samples, centroids, CostSpec.sq_euclidean())
        labels = np.argmin(sq, axis=1)
        for j in range(m):
            mask = labels == j
            if mask.any():
                centroids[j] = samples[mask].mean(axis=0)
            else:
                centroids[j] = samples[rng.integers(config.n_samples)]
    sq = build_cost_matrix(samples, centroids, CostSpec.sq_euclidean())
    labels = np.argmin(sq, axis=1)
    masses = np.bincount(labels, minlength=m) / config.n_samples
    cost = float(sq[np.arange(config.n_samples), labels].mean())
    return centroids, masses, cost
