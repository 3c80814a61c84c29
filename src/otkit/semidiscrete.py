"""Semi-discrete transport: Laguerre cells, semi-dual ascent, quantization.

A continuous source is compared against m weighted target points through
the concave semi-dual energy

    E(g) = E_X[ min_j ( c(X, y_j) - g_j ) ] + <g, b>,

whose gradient is b_j - alpha(Lag_j(g)), the mass deficit of the j-th
Laguerre cell.  All cell masses are estimated by Monte Carlo membership
counting, so every procedure takes an explicit seed and reports its
sampling error where relevant.  Stochastic ascent moves g by tau_ell
(b - e_j) for a single sampled membership j.  It takes its steps in
blocks by exact speculative replay: guess each step's cell, build the g
trajectory of the guesses with one running sum whose rounding is that of
the single steps, and keep the steps up to the first wrong guess, so g
has the bits of one step at a time.  Lloyd iteration alternates
nearest-centroid assignment and cell averaging on one fixed sample set,
which makes its quantization cost exactly nonincreasing.
"""

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .measures import (CostSpec, as_float_array, as_integer, as_number,
                       build_cost_matrix, check_covariance, check_points,
                       check_size, check_vector, check_weights)


class Sampler:
    """Source distribution exposed only through i.i.d. sampling.

    ``draw(rng, n)`` must return an (n, dim) array.  The optional
    ``mean`` descriptor is used by tests with analytic expectations.
    """

    def __init__(self, name: str, dim: int, draw: Callable, mean=None):
        self.name = name
        self.dim = as_integer(dim, "dim", low=1)
        self._draw = draw
        self.mean = None if mean is None else np.asarray(mean, dtype=float)

    def draw(self, rng, n: int) -> np.ndarray:
        n = as_integer(n, "n", low=0)
        check_size("n", n, self.dim)
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


def _mc_draw(problem: SemiDiscreteProblem, g, n_samples, seed):
    """Laguerre cells of ``g`` and ``n_samples`` points drawn at ``seed``."""
    n_samples = as_integer(n_samples, "n_samples", low=1)
    check_size("n_samples", n_samples, problem.sampler.dim)
    cells = LaguerreAssignment(problem, g)
    rng = np.random.default_rng(as_integer(seed, "seed", low=0))
    return cells, problem.sampler.draw(rng, n_samples)


def semi_discrete_energy_mc(problem: SemiDiscreteProblem, g,
                            n_samples: int, seed) -> Tuple[float, float]:
    """Monte Carlo estimate of the semi-dual energy with standard error."""
    cells, x = _mc_draw(problem, g, n_samples, seed)
    values = cells.scores(x).min(axis=1) + float(cells.g @ problem.target_weights)
    if len(x) == 1:
        return float(values[0]), np.inf
    std_err = float(values.std(ddof=1) / np.sqrt(len(x)))
    return float(values.mean()), std_err


def semi_discrete_gradient_mc(problem: SemiDiscreteProblem, g,
                              n_samples: int, seed) -> np.ndarray:
    """Estimate of the energy gradient b_j - alpha(Lag_j(g)).

    The components sum to zero because both the target weights and the
    empirical cell frequencies are probability vectors.
    """
    cells, x = _mc_draw(problem, g, n_samples, seed)
    counts = np.bincount(cells.membership(x), minlength=problem.m)
    return problem.target_weights - counts / len(x)


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
        for name, low in (("n_iter", 1), ("seed", 0), ("eval_every", 1),
                          ("heldout_samples", 1)):
            object.__setattr__(self, name,
                               as_integer(getattr(self, name), name, low))
        object.__setattr__(self, "tau0",
                           as_number(self.tau0, "tau0", low=0, open=True))
        object.__setattr__(self, "ell0", as_number(self.ell0, "ell0", low=1))


class SGDTraceRecord(NamedTuple):
    """One evaluation of `sgd_solve`: the steps taken, the last step size
    and the held-out l1 marginal error."""

    iteration: int
    step_size: float
    marginal_error: float


# Steps in one block of the speculative replay in `sgd_solve`.
_WINDOW = 64
# What one replay pass costs in plain steps: a fixed part for its dozen
# numpy calls, plus one step per _CELLS_PER_STEP cells of the (steps x m)
# arrays it builds.  Measured with numpy 2.4 on a 2-CPU x86 VM.
_PASS_COST = 6
_CELLS_PER_STEP = 128
# The longest run of plain steps between blocks while blocks keep losing.
_MAX_BACKOFF = 64 * _WINDOW


class _Replay:
    """The steps of `sgd_solve`, taken in blocks by exact speculative replay.

    A block of up to _WINDOW steps guesses each step's cell from g at its
    start, builds the exact g trajectory those guesses give with one
    ``np.add.accumulate``, and recomputes every step's cell from its g.
    Steps up to the first one whose cell differs from its guess are
    right, and so is that step, because its g was exact: the pass accepts
    them, and the next pass replays the rest of the block with the cells
    just recomputed as its guesses.  Each pass accepts at least one step.

    Passes are charged in plain steps (_PASS_COST, _CELLS_PER_STEP).  A
    block whose passes, the next one included, would cost more plain
    steps than the block has takes the rest of its steps plainly, and so
    do the ``backoff`` steps after it; ``backoff`` doubles while blocks
    keep losing and resets when one wins.  A block that cannot afford
    one pass (a short one, or m so large that a pass costs more than
    _WINDOW steps) is taken plainly without a verdict.  Either way ``g``
    gets the bits of one plain step at a time.
    """

    def __init__(self, b):
        self.b = b
        m = b.shape[0]
        self.plain_left = 0
        self.backoff = _WINDOW
        self.cols = np.arange(m)
        self.traj = np.empty((2 * _WINDOW + 1, m))

    def steps(self, g, costs, taus):
        """g after one step per row of ``costs``, the i-th of size taus[i].

        Step i finds ``j = argmin(costs[i] - g)`` (lowest index on ties)
        and does ``g = g + taus[i] * b; g[j] -= taus[i]``.  The rows of
        ``incr`` interleave those two updates: ``incr[2i + 1]`` is
        ``taus[i] * b`` and ``incr[2i + 2]`` holds ``-taus[i]`` at the
        guessed cell and -0.0 elsewhere, which adds nothing to any float,
        signed zeros included.  So a running sum from ``incr[2i] = g``
        rounds as the plain updates do.
        """
        n, m = costs.shape
        incr = np.empty((2 * n + 1, m))
        np.multiply(taus[:, None], self.b, out=incr[1::2])
        neg_taus, tau_list = -taus[:, None], taus.tolist()
        i = 0
        while i < n:
            if self.plain_left:
                stop = min(n, i + self.plain_left)
                for row, step, tau in zip(costs[i:stop],
                                          incr[2 * i + 1:2 * stop:2],
                                          tau_list[i:stop]):
                    j = (row - g).argmin()
                    g += step
                    g[j] -= tau
                self.plain_left -= stop - i
                i = stop
                continue
            end = min(n, i + _WINDOW)
            budget = end - i  # plain steps the block's passes may cost
            start, guess = i, None
            while i < end:
                w = end - i
                budget -= _PASS_COST + w * m / _CELLS_PER_STEP
                if budget < 0:
                    break
                if guess is None:
                    guess = (costs[i:end] - g).argmin(axis=1)
                incr[2 * i] = g
                np.multiply(guess[:, None] == self.cols, neg_taus[i:end],
                            out=incr[2 * i + 2:2 * end + 1:2])
                traj = np.add.accumulate(incr[2 * i:2 * end + 1], axis=0,
                                         out=self.traj[:2 * w + 1])
                cells = (costs[i:end] - traj[0:2 * w:2]).argmin(axis=1)
                miss = cells != guess
                q = int(miss.argmax())
                if not miss[q]:
                    g = traj[2 * w].copy()
                    i = end
                else:
                    g = traj[2 * q + 1].copy()
                    g[cells[q]] -= tau_list[i + q]
                    i += q + 1
                    guess = cells[q + 1:]
            if i == end:
                self.backoff = _WINDOW
            elif i == start:
                self.plain_left = end - i  # too short, or m too large
            else:
                self.plain_left = end - i + self.backoff
                self.backoff = min(2 * self.backoff, _MAX_BACKOFF)
        return g


def sgd_solve(problem: SemiDiscreteProblem,
              config: SGDConfig) -> Tuple[np.ndarray, List[SGDTraceRecord]]:
    """Stochastic semi-dual ascent from g = 0.

    Each step draws one source point, finds its Laguerre cell j, and
    moves g by tau_ell (b - e_j).  Source points are drawn 256 at a time,
    and the costs from each batch to the targets are built as one matrix
    when the batch is drawn, so a step's cell is ``argmin_j C[x, j] -
    g_j`` (lowest index on ties) at the current g.  The steps between
    batch edges and evaluations run by exact speculative replay
    (`_Replay`): blocks of steps guess their cells, one running sum
    builds the g trajectory of the guesses, and the steps whose guesses
    hold are taken at once.  ``g`` and the trace have the same bits as
    taking one step at a time.  The trace reports the l1 mismatch
    between held-out cell frequencies and the target weights; the
    held-out costs are built once.
    """
    walk_seed, heldout_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(walk_seed)
    heldout = problem.sampler.draw(np.random.default_rng(heldout_seed),
                                   config.heldout_samples)
    heldout_costs = build_cost_matrix(heldout, problem.targets, problem.cost)
    b = problem.target_weights
    n_iter, every = config.n_iter, config.eval_every
    replay = _Replay(b)
    g = np.zeros(problem.m)
    trace = []
    batch = 256
    ell = 0
    while ell < n_iter:
        costs = build_cost_matrix(problem.sampler.draw(rng, batch),
                                  problem.targets, problem.cost)
        first, last = ell, min(ell + batch, n_iter)
        while ell < last:
            stop = min(last, (ell // every + 1) * every)
            taus = config.tau0 / (1.0 + np.arange(ell, stop) / config.ell0)
            g = replay.steps(g, costs[ell - first:stop - first], taus)
            ell = stop
            if ell % every == 0 or ell == n_iter:
                counts = np.bincount(np.argmin(heldout_costs - g, axis=1),
                                     minlength=problem.m)
                err = float(np.abs(counts / heldout.shape[0] - b).sum())
                trace.append(SGDTraceRecord(ell, float(taus[-1]), err))
    return g, trace


@dataclass(frozen=True)
class LloydConfig:
    """Iteration budget and sampling plan for Lloyd quantization."""

    n_iter: int
    seed: int
    n_samples: int = 20000

    def __post_init__(self):
        for name, low in (("n_iter", 0), ("seed", 0), ("n_samples", 1)):
            object.__setattr__(self, name,
                               as_integer(getattr(self, name), name, low))


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
    m = as_integer(m, "m", low=1)
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
