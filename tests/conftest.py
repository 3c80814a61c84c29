"""Shared random-instance generators for the test suite."""

import numpy as np
import pytest
from scipy.special import logsumexp

DENOM = 10**9


def random_simplex(rng, n):
    """A generic probability vector with strictly positive entries."""
    w = rng.exponential(size=n) + 1e-3
    return w / w.sum()


def rational_simplex(rng, n):
    """A probability vector whose entries are exact multiples of 1e-9.

    Such weights survive the solvers' integer scaling without any
    perturbation, so LP optima can be compared to oracles at tight
    tolerances.
    """
    counts = rng.multinomial(DENOM, random_simplex(rng, n))
    if np.any(counts == 0):
        counts = counts + 1
        counts[np.argmax(counts)] -= n
    return counts / DENOM


def random_points(rng, n, d, spread=1.0):
    return spread * rng.standard_normal((n, d))


def random_spd(rng, d, scale=1.0):
    """A well-conditioned random symmetric positive definite matrix."""
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T + d * np.eye(d))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def full_iterates(state, count):
    """The (f, g) pair before and after each of ``count`` full iterations.

    A Sinkhorn run that stopped before ``count`` iterations as optimal sits
    at a fixed point (see `f_update_gap`), so its final pair stands in for
    the iterates it did not take.  Needs ``record_history=True``.
    """
    history = state.history
    return [history[min(2 * k, len(history) - 1)] for k in range(count + 1)]


def f_update_gap(b, C, f, g, eps):
    """How far one more f update from g moves f."""
    f_next = -eps * logsumexp((g[None, :] - C) / eps, b=b[None, :], axis=1)
    return float(np.abs(f_next - f).max())


def potential_plan(a, b, C, f, g, eps):
    """The plan a_i b_j exp((f_i + g_j - C_ij) / eps) of reported Sinkhorn
    potentials, zero off the support of (a, b).  Plain numpy, so that it
    checks the solver rather than repeats it."""
    support = (a > 0)[:, None] & (b > 0)[None, :]
    with np.errstate(over="ignore", under="ignore"):
        P = a[:, None] * b[None, :] * np.exp((f[:, None] + g[None, :] - C)
                                             / eps)
    return np.where(support, P, 0.0)


def l1_violations(P, a, b):
    """The L1 distances of the plan's row and column sums to (a, b)."""
    return (float(np.abs(P.sum(axis=1) - a).sum()),
            float(np.abs(P.sum(axis=0) - b).sum()))


def exponent_rounding(a, b, C, f, g, eps):
    """A bound on the relative rounding of a plan entry rebuilt from (f, g).

    An entry is exp((f_i + g_j - C_ij) / eps); its exponent, and the
    solver's own from the potentials it absorbed, carry rounding errors of
    a few units in the last place of (|f_i| + |g_j| + |C_ij|) / eps, and the
    entry carries the same relative error.  64 units in the last place
    leave room for the few operations on either side.
    """
    support = (a > 0)[:, None] & (b > 0)[None, :]
    size = np.abs(f)[:, None] + np.abs(g)[None, :] + np.abs(C)
    return 64 * np.finfo(float).eps * (1.0 + float(size[support].max()) / eps)
