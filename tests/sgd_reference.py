"""The per-step semi-dual SGD loop, kept as a differential reference.

This is `otkit.semidiscrete.sgd_solve` as it was before the costs of a
drawn batch were built as one matrix: every step builds a validated
`LaguerreAssignment` and a 1 x m cost matrix for its one sample.  It is
slow and it is not used by the package; ``tests/test_semidiscrete.py``
fuzzes the package loop against it.
"""

from typing import List, Tuple

import numpy as np

from otkit.semidiscrete import (LaguerreAssignment, SemiDiscreteProblem,
                                SGDConfig, SGDTraceRecord)


def sgd_solve(problem: SemiDiscreteProblem,
              config: SGDConfig) -> Tuple[np.ndarray, List[SGDTraceRecord]]:
    """Stochastic semi-dual ascent from g = 0.

    Each step draws one source point, finds its Laguerre cell j, and
    moves g by tau_ell (b - e_j).  The trace reports the l1 mismatch
    between held-out cell frequencies and the target weights.
    """
    walk_seed, heldout_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(walk_seed)
    heldout = problem.sampler.draw(np.random.default_rng(heldout_seed),
                                   config.heldout_samples)
    b = problem.target_weights
    g = np.zeros(problem.m)
    trace = []
    batch = 256
    drawn = problem.sampler.draw(rng, batch)
    cursor = 0
    for ell in range(config.n_iter):
        if cursor == drawn.shape[0]:
            drawn = problem.sampler.draw(rng, batch)
            cursor = 0
        x = drawn[cursor:cursor + 1]
        cursor += 1
        cells = LaguerreAssignment(problem, g)
        j = int(cells.membership(x)[0])
        tau = config.tau0 / (1.0 + ell / config.ell0)
        g = g + tau * b
        g[j] -= tau
        if (ell + 1) % config.eval_every == 0 or ell + 1 == config.n_iter:
            counts = np.bincount(LaguerreAssignment(problem, g)
                                 .membership(heldout), minlength=problem.m)
            err = float(np.abs(counts / heldout.shape[0] - b).sum())
            trace.append(SGDTraceRecord(ell + 1, tau, err))
    return g, trace
