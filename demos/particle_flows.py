#!/usr/bin/env python3
"""Particle systems driven by energy gradients.

Three short runs: a pairwise quadratic attraction whose deviations
from the mean decay at a known exponential rate, the Shannon entropy
flow on a grid reproducing heat diffusion, and token dynamics under
softmax attention with a permutation test.
"""

import argparse

import numpy as np

from otkit.dynamics import (
    FunctionalSpec,
    GeneralizedEntropy,
    entropy_flow_1d,
    gradient_flow,
    transformer_flow,
)
from otkit.measures import GridDensity1D


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    quad = FunctionalSpec.interaction(
        lambda x, y: 0.5 * ((x - y) ** 2).sum(axis=-1),
        lambda x, y: x - y, dim=2)
    x0 = rng.standard_normal((5, 2))
    traj = gradient_flow(quad, x0, dt=1e-3, T=1.0)
    dev0 = np.abs(x0 - x0.mean(axis=0)).max()
    print("quadratic attraction, deviation from the mean:")
    for k in (0, 250, 500, 1000):
        t = traj.times[k]
        dev = np.abs(traj.states[k] - traj.states[k].mean(axis=0)).max()
        print(f"  t={t:4.2f}  max dev {dev:.6f}  "
              f"exp(-2t) * initial {np.exp(-2 * t) * dev0:.6f}")

    grid = np.linspace(-3.0, 3.0, 301)
    var0 = 0.09
    rho0 = GridDensity1D(grid, np.exp(-grid ** 2 / (2 * var0))
                         / np.sqrt(2 * np.pi * var0))
    path = entropy_flow_1d(rho0, GeneralizedEntropy.shannon(),
                           dt=1.25e-4, T=0.1)
    h = grid[1] - grid[0]
    widths = np.full(grid.shape, h)
    widths[0] = widths[-1] = 0.5 * h
    print("\nShannon entropy flow is heat flow (variance grows by 2t):")
    for idx in (0, len(path.times) // 2, len(path.times) - 1):
        t = path.times[idx]
        var = float(np.sum(path.densities[idx] * grid ** 2 * widths))
        print(f"  t={t:5.3f}  variance {var:.5f}  "
              f"predicted {var0 + 2 * t:.5f}")

    tokens = rng.standard_normal((6, 3))
    Q = 0.4 * rng.standard_normal((3, 2))
    K = 0.4 * rng.standard_normal((3, 2))
    V = 0.4 * rng.standard_normal((3, 3))
    out = transformer_flow(tokens, Q, K, V, depth=32)
    perm = rng.permutation(6)
    out_perm = transformer_flow(tokens[perm], Q, K, V, depth=32)
    same = np.array_equal(out_perm.states, out.states[:, perm, :])
    print("\nattention dynamics:")
    print(f"  token spread before {np.std(tokens):.4f} "
          f"after {np.std(out.final_state):.4f}")
    print(f"  permutation equivariance holds bitwise: {same}")


if __name__ == "__main__":
    main()
