#!/usr/bin/env python3
"""Exact solvers on small instances.

Solves a random assignment problem by brute force and through the
network flow solver, then relaxes to general marginals and shows the
plan, the optimal cost, and the Wasserstein distances of order 1, 2, 3
side by side.
"""

import argparse
import itertools

import numpy as np
from scipy.spatial.distance import cdist

from otkit.exact import solve_assignment, solve_kantorovich, wasserstein_p


def brute_force(C):
    n = C.shape[0]
    rows = np.arange(n)
    return min(float(C[rows, perm].sum()) / n
               for perm in itertools.permutations(range(n)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.n, 2))
    y = rng.standard_normal((args.n, 2)) + np.array([1.0, 0.5])
    C = cdist(x, y, "sqeuclidean")

    res = solve_assignment(C)
    print(f"assignment: permutation {res.permutation.tolist()}")
    print(f"  mean cost      {res.cost:.10f}")
    print(f"  brute force    {brute_force(C):.10f}")

    a = rng.dirichlet(np.ones(args.n))
    b = rng.dirichlet(np.ones(args.n))
    lp = solve_kantorovich(a, b, C)
    print(f"\ngeneral marginals: cost {lp.cost:.10f} "
          f"({lp.iterations} pushes, {lp.status})")
    print("plan (rows = sources):")
    with np.printoptions(precision=4, suppress=True):
        print(lp.coupling.plan)

    # The metric solver wants one metric space carrying both measures,
    # so stack the clouds and pad the weight vectors with zeros.
    pts = np.vstack([x, y])
    D = cdist(pts, pts)
    a_full = np.concatenate([a, np.zeros(args.n)])
    b_full = np.concatenate([np.zeros(args.n), b])
    print("\ndistances on the same pair of clouds:")
    for p in (1, 2, 3):
        print(f"  W_{p} = {wasserstein_p(a_full, b_full, D, p):.8f}")


if __name__ == "__main__":
    main()
