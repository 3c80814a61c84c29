"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: exhaustive permutation search,
transport-polytope vertex enumeration by spanning-tree bases, quadruple-loop
kernel sums, and textbook integrators.  Test modules compare the package
against these, never the other way around.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog


def brute_force_assignment(C):
    """Minimal mean assignment cost by trying all n! permutations."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    best_cost = math.inf
    best_perm = None
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        cost = float(C[rows, perm].sum()) / n
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return np.asarray(best_perm), best_cost


def hungarian_mean_cost(C):
    """Mean assignment cost via scipy's Hungarian solver."""
    C = np.asarray(C, dtype=float)
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].sum()) / C.shape[0]


def _tree_flows(n, m, edges, a, b):
    """Flows on a spanning tree of K_{n,m} by leaf elimination.

    Returns the per-edge flow array, or None if the edge set is not a
    spanning tree (cycle or disconnected).
    """
    n_nodes = n + m
    adj = [[] for _ in range(n_nodes)]
    for e, (i, j) in enumerate(edges):
        adj[i].append((e, n + j))
        adj[n + j].append((e, i))
    if len(edges) != n_nodes - 1:
        return None
    residual = np.concatenate([a, -np.asarray(b, dtype=float)]).astype(float)
    degree = np.array([len(lst) for lst in adj])
    if np.any(degree == 0):
        return None
    used = np.zeros(len(edges), dtype=bool)
    flows = np.zeros(len(edges))
    leaves = [v for v in range(n_nodes) if degree[v] == 1]
    removed = np.zeros(n_nodes, dtype=bool)
    for _ in range(n_nodes - 1):
        if not leaves:
            return None  # cycle present
        v = leaves.pop()
        if removed[v]:
            continue
        edge = next(((e, w) for e, w in adj[v] if not used[e]), None)
        if edge is None:
            return None
        e, w = edge
        used[e] = True
        # Positive flow runs row -> column.
        flows[e] = residual[v] if v < n else -residual[v]
        residual[w] += residual[v]
        residual[v] = 0.0
        removed[v] = True
        degree[w] -= 1
        degree[v] -= 1
        if degree[w] == 1:
            leaves.append(w)
    return flows


def vertex_enumeration_cost(a, b, C, atol=1e-12):
    """LP optimum as the best feasible spanning-tree basic solution.

    Enumerates all (n*m choose n+m-1) edge subsets, keeps those that form
    a spanning tree with nonnegative tree flows, and minimizes the cost.
    Only sensible for very small n, m.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    best = math.inf
    for edges in itertools.combinations(all_edges, n + m - 1):
        flows = _tree_flows(n, m, edges, a, b)
        if flows is None or np.any(flows < -atol):
            continue
        cost = float(sum(f * C[i, j] for f, (i, j) in zip(flows, edges)))
        best = min(best, cost)
    return best


def linprog_transport_cost(a, b, C):
    """Transport LP via scipy's HiGHS solver on the flattened plan."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([a, b])
    res = linprog(C.reshape(-1), A_eq=A_eq, b_eq=b_eq, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def floyd_warshall(W):
    """All-pairs shortest path lengths by Floyd-Warshall, no graph library.

    ``W[u, v]`` is the length of the arc u -> v, inf where there is none;
    the diagonal is taken as 0.  The two inner loops of the textbook
    triple loop are one numpy broadcast per intermediate node.
    """
    D = np.array(W, dtype=float)
    np.fill_diagonal(D, 0.0)
    for k in range(D.shape[0]):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def w1_piecewise_integral(xa, wa, xb, wb, n_grid=200001):
    """W1 between 1-D atoms by midpoint quadrature of |F_a - F_b|.

    Independent of the package's breakpoint formula; accuracy is limited
    by the grid, so use loose tolerances.
    """
    lo = min(xa.min(), xb.min()) - 1.0
    hi = max(xa.max(), xb.max()) + 1.0
    xs = np.linspace(lo, hi, n_grid)
    mids = 0.5 * (xs[:-1] + xs[1:])
    Fa = np.array([wa[xa <= x].sum() for x in mids])
    Fb = np.array([wb[xb <= x].sum() for x in mids])
    return float(np.sum(np.abs(Fa - Fb)) * (hi - lo) / (n_grid - 1))


def mmd_squared_quadruple(xa, wa, xb, wb, kernel):
    """Quadruple-loop MMD^2 with an explicit scalar kernel callable."""
    total = 0.0
    for i in range(len(wa)):
        for j in range(len(wa)):
            total += wa[i] * wa[j] * kernel(xa[i], xa[j])
    for i in range(len(wb)):
        for j in range(len(wb)):
            total += wb[i] * wb[j] * kernel(xb[i], xb[j])
    for i in range(len(wa)):
        for j in range(len(wb)):
            total -= 2.0 * wa[i] * wb[j] * kernel(xa[i], xb[j])
    return total


def rk4_integrate(f, y0, t0, t1, n_steps):
    """Classical fixed-step Runge-Kutta 4 for dy/dt = f(t, y)."""
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y
