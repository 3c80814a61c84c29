"""The heap min-cost flow loop, kept as a differential reference.

One augmentation per Dijkstra: a heap Dijkstra on clamped reduced costs
from all sources, the Johnson update ``pot += min(dist, d_t)`` with d_t
the nearest sink's label (lowest index on ties), and one push along that
sink's path.  Arc lists are built by a Python loop, every label and
potential is a numpy scalar, and each Dijkstra runs until the heap is
empty.  It is slow and it is not used by the package.
``tests/test_mincostflow.py`` and ``tests/test_exact.py`` fuzz the one
phase loop and csgraph search of `otkit._mincostflow` against it,
through both of its entry points: `solve_min_cost_flow` on arc lists and
`solve_transportation` on the complete bipartite graph.  It accepts
costs of any sign, starting from Bellman-Ford potentials, where the
package's flow layer takes only nonnegative costs.
"""

import heapq

import numpy as np

from otkit._mincostflow import MinCostFlowResult
from otkit.errors import ConvergenceError, ValidationError


def solve_min_cost_flow(n_nodes, tails, heads, costs, supplies, max_augmentations=None):
    """Route integer supplies at minimum cost through a directed graph.

    Parameters
    ----------
    n_nodes : int
    tails, heads : array_like of int, shape (n_arcs,)
        Arc endpoints; arcs are uncapacitated in the forward direction.
    costs : array_like of float, shape (n_arcs,)
        Per-unit arc costs (any sign; negative costs trigger a
        Bellman-Ford potential initialization).
    supplies : array_like of int, shape (n_nodes,)
        Positive entries are sources, negative are sinks; must sum to 0.

    Returns
    -------
    MinCostFlowResult
        ``flows`` per arc (int64), node ``potentials`` such that
        ``cost + pot[tail] - pot[head] >= 0`` with equality on arcs
        carrying flow, total ``cost``, the number of augmentations, and
        status "optimal" or "infeasible".
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    costs = np.asarray(costs, dtype=float)
    supplies = np.asarray(supplies, dtype=np.int64)
    n_arcs = tails.shape[0]
    if heads.shape[0] != n_arcs or costs.shape[0] != n_arcs:
        raise ValidationError("tails, heads, and costs must have equal length")
    if supplies.shape[0] != n_nodes:
        raise ValidationError("supplies length must equal n_nodes")
    if int(supplies.sum()) != 0:
        raise ValidationError("supplies must sum to zero")
    if not np.all(np.isfinite(costs)):
        raise ValidationError("arc costs must be finite")
    if n_arcs and (tails.min() < 0 or heads.max() >= n_nodes or
                   heads.min() < 0 or tails.max() >= n_nodes):
        raise ValidationError("arc endpoints out of range")

    out_arcs = [[] for _ in range(n_nodes)]
    in_arcs = [[] for _ in range(n_nodes)]
    for a in range(n_arcs):
        out_arcs[tails[a]].append(a)
        in_arcs[heads[a]].append(a)

    flow = np.zeros(n_arcs, dtype=np.int64)
    pot = np.zeros(n_nodes, dtype=float)
    excess = supplies.astype(np.int64).copy()

    if n_arcs and costs.min() < 0.0:
        pot = _bellman_ford_potentials(n_nodes, tails, heads, costs)

    if max_augmentations is None:
        max_augmentations = 1000 + 40 * (n_nodes + n_arcs)

    augmentations = 0
    while True:
        sources = np.flatnonzero(excess > 0)
        if sources.size == 0:
            status = "optimal"
            break
        if augmentations >= max_augmentations:
            raise ConvergenceError(
                f"min-cost flow exceeded {max_augmentations} augmentations"
            )

        dist = np.full(n_nodes, np.inf)
        prev_arc = np.full(n_nodes, -1, dtype=np.int64)
        prev_back = np.zeros(n_nodes, dtype=bool)
        heap = [(0.0, int(s)) for s in sources]
        heapq.heapify(heap)
        dist[sources] = 0.0
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for a in out_arcs[u]:
                rc = costs[a] + pot[u] - pot[heads[a]]
                v = int(heads[a])
                nd = d + max(rc, 0.0)
                if nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = a
                    prev_back[v] = False
                    heapq.heappush(heap, (nd, v))
            for a in in_arcs[u]:
                if flow[a] <= 0:
                    continue
                rc = -costs[a] + pot[u] - pot[tails[a]]
                v = int(tails[a])
                nd = d + max(rc, 0.0)
                if nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = a
                    prev_back[v] = True
                    heapq.heappush(heap, (nd, v))

        sinks = np.flatnonzero(excess < 0)
        reachable = sinks[np.isfinite(dist[sinks])]
        if reachable.size == 0:
            status = "infeasible"
            break
        t = int(reachable[np.argmin(dist[reachable])])
        d_t = dist[t]
        pot += np.minimum(dist, d_t)

        # Walk back from the sink until a node with positive excess; every
        # shortest-path tree root is a source, so the walk terminates.
        path = []
        v = t
        while excess[v] <= 0:
            a = int(prev_arc[v])
            back = bool(prev_back[v])
            path.append((a, back))
            v = int(heads[a]) if back else int(tails[a])
        s = v
        bottleneck = min(int(excess[s]), int(-excess[t]))
        for a, back in path:
            if back:
                bottleneck = min(bottleneck, int(flow[a]))
        for a, back in path:
            flow[a] += -bottleneck if back else bottleneck
        excess[s] -= bottleneck
        excess[t] += bottleneck
        augmentations += 1

    cost = float(np.dot(flow.astype(float), costs))
    return MinCostFlowResult(flow, pot, cost, augmentations, status)


def _bellman_ford_potentials(n_nodes, tails, heads, costs):
    """Feasible potentials for graphs with negative arc costs."""
    pot = np.zeros(n_nodes)
    for _ in range(n_nodes):
        new = pot.copy()
        np.minimum.at(new, heads, pot[tails] + costs)
        if np.array_equal(new, pot):
            break
        pot = new
    else:
        raise ValidationError("negative-cost cycle detected")
    return pot
