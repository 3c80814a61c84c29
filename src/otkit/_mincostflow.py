"""Min-cost flow on integer supplies: successive shortest paths in phases.

Supplies are int64 and flows stay integral, so conservation at every node
is exact.  One loop, `_successive_shortest_paths`, runs primal-dual
successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*,
sections 9.7-9.8) in phases: one shortest-path search from all sources
over the clamped reduced costs, the update ``pot += min(dist, D)``, D the
largest finite label, which makes every arc of the search tree tight,
then pushes to the reachable sinks in (distance, index) order along their
tree paths while each path is intact: its root has excess left and each
reversed arc on it still carries flow.  The nearest sink's path always
is, so a phase that pushes nothing means a broken search and raises.
The returned duals are the final potentials, and ``augmentations``
counts pushes, several per phase.

One loop, one search: `solve_min_cost_flow`, on directed, uncapacitated
arc lists, hands the loop one compiled `scipy.sparse.csgraph.dijkstra`
per phase.  The Wasserstein-1 norms (Kantorovich-Rubinstein, flat norm,
Beckmann) call it directly.  `solve_transportation`, behind the exact
Kantorovich and assignment solvers, calls it on the complete bipartite
graph of an n x m cost matrix, arcs numbered row-major, then cancels the
cycles of the optimal support with `scipy.sparse.csgraph`, so the plan is
a vertex of the transportation polytope.

Arc costs must be nonnegative, so zero potentials start the loop.  The
transportation LP is unchanged by ``C_ij -> C_ij - s_i`` with
``f_i -> f_i - s_i``, so `solve_transportation` subtracts
``s_i = min(0, min_j C_ij)`` from row i and adds it back to ``f_i``.

Where shortest paths tie, the engine may return another optimal flow
than the one-push-per-search heap loop kept as
``tests/mincostflow_reference.py``, and other potentials.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "MinCostFlowResult",
    "solve_min_cost_flow",
    "quantize_simplex",
    "quantize_balanced",
    "solve_transportation",
]


class MinCostFlowResult(NamedTuple):
    flows: np.ndarray
    potentials: np.ndarray
    cost: float
    augmentations: int
    status: str


def solve_min_cost_flow(n_nodes, tails, heads, costs, supplies):
    """Route integer supplies at minimum cost through a directed graph.

    Parameters
    ----------
    n_nodes : int
    tails, heads : array_like of int, shape (n_arcs,)
        Arc endpoints; arcs are uncapacitated in the forward direction.
    costs : array_like of float, shape (n_arcs,)
        Per-unit arc costs, finite and nonnegative (`solve_transportation`
        shifts the rows of a cost matrix with negative entries).
    supplies : array_like of int, shape (n_nodes,)
        Positive entries are sources, negative are sinks; must sum to 0.

    Returns
    -------
    MinCostFlowResult
        ``flows`` per arc (int64), node ``potentials`` such that
        ``cost + pot[tail] - pot[head] >= 0`` with equality on arcs
        carrying flow, total ``cost``, the number of pushes, and status
        "optimal" or "infeasible".

    Raises
    ------
    ValidationError
        On malformed input, a negative arc cost included.
    ConvergenceError
        If the pushes exceed ``1000 + 40 (n_nodes + n_arcs)``.

    Notes
    -----
    The search is one compiled Dijkstra over one CSR matrix with a slot
    for every (tail, head) pair of an arc or of its reverse; parallel
    arcs share a slot.  A phase writes each slot's smallest clamped
    reduced cost into the matrix and maps each tree edge back to the
    first arc that attains it, so a path keeps to the arc that was tight
    when the phase began (a parallel arc that is not tight never stands
    in for it).  Where every slot holds one arc or one reverse, as on a
    complete bipartite graph, the lengths go into the matrix as they are
    and each slot maps to its one candidate.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

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
    if not np.all(np.isfinite(costs) & (costs >= 0.0)):
        raise ValidationError("arc costs must be finite and nonnegative")
    if n_arcs and (tails.min() < 0 or heads.max() >= n_nodes or
                   heads.min() < 0 or tails.max() >= n_nodes):
        raise ValidationError("arc endpoints out of range")

    # Candidate k < n_arcs is arc k, candidate n_arcs + k its reverse.
    # Sorted by slot key, then by k: the order a heap Dijkstra scans them.
    key = np.concatenate([tails * n_nodes + heads, heads * n_nodes + tails])
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes)
    G = csr_matrix((np.zeros(keys.size), (keys % n_nodes).astype(np.int32),
                    indptr.astype(np.int32)), shape=(n_nodes, n_nodes))

    if keys.size == key.size:
        # One candidate per slot, as on a complete bipartite graph.
        def slot_lengths(rc):
            return rc, order
    else:
        slot_of = np.repeat(np.arange(keys.size),
                            np.diff(np.append(starts, key.size)))

        def slot_lengths(rc):
            shortest = np.minimum.reduceat(rc, starts)
            # The first candidate of each slot that attains its minimum.
            first = np.flatnonzero(rc == shortest[slot_of])
            return shortest, order[first[np.searchsorted(first, starts)]]

    def search(fwd, back, sources):
        lengths, arc_of_slot = slot_lengths(np.concatenate([fwd, back])[order])
        G.data[:] = lengths
        dist, pred, _ = dijkstra(G, indices=np.flatnonzero(sources),
                                 min_only=True, return_predecessors=True)
        tree = np.flatnonzero(pred >= 0)
        via = np.full(n_nodes, -1)
        slot = np.searchsorted(keys, pred[tree] * np.int64(n_nodes) + tree)
        via[tree] = arc_of_slot[slot]
        return dist, pred, via

    flows, pot, pushes, status = _successive_shortest_paths(
        tails, heads, costs, supplies, search, _push_budget(n_nodes, n_arcs))
    total = float(np.dot(flows.astype(float), costs))
    return MinCostFlowResult(flows, pot, total, pushes, status)


def _successive_shortest_paths(tails, heads, costs, supplies, search,
                               max_pushes):
    """The phase loop of `solve_min_cost_flow`; see the module docstring.

    Arc k runs ``tails[k] -> heads[k]`` and k + n_arcs is its reverse.
    ``search(fwd, back, sources)`` gets the clamped reduced costs of the
    arcs and of their reverses (+inf for a reverse without flow) and the
    mask of nodes with excess left.  It returns per node the label (+inf
    if unreached), the tree predecessor (negative at a root or if
    unreached) and the arc, k or k + n_arcs, that reaches the node.

    Returns the int64 flow per arc, the potentials, the number of pushes
    and "optimal" or "infeasible"; raises `ConvergenceError` rather than
    push more than ``max_pushes`` times or run a phase that reaches a
    sink and pushes nothing.
    """
    n_arcs = tails.shape[0]
    flow = np.zeros(n_arcs, dtype=np.int64)
    excess = supplies.copy()
    pot = np.zeros(supplies.shape[0])
    pushes = 0
    while True:
        sources = excess > 0
        if not sources.any():
            return flow, pot, pushes, "optimal"
        red = costs + pot[tails] - pot[heads]
        dist, pred, via = search(
            np.maximum(red, 0.0),
            np.where(flow > 0, np.maximum(-red, 0.0), np.inf), sources)
        sinks = np.flatnonzero((excess < 0) & np.isfinite(dist))
        if sinks.size == 0:
            return flow, pot, pushes, "infeasible"
        pot += np.minimum(dist, dist[np.isfinite(dist)].max())
        pred, via = pred.tolist(), via.tolist()
        pushes_before = pushes

        for t in sinks[np.argsort(dist[sinks], kind="stable")].tolist():
            bottleneck = -excess[t]
            path = []
            s = t
            while pred[s] >= 0:
                k = via[s]
                if k >= n_arcs:
                    bottleneck = min(bottleneck, flow[k - n_arcs])
                path.append(k)
                s = pred[s]
            bottleneck = min(bottleneck, excess[s])
            if bottleneck <= 0:
                continue
            if pushes >= max_pushes:
                raise ConvergenceError(
                    f"min-cost flow exceeded {max_pushes} pushes"
                )
            for k in path:
                if k >= n_arcs:
                    flow[k - n_arcs] -= bottleneck
                else:
                    flow[k] += bottleneck
            excess[s] -= bottleneck
            excess[t] += bottleneck
            pushes += 1
        if pushes == pushes_before:
            raise ConvergenceError("a min-cost flow phase pushed nothing")


def _push_budget(n_nodes, n_arcs):
    """Default cap on the pushes of one min-cost flow solve."""
    return 1000 + 40 * (n_nodes + n_arcs)


def quantize_simplex(weights, scale):
    """Largest-remainder rounding of a probability vector to integers.

    Returns int64 values summing exactly to ``scale``; each entry deviates
    from ``weights * scale`` by less than 1, and zero weights stay zero.
    """
    w = np.asarray(weights, dtype=float)
    t = w * scale
    base = np.floor(t).astype(np.int64)
    frac = t - base
    deficit = int(scale - base.sum())
    if deficit > 0:
        candidates = np.flatnonzero(w > 0)
        order = candidates[np.argsort(-frac[candidates], kind="stable")]
        if order.size < deficit:
            raise ValidationError("weights do not sum to 1 closely enough to quantize")
        base[order[:deficit]] += 1
    elif deficit < 0:
        candidates = np.flatnonzero(base > 0)
        order = candidates[np.argsort(frac[candidates], kind="stable")]
        if order.size < -deficit:
            raise ValidationError("weights do not sum to 1 closely enough to quantize")
        base[order[:-deficit]] -= 1
    return base


def quantize_balanced(masses, scale):
    """Round signed masses to integers that sum exactly to zero.

    Nearest-integer rounding followed by +/-1 corrections applied to the
    entries of largest magnitude (stable order).  Input must be close to
    zero-sum; corrections never exceed one unit per entry beyond rounding.
    """
    m = np.asarray(masses, dtype=float)
    t = m * scale
    base = np.rint(t).astype(np.int64)
    residual = int(base.sum())
    if residual != 0:
        order = np.argsort(-np.abs(t), kind="stable")
        base[order[: abs(residual)]] += -1 if residual > 0 else 1
    return base


def solve_transportation(a_int, b_int, C):
    """Exact transportation LP with integer marginals.

    Runs `solve_min_cost_flow` on the complete bipartite graph of ``C``:
    arc ``i*m + j`` runs from row i to column n + j, so the flow is the
    raveled plan.  Where the optimal plan is unique it is the one the
    heap loop ``tests/mincostflow_reference.py`` finds; the duals are the
    final potentials.  `_cancel_support_cycles` then makes an optimal
    plan's support a forest (at most n + m - 1 positive entries).

    Costs may have any sign: row i is solved at ``C_ij - s_i``, with
    ``s_i = min(0, min_j C_ij)``, and ``s_i`` is added back to ``f_i``.

    Parameters
    ----------
    a_int, b_int : int64 arrays with equal positive sums.
    C : float cost matrix, shape (n, m).

    Returns
    -------
    (plan_int, f, g, pushes, status)
        Integer plan with exact marginals, dual potentials satisfying
        ``f_i + g_j <= C_ij`` with equality on the support, the number of
        pushes, and status "optimal" or "infeasible".
    """
    a_int = np.asarray(a_int, dtype=np.int64)
    b_int = np.asarray(b_int, dtype=np.int64)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    if a_int.shape != (n,) or b_int.shape != (m,):
        raise ValidationError("marginal lengths do not match the cost matrix")
    if int(a_int.sum()) != int(b_int.sum()):
        raise ValidationError("integer marginals are unbalanced")
    # s_i is +0.0 on a row without a negative cost, so its costs and its
    # f_i (which may hold -0.0) keep their bits.
    low = C.min(axis=1, initial=0.0)
    shift = np.where(low < 0.0, low, 0.0)
    res = solve_min_cost_flow(
        n + m, np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n),
        (C - shift[:, None]).ravel(), np.concatenate([a_int, -b_int]))
    plan_int = res.flows.reshape(n, m)
    if res.status == "optimal":
        plan_int = _cancel_support_cycles(plan_int, C)
    f = np.where(shift < 0.0, shift - res.potentials[:n], -res.potentials[:n])
    return plan_int, f, res.potentials[n:], res.augmentations, res.status


def components(n_nodes, tails, heads):
    """Connected components of the undirected graph of the given edges.

    Edge k joins nodes ``tails[k]`` and ``heads[k]``.  Returns the graph
    as an (n_nodes, n_nodes) CSR matrix holding a 1 at
    ``(tails[k], heads[k])`` for every k, rows filled in edge order, the
    number of components and each node's component label, 0, 1, ....
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    order = np.argsort(tails, kind="stable")
    graph = csr_matrix((np.ones(order.size), heads[order],
                        np.searchsorted(tails[order], np.arange(n_nodes + 1))),
                       shape=(n_nodes, n_nodes))
    count, labels = connected_components(graph, directed=False)
    return graph, count, labels


def support_graph(support):
    """Support graph of a boolean (n, m) mask and whether it is a forest.

    Row i is node i, column j node n + j and a True entry (i, j) the edge
    stored at (i, n + j).  A forest has #edges = #nodes - #components.
    """
    n, m = support.shape
    rows, cols = np.nonzero(support)
    graph, count, _ = components(n + m, rows, n + cols)
    return graph, rows.size == n + m - count


def _cancel_support_cycles(plan_int, C):
    """Remove cycles from a bipartite support by pushing along them.

    At optimality every support cycle has zero cost (up to rounding); each
    push, in the direction whose cost change is <= 0, empties an entry and
    fills none, so more than nnz(plan) pushes means a broken cycle search.
    """
    plan = plan_int.copy()
    budget = int(np.count_nonzero(plan))
    for _ in range(budget + 1):
        cycle = _support_cycle(plan)
        if cycle is None:
            return plan
        # A push raises the forward entries and lowers the others.
        rows, cols, forward = cycle
        cost = C[rows, cols]
        if cost[forward].sum() - cost[~forward].sum() > 0.0:
            forward = ~forward
        push = plan[rows[~forward], cols[~forward]].min()
        plan[rows, cols] += np.where(forward, push, -push)
    raise ConvergenceError(
        f"support still has a cycle after {budget} cycle-cancelling pushes"
    )


def _support_cycle(plan):
    """One cycle of the support of ``plan``, or None if it is a forest.

    The first positive entry, in row-major order, that a spanning forest
    of the support leaves out closes a cycle with the forest path between
    its ends.  Returns the entries met walking the cycle from that entry's
    row as arrays ``rows, cols, forward``, forward if walked row -> column.
    """
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

    graph, forest = support_graph(plan > 0)
    if forest:
        return None
    tree = minimum_spanning_tree(graph)
    rows, cols = (graph - tree).nonzero()
    i, v = rows[0], cols[0]
    pred = breadth_first_order(tree, i, directed=False,
                               return_predecessors=True)[1]
    walk = [i, v]
    while walk[-1] != i:
        walk.append(pred[walk[-1]])
    tail, head = np.array(walk[:-1]), np.array(walk[1:])
    n = plan.shape[0]
    return np.minimum(tail, head), np.maximum(tail, head) - n, tail < n
