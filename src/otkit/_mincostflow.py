"""Min-cost flow on integer supplies: successive shortest paths in phases.

Supplies are int64 and flows stay integral, so conservation at every node
is exact.  One loop, `_successive_shortest_paths`, runs primal-dual
successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*,
sections 9.7-9.8) in phases: one shortest-path search from all sources
over the clamped reduced costs, the update ``pot += min(dist, D)``, D the
largest finite label, which makes every arc of the search tree tight,
then pushes to the reachable sinks in (distance, index) order along their
tree paths while each path is intact: its root has excess left and each
reversed arc on it still carries flow (a walk stops at the first one
that does not).  The nearest sink's path always is, so a phase that
pushes nothing means a broken search and raises.  The returned duals
are the final potentials, and ``augmentations`` counts pushes, several
per phase.

One loop, one search: `solve_min_cost_flow`, on directed, uncapacitated
arc lists, hands the loop one compiled `scipy.sparse.csgraph.dijkstra`
per phase.  The Wasserstein-1 norms (Kantorovich-Rubinstein, flat norm,
Beckmann) call it directly.  `solve_transportation`, behind the exact
Kantorovich and assignment solvers, calls it on the complete bipartite
graph of an n x m cost matrix, arcs numbered row-major, then cancels the
cycles of the optimal support with `scipy.sparse.csgraph`, so the plan is
a vertex of the transportation polytope.  `solve_min_cost_flow`
recognises that arc list and writes each phase's lengths into the
search's matrix in place (`_bipartite_search`); any other arc list takes
the general slot path (`_slot_search`), which sorts and gathers them.
On the same graph both give the same bits.

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
        carrying flow, total ``cost`` (inf past the float range), the
        number of pushes, and status "optimal" or "infeasible".

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
    in for it).  The complete bipartite graph of `solve_transportation`
    has one arc or one reverse per slot, and the same matrix: there the
    lengths are written into (n, m) blocks of it in place, and each tree
    edge's arc is computed from its ends.
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
    if not np.all(np.isfinite(costs) & (costs >= 0.0)):
        raise ValidationError("arc costs must be finite and nonnegative")
    if n_arcs and (tails.min() < 0 or heads.max() >= n_nodes or
                   heads.min() < 0 or tails.max() >= n_nodes):
        raise ValidationError("arc endpoints out of range")

    n = _bipartite_rows(n_nodes, tails, heads)
    if n:
        search = _bipartite_search(n, n_nodes - n, costs)
    else:
        search = _slot_search(n_nodes, tails, heads, costs)
    flows, pot, pushes, status = _successive_shortest_paths(
        n_arcs, supplies, search, _push_budget(n_nodes, n_arcs))
    # A total past the float range is inf; the exact LP does not read it.
    with np.errstate(over="ignore"):
        total = float(np.dot(flows.astype(float), costs))
    return MinCostFlowResult(flows, pot, total, pushes, status)


def _bipartite_rows(n_nodes, tails, heads):
    """n if the arcs are those of `solve_transportation`, else 0.

    That is the complete bipartite graph from n rows to m = n_nodes - n
    columns, arc ``i*m + j`` running from node i to node n + j.
    """
    n = int(tails[-1]) + 1 if tails.size else n_nodes
    m = n_nodes - n
    if (m < 1 or n * m != tails.size
            or np.any(tails.reshape(n, m) != np.arange(n)[:, None])
            or np.any(heads.reshape(n, m) != np.arange(n, n_nodes))):
        return 0
    return n


def _slot_search(n_nodes, tails, heads, costs):
    """The phase search of `_successive_shortest_paths` on any arc list;
    see the Notes of `solve_min_cost_flow`."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    # Candidate k < n_arcs is arc k, candidate n_arcs + k its reverse.
    # Sorted by slot key, then by k: the order a heap Dijkstra scans them.
    key = np.concatenate([tails * n_nodes + heads, heads * n_nodes + tails])
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes)
    G = csr_matrix((np.zeros(keys.size), (keys % n_nodes).astype(np.int32),
                    indptr.astype(np.int32)), shape=(n_nodes, n_nodes))
    slot_of = np.repeat(np.arange(keys.size),
                        np.diff(np.append(starts, key.size)))

    def search(pot, flow, sources):
        red = costs + pot[tails] - pot[heads]
        rc = np.concatenate([
            np.maximum(red, 0.0),
            np.where(flow > 0, np.maximum(-red, 0.0), np.inf)])[order]
        G.data[:] = np.minimum.reduceat(rc, starts)
        # The first candidate of each slot that attains its minimum.
        first = np.flatnonzero(rc == G.data[slot_of])
        arc_of_slot = order[first[np.searchsorted(first, starts)]]
        dist, pred, _ = dijkstra(G, indices=np.flatnonzero(sources),
                                 min_only=True, return_predecessors=True)
        tree = np.flatnonzero(pred >= 0)
        via = np.full(n_nodes, -1)
        slot = np.searchsorted(keys, pred[tree] * np.int64(n_nodes) + tree)
        via[tree] = arc_of_slot[slot]
        return dist, pred, via

    return search


def _bipartite_search(n, m, costs):
    """The phase search of `_successive_shortest_paths` on the complete
    bipartite graph of `_bipartite_rows`.

    The CSR matrix holds the slots of `_slot_search`, one candidate each:
    row i's arcs to the columns, then column j's reverses to the rows,
    both in node order.  So its data is the (n, m) block of forward
    lengths, written whole every phase, followed by the transposed (m, n)
    block of reverse lengths, written on the flow's support and +inf
    elsewhere.  A tree edge's arc follows from its ends.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    nm = n * m
    rows, cols = np.arange(n), np.arange(m)
    indptr = np.concatenate([rows * m, nm + np.arange(m + 1) * n])
    nodes = np.arange(n + m, dtype=np.int32)
    indices = np.concatenate([np.tile(nodes[n:], n), np.tile(nodes[:n], m)])
    G = csr_matrix((np.full(2 * nm, np.inf), indices,
                    indptr.astype(np.int32)), shape=(n + m, n + m))
    fwd = G.data[:nm].reshape(n, m)
    back = G.data[nm:].reshape(m, n).T
    C = costs.reshape(n, m)
    on = np.zeros(0, dtype=np.int64)
    # Column j hangs on row p by arc p*m + j, and row i on column p by
    # the reverse of arc i*m + p - n: via = pred * scale + offset.
    scale = np.repeat([1, m], [n, m])
    offset = np.concatenate([nm - n + rows * m, cols])

    def search(pot, flow, sources):
        nonlocal on
        red = C + pot[:n, None] - pot[n:]
        np.maximum(red, 0.0, out=fwd)
        back.flat[on] = np.inf
        on = flow.nonzero()[0]
        back.flat[on] = np.maximum(-red.ravel()[on], 0.0)
        dist, pred, _ = dijkstra(G, indices=np.flatnonzero(sources),
                                 min_only=True, return_predecessors=True)
        return dist, pred, pred * scale + offset

    return search


def _successive_shortest_paths(n_arcs, supplies, search, max_pushes):
    """The phase loop of `solve_min_cost_flow`; see the module docstring.

    Arc k < n_arcs has the reverse k + n_arcs.  ``search(pot, flow,
    sources)`` gets the potentials, the flow per arc and the mask of nodes
    with excess left.  It searches over the clamped reduced costs: with
    ``red = cost + pot[tail] - pot[head]``, ``max(red, 0)`` on each arc
    and ``max(-red, 0)`` on the reverse of each arc that carries flow;
    other reverses are absent.  It returns per node the label (+inf if
    unreached), the tree predecessor (negative at a root or if unreached)
    and, where there is a predecessor, the arc, k or k + n_arcs, that
    reaches the node.

    Returns the int64 flow per arc, the potentials, the number of pushes
    and "optimal" or "infeasible"; raises `ConvergenceError` rather than
    push more than ``max_pushes`` times or run a phase that reaches a
    sink and pushes nothing.
    """
    flow = np.zeros(n_arcs, dtype=np.int64)
    excess = supplies.copy()
    pot = np.zeros(supplies.shape[0])
    pushes = 0
    while True:
        sources = excess > 0
        if not sources.any():
            return flow, pot, pushes, "optimal"
        dist, pred, via = search(pot, flow, sources)
        reached = np.isfinite(dist)
        sinks = np.flatnonzero((excess < 0) & reached)
        if sinks.size == 0:
            return flow, pot, pushes, "infeasible"
        pot += np.minimum(dist, dist[reached].max())
        pred, via = pred.tolist(), via.tolist()
        pushes_before = pushes

        for t in sinks[np.argsort(dist[sinks], kind="stable")].tolist():
            bottleneck = -excess[t]
            path = []
            s = t
            while pred[s] >= 0 and bottleneck > 0:
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
    raveled plan.  That arc list takes the search's dense layout, which
    writes the phase's lengths into (n, m) blocks of the search matrix,
    forward lengths in row-major order and reverse lengths in the
    transposed block, on the flow's support only.  Where the optimal plan
    is unique it is the one the heap loop ``tests/mincostflow_reference.py``
    finds; the duals are the final potentials.  `_cancel_support_cycles`
    then makes an optimal plan's support a forest (at most n + m - 1
    positive entries).

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
