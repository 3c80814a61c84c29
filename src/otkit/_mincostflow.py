"""Min-cost flow on integer supplies: two successive-shortest-path engines.

Supplies are int64 and flows stay integral, so conservation at every node
is exact.  Node potentials are maintained with reduced-cost shortest
paths (Johnson updates), which yields optimal LP duals on termination: an
arc carries flow only if its reduced cost is zero.

* `solve_transportation` is the dense bipartite engine behind the exact
  Kantorovich solver and the assignment solver.  Plan, potentials and
  excesses are arrays over the n x m cost matrix; shortest distances come
  from whole-matrix numpy passes, and each augmentation replays the pop
  order of a heap Dijkstra (kept as ``tests/mincostflow_reference.py``),
  so plan, duals and augmentation count equal that loop's bit for bit.
* `solve_min_cost_flow` is the sparse engine on directed, uncapacitated
  arc lists, used by the Wasserstein-1 norms (Kantorovich-Rubinstein,
  flat norm, Beckmann).  It works in phases: one compiled
  `scipy.sparse.csgraph.dijkstra` per phase, then pushes to many sinks
  along that search's shortest-path tree.  Its flows are optimal but,
  where shortest paths tie, need not be the ones the heap loop picks,
  and its potentials differ from that loop's.
"""

from __future__ import annotations

import heapq
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
    max_augmentations : int, optional
        Budget on the number of pushes; defaults to
        ``1000 + 40 (n_nodes + n_arcs)``.

    Returns
    -------
    MinCostFlowResult
        ``flows`` per arc (int64), node ``potentials`` such that
        ``cost + pot[tail] - pot[head] >= 0`` with equality on arcs
        carrying flow, total ``cost``, the number of pushes, and status
        "optimal" or "infeasible".

    Raises
    ------
    ConvergenceError
        If the pushes exceed the budget.

    Notes
    -----
    Primal-dual successive shortest paths (Ahuja, Magnanti & Orlin,
    *Network Flows*, sections 9.7-9.8).  The residual graph is one CSR
    matrix with a slot for every (tail, head) pair of an arc or of its
    reverse; parallel arcs share a slot.  A phase writes each slot's
    smallest clamped reduced cost into the matrix (+inf for a reverse arc
    without flow), runs one compiled Dijkstra from all sources and adds
    ``min(dist, D)`` to the potentials, D the largest finite label, which
    makes every shortest-path tree arc tight.  It then takes the sinks in
    (distance, index) order and pushes along each one's tree path while
    that path is intact: its root source has excess left, and each step
    keeps to the arc that was tight when the phase began, which must
    still carry flow where it is a reversed arc (a parallel arc that is
    not tight never stands in for it).  The first push of a phase is the
    augmentation a one-Dijkstra-per-push engine makes; where shortest
    paths tie, the tree, and so which optimal flow comes out, may differ.
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
    if not np.all(np.isfinite(costs)):
        raise ValidationError("arc costs must be finite")
    if n_arcs and (tails.min() < 0 or heads.max() >= n_nodes or
                   heads.min() < 0 or tails.max() >= n_nodes):
        raise ValidationError("arc endpoints out of range")

    # Candidate k < n_arcs is arc k, candidate n_arcs + k its reverse.
    # Sorted by slot key, then by k: the order a heap Dijkstra scans them.
    key = np.concatenate([tails * n_nodes + heads, heads * n_nodes + tails])
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    slot_of = np.repeat(np.arange(keys.size),
                        np.diff(np.append(starts, key.size)))
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes)
    G = csr_matrix((np.zeros(keys.size), (keys % n_nodes).astype(np.int32),
                    indptr.astype(np.int32)), shape=(n_nodes, n_nodes))
    flow = [0] * n_arcs
    excess = supplies.tolist()
    pot = np.zeros(n_nodes, dtype=float)

    if n_arcs and costs.min() < 0.0:
        pot = _bellman_ford_potentials(n_nodes, tails, heads, costs)

    if max_augmentations is None:
        max_augmentations = 1000 + 40 * (n_nodes + n_arcs)

    augmentations = 0
    while True:
        sources = [u for u in range(n_nodes) if excess[u] > 0]
        if not sources:
            status = "optimal"
            break
        fwd = np.maximum(costs + pot[tails] - pot[heads], 0.0)
        back = np.where(np.array(flow) > 0,
                        np.maximum(-costs + pot[heads] - pot[tails], 0.0),
                        np.inf)
        rc = np.concatenate([fwd, back])[order]
        G.data[:] = np.minimum.reduceat(rc, starts)
        # The first candidate of each slot that attains its minimum.
        first = np.flatnonzero(rc == G.data[slot_of])
        arc_of_slot = order[first[np.searchsorted(first, starts)]]

        dist, pred, root = dijkstra(G, indices=sources, min_only=True,
                                    return_predecessors=True)
        sinks = np.flatnonzero((np.array(excess) < 0) & np.isfinite(dist))
        if sinks.size == 0:
            status = "infeasible"
            break
        pot += np.minimum(dist, dist[np.isfinite(dist)].max())
        tree = np.flatnonzero(pred >= 0)
        via = np.full(n_nodes, -1)
        slot = np.searchsorted(keys, pred[tree] * np.int64(n_nodes) + tree)
        via[tree] = arc_of_slot[slot]
        via, pred, root = via.tolist(), pred.tolist(), root.tolist()

        for t in sinks[np.argsort(dist[sinks], kind="stable")].tolist():
            s = root[t]
            bottleneck = min(excess[s], -excess[t])
            path = []
            v = t
            while v != s and bottleneck > 0:
                k = via[v]
                if k >= n_arcs:
                    bottleneck = min(bottleneck, flow[k - n_arcs])
                path.append(k)
                v = pred[v]
            if bottleneck <= 0:
                continue
            if augmentations >= max_augmentations:
                raise ConvergenceError(
                    f"min-cost flow exceeded {max_augmentations} augmentations"
                )
            for k in path:
                if k >= n_arcs:
                    flow[k - n_arcs] -= bottleneck
                else:
                    flow[k] += bottleneck
            excess[s] -= bottleneck
            excess[t] += bottleneck
            augmentations += 1

    flows = np.array(flow, dtype=np.int64)
    total = float(np.dot(flows.astype(float), costs))
    return MinCostFlowResult(flows, pot, total, augmentations, status)


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
        step = -1 if residual > 0 else 1
        for idx in order[: abs(residual)]:
            base[idx] += step
    return base


def solve_transportation(a_int, b_int, C, forestify=True):
    """Exact transportation LP with integer marginals.

    Runs successive shortest paths on the complete bipartite graph of
    ``C`` with the state held in dense arrays (see `_dense_ssp`).  Each
    augmentation is the one a heap Dijkstra over the arc list makes on the
    same graph (rows ``0..n-1``, columns ``n..n+m-1``, arcs in row-major
    order; ``tests/mincostflow_reference.py``), so plan, duals and
    augmentation count equal that loop's bit for bit.

    Parameters
    ----------
    a_int, b_int : int64 arrays with equal positive sums.
    C : float cost matrix, shape (n, m).
    forestify : bool
        Cancel zero-cost cycles in the support so the returned basis is a
        forest (at most n + m - 1 positive entries).

    Returns
    -------
    (plan_int, f, g, augmentations, status)
        Integer plan with exact marginals and dual potentials satisfying
        ``f_i + g_j <= C_ij`` with equality on the support.
    """
    a_int = np.asarray(a_int, dtype=np.int64)
    b_int = np.asarray(b_int, dtype=np.int64)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    if a_int.shape != (n,) or b_int.shape != (m,):
        raise ValidationError("marginal lengths do not match the cost matrix")
    if int(a_int.sum()) != int(b_int.sum()):
        raise ValidationError("integer marginals are unbalanced")
    plan_int, u, v, augmentations, status = _dense_ssp(a_int, b_int, C)
    if forestify and status == "optimal":
        plan_int = _cancel_support_cycles(plan_int, C)
    return plan_int, -u, v, augmentations, status


def _dense_ssp(a_int, b_int, C):
    """Successive shortest paths from rows to columns of a dense cost matrix.

    ``u`` and ``v`` are the row and column node potentials; the reduced
    cost of arc (i, j) is ``C_ij + u_i - v_j`` and that of the reverse of
    a support entry is ``-C_ij + v_j - u_i``, both clamped at 0 and
    evaluated in the same order as a heap Dijkstra over the arc list.
    Each augmentation finds distances by whole-array passes
    (`_shortest_distances`), picks the nearest column with unmet demand
    (lowest index on ties), rebuilds the heap Dijkstra's predecessors from
    those distances (`_dijkstra_predecessors`), applies the Johnson update
    ``pot += min(dist, d_t)`` and pushes the integer bottleneck.
    """
    n, m = C.shape
    plan = np.zeros((n, m), dtype=np.int64)
    supply = a_int.copy()
    demand = b_int.copy()
    u = np.zeros(n)
    v = np.zeros(m)
    if plan.size and C.min() < 0.0:
        # The Bellman-Ford start of the arc-list engines: on a bipartite
        # graph it settles after one round.
        v = np.minimum(0.0, C.min(axis=0))
    max_augmentations = 1000 + 40 * (n + m + n * m)
    augmentations = 0
    while True:
        sources = supply > 0
        if not sources.any():
            return plan, u, v, augmentations, "optimal"
        if augmentations >= max_augmentations:
            raise ConvergenceError(
                f"transportation exceeded {max_augmentations} augmentations"
            )
        sinks = demand > 0
        si, sj = np.nonzero(plan)
        rc = np.maximum(C + u[:, None] - v, 0.0)
        back = np.maximum(-C[si, sj] + v[sj] - u[si], 0.0)
        dr, dc, sums = _shortest_distances(rc, si, sj, back, sources, sinks)
        reachable = np.flatnonzero(sinks & np.isfinite(dc))
        if reachable.size == 0:
            return plan, u, v, augmentations, "infeasible"
        t = int(reachable[np.argmin(dc[reachable])])
        d_t = dc[t]
        prev = _dijkstra_predecessors(sums, dr, dc, si, sj, back, sources, t)
        u += np.minimum(dr, d_t)
        v += np.minimum(dc, d_t)

        # The path alternates forward arcs (rows[k], cols[k]) and reversed
        # support entries (rows[k], cols[k + 1]) back to a source row.
        rows = [prev[n + t]]
        cols = [t]
        while supply[rows[-1]] <= 0:
            cols.append(prev[rows[-1]] - n)
            rows.append(prev[cols[-1] + n])
        s = rows[-1]
        bottleneck = min(int(supply[s]), int(demand[t]))
        if len(rows) > 1:
            bottleneck = min(bottleneck, int(plan[rows[:-1], cols[1:]].min()))
            plan[rows[:-1], cols[1:]] -= bottleneck
        plan[rows, cols] += bottleneck
        supply[s] -= bottleneck
        demand[t] -= bottleneck
        augmentations += 1


def _shortest_distances(rc, si, sj, back, sources, sinks):
    """Reduced-cost distances from all source rows by label correcting.

    A pass relaxes every arc out of the rows whose label fell in the last
    pass (one column-wise min over those rows of ``dist_i + rc_ij``), then
    the reversed support entries out of the columns whose label fell.
    Both sides converge to the minimum over paths of the left-to-right
    floating-point path sums, which is exactly what the heap Dijkstra
    computes.  Labels above the nearest sink's are not relaxed further:
    nothing beyond that sink is used, and ``min(dist, d_t)`` caps them.

    Returns the row and column labels and the matrix of ``dist_i + rc_ij``
    from each row's last relaxation (inf for rows never relaxed).  A row is
    relaxed again whenever its label falls, so every row at or below the
    nearest sink was last relaxed with its final label.
    """
    n, m = rc.shape
    dr = np.where(sources, 0.0, np.inf)
    dc = np.full(m, np.inf)
    sums = np.full((n, m), np.inf)
    frontier = sources.nonzero()[0]
    for _ in range(n + m + 1):
        block = dr[frontier, None] + rc[frontier]
        sums[frontier] = block
        new_c = np.minimum(dc, block.min(axis=0))
        bound = new_c.min(where=sinks, initial=np.inf)
        fell = (new_c < dc) & (new_c <= bound)
        dc = new_c
        k = fell[sj].nonzero()[0]
        if k.size == 0:
            return dr, dc, sums
        new_r = dr.copy()
        np.minimum.at(new_r, si[k], dc[sj[k]] + back[k])
        frontier = ((new_r < dr) & (new_r <= bound)).nonzero()[0]
        dr = new_r
        if frontier.size == 0:
            return dr, dc, sums
    raise ConvergenceError(
        f"shortest-path labels still falling after {n + m + 1} passes"
    )


def _dijkstra_predecessors(sums, dr, dc, si, sj, back, sources, t):
    """Predecessor map a heap Dijkstra over the bipartite arc list ends with.

    That Dijkstra pops nodes by (distance, node id) and gives a node the
    first popped neighbour whose label plus reduced cost equals the
    node's distance.  With the distances known, replaying the heap over
    just those arcs reproduces its pops and predecessors exactly; the
    replay stops when column ``t`` pops.  Sources pop first, in index
    order, so their share is done with one argmax.  Node ids are rows
    ``0..n-1`` and columns ``n..n+m-1``.
    """
    n = sums.shape[0]
    d_t = dc[t]
    tight = (sums == dc) & (dc <= d_t)
    src_rows = np.flatnonzero(sources)
    from_src = tight[src_rows]
    first = src_rows[np.argmax(from_src, axis=0)]
    reached = np.flatnonzero(from_src.any(axis=0))
    dist = dr.tolist() + dc.tolist()
    prev = dict(zip((reached + n).tolist(), first[reached].tolist()))
    heap = [(dist[x], x) for x in prev]
    heapq.heapify(heap)
    prev.update(dict.fromkeys(src_rows.tolist(), -1))
    succ = {}
    ti, tj = np.nonzero(tight & ~sources[:, None])
    for i, j in zip(ti.tolist(), (tj + n).tolist()):
        succ.setdefault(i, []).append(j)
    k = np.flatnonzero((dc[sj] <= d_t) & (dc[sj] + back == dr[si]))
    for j, i in zip((sj[k] + n).tolist(), si[k].tolist()):
        succ.setdefault(j, []).append(i)
    target = n + t
    while True:
        x = heapq.heappop(heap)[1]
        if x == target:
            return prev
        for y in succ.get(x, ()):
            if y not in prev:
                prev[y] = x
                heapq.heappush(heap, (dist[y], y))


def _cancel_support_cycles(plan_int, C):
    """Remove cycles from a bipartite support by pushing along them.

    At optimality every support cycle has zero cost (up to rounding), so
    flow is pushed in the direction whose cost change is <= 0 until some
    arc empties.  Each push zeroes at least one entry and creates none, so
    more than nnz(plan) pushes means a broken cycle search.
    """
    plan = plan_int.copy()
    budget = int(np.count_nonzero(plan))
    for _ in range(budget + 1):
        cycle = _find_support_cycle(plan)
        if cycle is None:
            return plan
        # cycle: list of (i, j, forward) alternating arcs; pushing one unit
        # "forward" increases plan[i, j] on forward arcs and decreases it
        # on backward arcs.
        delta = sum(C[i, j] if fwd else -C[i, j] for i, j, fwd in cycle)
        if delta > 0.0:
            cycle = [(i, j, not fwd) for i, j, fwd in cycle]
        shrink = [int(plan[i, j]) for i, j, fwd in cycle if not fwd]
        push = min(shrink)
        for i, j, fwd in cycle:
            plan[i, j] += push if fwd else -push
    raise ConvergenceError(
        f"support still has a cycle after {budget} cycle-cancelling pushes"
    )


def _find_support_cycle(plan):
    """Locate one cycle in the bipartite support graph, if any.

    Nodes are rows 0..n-1 and columns n..n+m-1; edges are positive plan
    entries.  Returns alternating arcs as (i, j, forward) where forward
    means the cycle traverses row->column, or None when the support is a
    forest.
    """
    n, m = plan.shape
    adj = [[] for _ in range(n + m)]
    for i, j in np.argwhere(plan > 0):
        i = int(i)
        j = int(j)
        adj[i].append((n + j, i, j))
        adj[n + j].append((i, i, j))
    seen = np.zeros(n + m, dtype=bool)
    parent_edge = {}
    for root in range(n + m):
        if seen[root] or not adj[root]:
            continue
        stack = [(root, -1, -1)]
        seen[root] = True
        parent_edge[root] = None
        while stack:
            node, pi, pj = stack.pop()
            for nxt, i, j in adj[node]:
                if (i, j) == (pi, pj):
                    continue
                if not seen[nxt]:
                    seen[nxt] = True
                    parent_edge[nxt] = (node, i, j)
                    stack.append((nxt, i, j))
                else:
                    return _extract_cycle(parent_edge, node, nxt, (i, j), n)
    return None


def _extract_cycle(parent_edge, u, v, closing, n):
    """Assemble the cycle closed by edge ``closing`` between u and v."""

    def path_to_root(x):
        nodes = [x]
        edges = []
        while parent_edge[x] is not None:
            par, i, j = parent_edge[x]
            edges.append((i, j))
            x = par
            nodes.append(x)
        return nodes, edges

    nodes_u, edges_u = path_to_root(u)
    nodes_v, edges_v = path_to_root(v)
    set_u = {node: k for k, node in enumerate(nodes_u)}
    meet = next(node for node in nodes_v if node in set_u)
    ku = set_u[meet]
    kv = nodes_v.index(meet)
    # Edge sequence: u -> meet, then reversed meet -> v, then closing edge.
    edge_seq = edges_u[:ku] + list(reversed(edges_v[:kv])) + [closing]
    node_seq = nodes_u[:ku] + [meet] + list(reversed(nodes_v[:kv]))
    cycle = []
    for k, (i, j) in enumerate(edge_seq):
        from_node = node_seq[k]
        forward = from_node == i  # traversed row -> column
        cycle.append((i, j, forward))
    return cycle
