"""Reference forest step: cycle cancelling with a hand-written DFS.

`otkit._mincostflow._cancel_support_cycles` as it stood before its cycle
search moved onto `scipy.sparse.csgraph`, kept unchanged as the
differential reference for the forest step: `_find_support_cycle` walks
the bipartite support depth-first with a dict of parent edges and
`_extract_cycle` assembles the cycle that a revisited node closes.  It is
slow and it is not used by the package; ``tests/test_exact.py`` checks
forests with `_find_support_cycle` and fuzzes the package's forest step
against `_cancel_support_cycles` on tie-heavy problems.
"""

import numpy as np

from otkit.errors import ConvergenceError


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
