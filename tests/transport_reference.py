"""Reference dense search: the transportation LP on whole-matrix passes.

`otkit._mincostflow.solve_transportation` as it stood before it moved
onto `solve_min_cost_flow`, kept unchanged as the differential reference
for the search of the exact LP: the same phase loop,
`_successive_shortest_paths`, with `_shortest_distances`, a
label-correcting search made of whole-matrix numpy passes over the
n x m residual lengths, as its search.  It is not used by the package;
``tests/test_exact.py`` runs it against the csgraph Dijkstra that the
package's exact LP now searches with.
"""

import numpy as np

from otkit._mincostflow import (_cancel_support_cycles, _push_budget,
                                _successive_shortest_paths)
from otkit.errors import ConvergenceError, ValidationError


def solve_transportation(a_int, b_int, C):
    """Exact transportation LP with integer marginals.

    Runs `_successive_shortest_paths` with `_shortest_distances` as its
    search on the complete bipartite graph of ``C``: arc ``i*m + j`` runs
    from row i to column n + j, so the flow is the raveled plan.
    `_cancel_support_cycles` then makes an optimal plan's support a
    forest.  Returns ``(plan_int, f, g, pushes, status)`` like the
    package's `solve_transportation`.
    """
    a_int = np.asarray(a_int, dtype=np.int64)
    b_int = np.asarray(b_int, dtype=np.int64)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    if a_int.shape != (n,) or b_int.shape != (m,):
        raise ValidationError("marginal lengths do not match the cost matrix")
    if int(a_int.sum()) != int(b_int.sum()):
        raise ValidationError("integer marginals are unbalanced")
    rows, cols = np.arange(n), np.arange(m)

    def search(pot, flow, sources):
        red = C + pot[:n, None] - pot[n:]
        back = np.where(flow.reshape(n, m) > 0, np.maximum(-red, 0.0), np.inf)
        dr, dc, pr, pc = _shortest_distances(
            np.maximum(red, 0.0), back, sources[:n])
        # Column j hangs on row pc[j] by arc pc[j]*m + j, and row i on
        # column pr[i] by the reverse of arc i*m + pr[i].
        pred = np.concatenate([np.where(pr >= 0, n + pr, -1), pc])
        via = np.concatenate([n * m + rows * m + pr, pc * m + cols])
        return np.concatenate([dr, dc]), pred, via

    flow, pot, pushes, status = _successive_shortest_paths(
        n * m, np.concatenate([a_int, -b_int]), search,
        _push_budget(n + m, n * m))
    plan_int = flow.reshape(n, m)
    if status == "optimal":
        plan_int = _cancel_support_cycles(plan_int, C)
    return plan_int, -pot[:n], pot[n:], pushes, status


def _shortest_distances(rc, back, sources):
    """Distances and a shortest-path tree from all source rows.

    ``rc`` holds the arc lengths row i -> column j and ``back`` those of
    column j -> row i (+inf where there is no arc).  A pass relaxes every
    arc out of the rows whose label fell in the last pass (a column-wise
    min over those rows), then every arc out of the columns whose label
    fell (a row-wise min over those columns).  A label records the row or
    column that lowered it, the first one on ties, and only on a strict
    decrease; with lengths >= 0 these predecessors form a forest rooted at
    the sources (CLRS, Lemma 24.16), and -1 marks a root or an unreached
    node.

    Returns the row and column labels and predecessors.  Raises
    `ConvergenceError` if labels still fall after n + m + 1 passes, which
    nonnegative lengths rule out.
    """
    n, m = rc.shape
    dr = np.where(sources, 0.0, np.inf)
    dc = np.full(m, np.inf)
    pr = np.full(n, -1)
    pc = np.full(m, -1)
    frontier = sources.nonzero()[0]
    rows, cols = np.arange(n), np.arange(m)
    for _ in range(n + m + 1):
        block = dr[frontier, None] + rc[frontier]
        arg = block.argmin(axis=0)
        best = block[arg, cols]
        fell = (best < dc).nonzero()[0]
        if fell.size == 0:
            return dr, dc, pr, pc
        dc[fell] = best[fell]
        pc[fell] = frontier[arg[fell]]
        block = dc[fell] + back[:, fell]
        arg = block.argmin(axis=1)
        best = block[rows, arg]
        frontier = (best < dr).nonzero()[0]
        if frontier.size == 0:
            return dr, dc, pr, pc
        dr[frontier] = best[frontier]
        pr[frontier] = fell[arg[frontier]]
    raise ConvergenceError(
        f"shortest-path labels still falling after {n + m + 1} passes"
    )
