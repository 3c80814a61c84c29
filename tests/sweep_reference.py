"""The monotone sweep for 1-D transport, kept as a differential reference.

This is `otkit.exact.solve_1d_sorted` as it was before the plan was read
off the quantile breakpoints: it walks the two sorted measures one atom
at a time, carrying the unmatched remainder of the current atom of each.
It is not used by the package; ``tests/test_exact.py`` fuzzes the
package's solver against it.
"""

import numpy as np

from otkit.exact import TransportResult, _sorted_1d
from otkit.measures import Coupling, as_number


def solve_1d_sorted(alpha, beta, p) -> TransportResult:
    """The monotone (northwest-corner) plan and its cost ``W_p^p``;
    ``iterations`` counts the sweep's steps, one per atom it leaves."""
    p = as_number(p, "p", low=1)
    (order_a, xa, wa), (order_b, xb, wb) = _sorted_1d(alpha, beta)
    n, m = alpha.n, beta.n

    plan = np.zeros((n, m))
    cost = 0.0
    ia = ib = 0
    ra = wa[0]
    rb = wb[0]
    steps = 0
    while ia < n and ib < m:
        steps += 1
        take = min(ra, rb)
        if take > 0.0:
            plan[order_a[ia], order_b[ib]] += take
            cost += take * abs(xa[ia] - xb[ib]) ** p
        if ra < rb:
            rb -= ra
            ia += 1
            if ia < n:
                ra = wa[ia]
        elif rb < ra:
            ra -= rb
            ib += 1
            if ib < m:
                rb = wb[ib]
        else:
            ia += 1
            ib += 1
            if ia < n:
                ra = wa[ia]
            if ib < m:
                rb = wb[ib]

    coupling = Coupling(plan, alpha.weights, beta.weights)
    return TransportResult(
        cost=float(cost),
        coupling=coupling,
        potentials=None,
        iterations=steps,
        status="optimal",
    )
