"""Exact transport solvers: assignment, Kantorovich LP, 1-D closed forms.

The LP solvers reduce to integer min-cost flow.  Probability weights are
scaled onto a common denominator of 10^9 by largest-remainder rounding, so
every returned plan has exactly conserved (rational) marginals; the induced
perturbation of each marginal entry is below 1e-9.  The flow engine is
`_mincostflow.solve_transportation`: the successive-shortest-paths phase
loop of `_mincostflow.solve_min_cost_flow`, one csgraph Dijkstra per
phase, run on the complete bipartite graph with each row of negative
costs shifted up to a zero minimum; the dual potentials are its final
node potentials, shifted back, feasible and complementary-slack on the
support, and ``iterations`` counts its pushes.  The engine cancels the
cycles of the optimal plan's support, so every plan it returns is a
vertex of the transportation polytope (a forest support);
`is_extremal_coupling` runs the same forest test,
`_mincostflow.support_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _mincostflow as mcf
from .duality import DualPotentials
from .errors import MetricAxiomError, UnbalancedError, ValidationError
from .measures import (EQUALITY_TOL, MARGINAL_TOL, Coupling, DiscreteMeasure,
                       as_number, check_cost_matrix, check_matrix,
                       check_weights)

__all__ = [
    "TransportResult",
    "AssignmentResult",
    "solve_kantorovich",
    "solve_assignment",
    "solve_1d_sorted",
    "w1_1d_cdf",
    "is_extremal_coupling",
    "wasserstein_p",
    "validate_metric",
    "WEIGHT_DENOMINATOR",
]

WEIGHT_DENOMINATOR = 10**9


@dataclass(frozen=True)
class TransportResult:
    """Outcome of a transport solve.

    ``cost`` always equals ``coupling.cost(C)`` for the cost matrix the
    solver was given, by construction.  ``potentials`` is None for solvers
    that do not produce duals.  ``iterations`` is the number of flow pushes
    for `solve_kantorovich` and the number of sweep steps for
    `solve_1d_sorted`.  ``status`` is "optimal" for the exact solvers;
    iterative methods may report "max_iter".
    """

    cost: float
    coupling: Coupling
    potentials: DualPotentials | None
    iterations: int
    status: str


class AssignmentResult(NamedTuple):
    permutation: np.ndarray
    cost: float


def solve_kantorovich(a, b, C) -> TransportResult:
    """Exact discrete optimal transport between probability vectors.

    Parameters
    ----------
    a, b : array_like or DiscreteMeasure
        Probability weights of sizes n and m.
    C : array_like, shape (n, m)
        Ground cost matrix.

    Returns
    -------
    TransportResult
        The coupling has at most n + m - 1 positive entries (its support
        is a forest), marginals match a and b within 1e-9 per entry, and
        the attached potentials satisfy ``f_i + g_j <= C_ij`` with
        equality on the support.
    """
    aw = check_weights(a, "a", probability=True)
    bw = check_weights(b, "b", probability=True)
    C = check_cost_matrix(C, (aw.shape[0], bw.shape[0]))
    a_int = mcf.quantize_simplex(aw, WEIGHT_DENOMINATOR)
    b_int = mcf.quantize_simplex(bw, WEIGHT_DENOMINATOR)
    plan_int, f, g, pushes, status = mcf.solve_transportation(a_int, b_int, C)
    if status != "optimal":
        raise UnbalancedError("transportation solve did not complete")
    plan = plan_int / float(WEIGHT_DENOMINATOR)
    # Quantization moves each marginal entry by < 1/denominator; allow a
    # little extra for float summation.
    atol = MARGINAL_TOL + 64 * np.finfo(float).eps
    coupling = Coupling(plan, aw, bw, atol=atol)
    cost = coupling.cost(C)
    potentials = DualPotentials(f, g, 0.0)
    return TransportResult(
        cost=cost,
        coupling=coupling,
        potentials=potentials,
        iterations=pushes,
        status="optimal",
    )


def solve_assignment(C) -> AssignmentResult:
    """Optimal assignment under the mean-cost objective.

    Parameters
    ----------
    C : array_like, shape (n, n)

    Returns
    -------
    AssignmentResult
        Permutation sigma minimizing ``(1/n) sum_i C[i, sigma(i)]`` and
        that minimal value, which equals `solve_kantorovich` on uniform
        weights.
    """
    C = check_cost_matrix(C)
    n = C.shape[0]
    ones = np.ones(n, dtype=np.int64)
    plan_int, _, _, _, status = mcf.solve_transportation(ones, ones, C)
    if status != "optimal":
        raise UnbalancedError("assignment solve did not complete")
    permutation = np.argmax(plan_int, axis=1)
    cost = float(np.mean(C[np.arange(n), permutation]))
    return AssignmentResult(permutation, cost)


def solve_1d_sorted(alpha, beta, p) -> TransportResult:
    """Optimal 1-D transport for the cost |x - y|^p via the monotone sweep.

    Parameters
    ----------
    alpha, beta : DiscreteMeasure
        1-D probability measures; atoms need not be sorted.
    p : float
        Cost exponent, p >= 1.

    Returns
    -------
    TransportResult
        ``cost`` is the p-th power value ``W_p^p`` (the LP objective for
        ``C_ij = |x_i - y_j|^p``); the coupling is the monotone
        (northwest-corner) plan expressed in the original atom order.

    Notes
    -----
    Runs in O(n log n + m log m) for sorting plus a linear sweep.  For
    p < 1 the cost is concave and the monotone plan is not optimal, so
    such exponents are rejected.
    """
    p = as_number(p, "p")
    if p < 1:
        raise ValidationError("solve_1d_sorted requires p >= 1")
    for name, mu in (("alpha", alpha), ("beta", beta)):
        if not isinstance(mu, DiscreteMeasure) or mu.dim != 1:
            raise ValidationError(f"{name} must be a 1-D DiscreteMeasure")
    aw = check_weights(alpha, "alpha", probability=True)
    bw = check_weights(beta, "beta", probability=True)
    n, m = alpha.n, beta.n
    order_a = np.argsort(alpha.points[:, 0], kind="stable")
    order_b = np.argsort(beta.points[:, 0], kind="stable")
    xa = alpha.points[order_a, 0]
    xb = beta.points[order_b, 0]
    wa = aw[order_a]
    wb = bw[order_b]

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

    coupling = Coupling(plan, aw, bw)
    return TransportResult(
        cost=float(cost),
        coupling=coupling,
        potentials=None,
        iterations=steps,
        status="optimal",
    )


def _sorted_support(measure):
    srt = measure.sorted_1d()
    return srt.points[:, 0], np.cumsum(srt.weights)


def w1_1d_cdf(alpha: DiscreteMeasure, beta: DiscreteMeasure) -> float:
    """W1 between 1-D probability measures as the area between their cdfs.

    Computes ``integral |F_alpha(x) - F_beta(x)| dx`` exactly on the
    union of atom positions; agrees with `solve_1d_sorted` at p = 1.
    """
    for name, mu in (("alpha", alpha), ("beta", beta)):
        if not isinstance(mu, DiscreteMeasure) or mu.dim != 1:
            raise ValidationError(f"{name} must be a 1-D DiscreteMeasure")
        check_weights(mu, name, probability=True)
    xa, ca = _sorted_support(alpha)
    xb, cb = _sorted_support(beta)
    xs = np.union1d(xa, xb)
    if xs.size < 2:
        return 0.0
    Fa = np.concatenate([[0.0], ca])[np.searchsorted(xa, xs, side="right")]
    Fb = np.concatenate([[0.0], cb])[np.searchsorted(xb, xs, side="right")]
    return float(np.sum(np.abs(Fa[:-1] - Fb[:-1]) * np.diff(xs)))


def is_extremal_coupling(coupling) -> bool:
    """Whether a plan is a vertex of its transportation polytope.

    A feasible plan is extremal iff its support graph (rows and columns as
    nodes, positive entries as edges) contains no cycle, that is, iff it
    is a forest: #edges = #nodes - #components.
    """
    plan = (coupling.plan if isinstance(coupling, Coupling)
            else check_matrix(coupling, "plan"))
    return mcf.support_graph(plan > 0.0)[1]


def validate_metric(D):
    """Check the metric axioms of a distance matrix, with witnesses.

    Raises
    ------
    MetricAxiomError
        Naming the failed axiom and an index tuple exhibiting it.
    """
    D = check_cost_matrix(D, name="distance matrix")
    n = D.shape[0]
    atol = EQUALITY_TOL * max(1.0, float(np.max(np.abs(D))))
    i, j = np.unravel_index(np.argmin(D), D.shape)
    if D[i, j] < -atol:
        raise MetricAxiomError("nonnegativity", (int(i), int(j)), f"D={D[i, j]!r}")
    k = int(np.argmax(np.abs(np.diag(D))))
    if abs(D[k, k]) > atol:
        raise MetricAxiomError("zero_diagonal", (k, k), f"D={D[k, k]!r}")
    asym = np.abs(D - D.T)
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[i, j] > atol:
        raise MetricAxiomError("symmetry", (int(i), int(j)))
    for k in range(n):
        slack = D - (D[:, k][:, None] + D[k, :][None, :])
        i, j = np.unravel_index(np.argmax(slack), slack.shape)
        if slack[i, j] > atol:
            raise MetricAxiomError(
                "triangle",
                (int(i), k, int(j)),
                f"D[i,j]-D[i,k]-D[k,j]={slack[i, j]!r}",
            )
    return D


def wasserstein_p(a, b, dist_matrix, p) -> float:
    """Wasserstein distance of order p on a validated finite metric space.

    Parameters
    ----------
    a, b : array_like or DiscreteMeasure
        Probability vectors over the same n points.
    dist_matrix : array_like, shape (n, n)
        Pairwise distances; all four metric axioms are checked first.
    p : float, >= 1

    Returns
    -------
    float
        ``W_p = (min <D^p, P>)^(1/p)``.
    """
    p = as_number(p, "p")
    if p < 1:
        raise ValidationError("wasserstein_p requires p >= 1")
    D = validate_metric(dist_matrix)
    result = solve_kantorovich(a, b, D**p)
    return float(result.cost) ** (1.0 / p)
