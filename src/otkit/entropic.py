"""Entropic optimal transport: Sinkhorn iterations and their diagnostics.

The regularized problem is parametrized by potentials (f, g) through

    P_ij = r^a_i r^b_j exp((f_i + g_j - C_ij) / eps),

with reference weights (r^a, r^b) defaulting to the marginals (a, b).  One
full iteration updates f (making row sums equal a) and then g (making
column sums equal b).  In the log domain the update is the soft minimum

    f_i  <-  min^eps_{r^b}(C_i. - g) + eps log(a_i / r^a_i),
    min^eps_w(h) = -eps log sum_j w_j exp(-h_j / eps),

evaluated with max subtraction so overflow cannot occur; the scaling
domain keeps multiplicative factors u = exp(f/eps), v = exp(g/eps) and is
retained for large eps where it is cheap and safe.

The dual objective recorded in the trace is

    D(f, g) = <f, a> + <g, b> - eps (mass(P) - 1),

which increases at every half-update by eps times a generalized
Kullback-Leibler divergence between the target marginal and the current
one.  Convergence diagnostics based on the Hilbert projective metric
(`hilbert_metric`, `contraction_eta_lambda`) bound the linear rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ValidationError
from .measures import Coupling, check_cost_matrix, check_weights

__all__ = [
    "SinkhornConfig",
    "SinkhornState",
    "SinkhornTraceRecord",
    "SinkhornResult",
    "gibbs_kernel",
    "softmin",
    "sinkhorn",
    "kl_projection_row",
    "kl_projection_col",
    "hilbert_metric",
    "contraction_eta_lambda",
    "sinkhorn_divergence",
]


def gibbs_kernel(C, epsilon) -> np.ndarray:
    """Elementwise kernel K = exp(-C / epsilon)."""
    C = np.asarray(C, dtype=float)
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    return np.exp(-C / float(epsilon))


def softmin(values, weights, epsilon) -> float:
    """Soft minimum min^eps_w(h) = -eps log sum_j w_j exp(-h_j / eps).

    Stabilized by subtracting the hard minimum first; tends to the hard
    minimum as eps -> 0 and to -eps log sum w_j - <mean> ... as eps grows.
    """
    h = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = float(np.min(h))
    return m - float(epsilon) * float(
        np.log(np.sum(w * np.exp(-(h - m) / epsilon)))
    )


def _softmin_rows(M, weights, epsilon):
    """Soft minimum of each row of M against positive weights."""
    m = M.min(axis=1)
    z = np.sum(weights[None, :] * np.exp(-(M - m[:, None]) / epsilon), axis=1)
    return m - epsilon * np.log(z)


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.

    Attributes
    ----------
    epsilon : float
        Target regularization strength (> 0).
    max_iter : int
        Global budget of full (f then g) iterations, shared across
        schedule stages.
    marginal_tol : float
        L1 stopping tolerance on ``max(|P1 - a|_1, |P^T 1 - b|_1)``.
    log_domain : bool
        Soft-minimum updates (default) versus kernel scaling.  The scaling
        domain overflows for small epsilon and is rejected when it does.
    epsilon_schedule : sequence of float or None
        Strictly decreasing epsilons ending exactly at ``epsilon``; each
        stage runs to tolerance and warm-starts the next.
    reference_weights : (array, array) or None
        Positive reference weights replacing (a, b) in the plan
        parametrization; the converged plan is invariant to this choice.
    record_history : bool
        Keep a snapshot of (f, g) after every half-update, starting with
        the initial pair.
    """

    epsilon: float
    max_iter: int = 5000
    marginal_tol: float = 1e-8
    log_domain: bool = True
    epsilon_schedule: Sequence[float] | None = None
    reference_weights: tuple | None = None
    record_history: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError("epsilon must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if not (np.isfinite(self.marginal_tol) and self.marginal_tol > 0):
            raise ValidationError("marginal_tol must be positive")
        if self.epsilon_schedule is not None:
            sched = tuple(float(e) for e in self.epsilon_schedule)
            if not sched:
                raise ValidationError("epsilon_schedule must be nonempty")
            if any(not (np.isfinite(e) and e > 0) for e in sched):
                raise ValidationError("epsilon_schedule entries must be positive")
            if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])):
                raise ValidationError("epsilon_schedule must be strictly decreasing")
            if sched[-1] != self.epsilon:
                raise ValidationError(
                    "epsilon_schedule must end at the target epsilon"
                )
            object.__setattr__(self, "epsilon_schedule", sched)


@dataclass(frozen=True)
class SinkhornTraceRecord:
    iteration: int
    epsilon: float
    viol_a: float
    viol_b: float
    dual: float
    hilbert_step: float


@dataclass
class SinkhornState:
    """Converged (or budget-exhausted) potentials plus per-iteration trace."""

    f: np.ndarray
    g: np.ndarray
    epsilon: float
    iteration: int
    status: str
    trace: list = field(default_factory=list)
    history: list | None = None


class SinkhornResult(NamedTuple):
    state: SinkhornState
    coupling: Coupling
    cost_reg: float
    cost_linear: float


def sinkhorn(a, b, C, config: SinkhornConfig,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> SinkhornResult:
    """Entropic optimal transport between probability vectors.

    Parameters
    ----------
    a, b : array_like or DiscreteMeasure
        Probability weights (zero-weight atoms are allowed: they are
        dropped for the solve and reinserted with zero plan rows/columns
        and tight-completion potentials).
    C : array_like, shape (n, m)
    config : SinkhornConfig

    Returns
    -------
    SinkhornResult
        ``state`` with gauge-normalized potentials (<f, a> = <g, b>),
        the plan as a `Coupling`, the regularized value
        ``cost_reg = <f, a> + <g, b> - eps (mass - 1)`` and the linear
        cost ``<C, P>``.
    """
    aw = check_weights(a, "a", probability=True, tolerances=tolerances)
    bw = check_weights(b, "b", probability=True, tolerances=tolerances)
    C = check_cost_matrix(C, (aw.size, bw.size))

    active_a = np.flatnonzero(aw > 0)
    active_b = np.flatnonzero(bw > 0)
    sub_a = aw[active_a]
    sub_b = bw[active_b]
    sub_C = C[np.ix_(active_a, active_b)]

    if config.reference_weights is None:
        ref_a, ref_b = sub_a, sub_b
    else:
        ra = check_weights(config.reference_weights[0], "reference a", n=aw.size)
        rb = check_weights(config.reference_weights[1], "reference b", n=bw.size)
        if np.any(ra[active_a] <= 0) or np.any(rb[active_b] <= 0):
            raise ValidationError(
                "reference weights must be positive on the support"
            )
        ref_a, ref_b = ra[active_a], rb[active_b]

    stages = config.epsilon_schedule or (config.epsilon,)
    f = np.zeros(sub_a.size)
    g = np.zeros(sub_b.size)
    trace: list[SinkhornTraceRecord] = []
    history = [(f.copy(), g.copy())] if config.record_history else None

    log_a = np.log(sub_a)
    log_b = np.log(sub_b)
    log_ra = np.log(ref_a)
    log_rb = np.log(ref_b)

    iteration = 0
    status = "max_iter"
    eps = float(stages[0])
    for stage_idx, stage_eps in enumerate(stages):
        eps = float(stage_eps)
        final_stage = stage_idx == len(stages) - 1
        if not config.log_domain:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                try:
                    K_ref = np.exp(-sub_C / eps) * np.outer(ref_a, ref_b)
                    u = np.exp(f / eps)
                    v = np.exp(g / eps)
                except FloatingPointError as exc:
                    raise ValidationError(
                        "scaling-domain Sinkhorn overflowed; use log_domain=True"
                    ) from exc
        converged = False
        while iteration < config.max_iter:
            iteration += 1
            f_old = f
            if config.log_domain:
                f = (_softmin_rows(sub_C - g[None, :] - eps * log_rb[None, :],
                                   np.ones_like(sub_b), eps)
                     + eps * (log_a - log_ra))
                if history is not None:
                    history.append((f.copy(), g.copy()))
                g = (_softmin_rows(sub_C.T - f[None, :] - eps * log_ra[None, :],
                                   np.ones_like(sub_a), eps)
                     + eps * (log_b - log_rb))
                if history is not None:
                    history.append((f.copy(), g.copy()))
                logP = (log_ra[:, None] + log_rb[None, :]
                        + (f[:, None] + g[None, :] - sub_C) / eps)
                row = np.exp(logsumexp(logP, axis=1))
                col = np.exp(logsumexp(logP, axis=0))
            else:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    try:
                        u = sub_a / (K_ref @ v)
                        if history is not None:
                            history.append((eps * np.log(u), eps * np.log(v)))
                        v = sub_b / (K_ref.T @ u)
                        if history is not None:
                            history.append((eps * np.log(u), eps * np.log(v)))
                        P = u[:, None] * K_ref * v[None, :]
                    except FloatingPointError as exc:
                        raise ValidationError(
                            "scaling-domain Sinkhorn overflowed; "
                            "use log_domain=True"
                        ) from exc
                f = eps * np.log(u)
                g = eps * np.log(v)
                row = P.sum(axis=1)
                col = P.sum(axis=0)
            viol_a = float(np.abs(row - sub_a).sum())
            viol_b = float(np.abs(col - sub_b).sum())
            mass = float(row.sum())
            dual = (float(f @ sub_a + g @ sub_b) - eps * (mass - 1.0))
            hilbert_step = float(np.ptp((f - f_old) / eps))
            trace.append(SinkhornTraceRecord(
                iteration=iteration,
                epsilon=eps,
                viol_a=viol_a,
                viol_b=viol_b,
                dual=dual,
                hilbert_step=hilbert_step,
            ))
            if max(viol_a, viol_b) <= config.marginal_tol:
                converged = True
                break
        if not converged:
            # Budget exhausted; the potentials belong to this stage's eps.
            status = "max_iter"
            break
        if final_stage:
            status = "optimal"

    # Gauge: split the dual value evenly between the two potentials.
    shift = 0.5 * (float(f @ sub_a) - float(g @ sub_b))
    f = f - shift
    g = g + shift

    logP = (log_ra[:, None] + log_rb[None, :]
            + (f[:, None] + g[None, :] - sub_C) / eps)
    sub_plan = np.exp(logP)

    plan = np.zeros_like(C)
    plan[np.ix_(active_a, active_b)] = sub_plan
    row_full = plan.sum(axis=1)
    col_full = plan.sum(axis=0)
    viol_a = float(np.abs(row_full - aw).sum())
    viol_b = float(np.abs(col_full - bw).sum())
    mass = float(row_full.sum())

    # Reinsert dropped atoms with tight-completion potentials.
    f_full = np.zeros(aw.size)
    g_full = np.zeros(bw.size)
    f_full[active_a] = f
    g_full[active_b] = g
    dropped_a = np.flatnonzero(aw == 0)
    dropped_b = np.flatnonzero(bw == 0)
    if dropped_a.size:
        M = (C[np.ix_(dropped_a, active_b)] - g[None, :]
             - eps * log_rb[None, :])
        f_full[dropped_a] = _softmin_rows(M, np.ones_like(sub_b), eps)
    if dropped_b.size:
        M = (C[np.ix_(active_a, dropped_b)].T - f[None, :]
             - eps * log_ra[None, :])
        g_full[dropped_b] = _softmin_rows(M, np.ones_like(sub_a), eps)

    state = SinkhornState(
        f=f_full,
        g=g_full,
        epsilon=eps,
        iteration=iteration,
        status=status,
        trace=trace,
        history=history,
    )
    atol = max(1.5 * max(viol_a, viol_b) + 1e-15, tolerances.marginal)
    coupling = Coupling(plan, aw, bw, atol=atol, tolerances=tolerances)
    cost_reg = float(f_full @ aw + g_full @ bw) - eps * (mass - 1.0)
    cost_linear = float(np.sum(plan * C))
    return SinkhornResult(state, coupling, cost_reg, cost_linear)


def kl_projection_row(P, a, tolerances: Tolerances = DEFAULT_TOLERANCES) -> Coupling:
    """KL projection of a positive matrix onto the row-marginal constraint.

    Rescales each row of P to sum to ``a_i``: the minimizer of
    ``KL(Q | P)`` over couplings with row marginal a.  Rows with positive
    target but zero current mass are rejected.
    """
    P = np.asarray(P, dtype=float)
    a = np.asarray(a, dtype=float)
    if P.ndim != 2 or P.shape[0] != a.size:
        raise ValidationError("plan and row marginal sizes disagree")
    if np.any(P < 0):
        raise ValidationError("plan must be nonnegative")
    row = P.sum(axis=1)
    bad = (row == 0) & (a > 0)
    if np.any(bad):
        raise ValidationError(
            f"row {int(np.flatnonzero(bad)[0])} has zero mass but "
            "positive target"
        )
    scale = np.divide(a, row, out=np.zeros_like(a), where=row > 0)
    Q = P * scale[:, None]
    return Coupling(Q, a, Q.sum(axis=0), tolerances=tolerances)


def kl_projection_col(P, b, tolerances: Tolerances = DEFAULT_TOLERANCES) -> Coupling:
    """KL projection onto the column-marginal constraint (see row version)."""
    P = np.asarray(P, dtype=float)
    b = np.asarray(b, dtype=float)
    if P.ndim != 2 or P.shape[1] != b.size:
        raise ValidationError("plan and column marginal sizes disagree")
    if np.any(P < 0):
        raise ValidationError("plan must be nonnegative")
    col = P.sum(axis=0)
    bad = (col == 0) & (b > 0)
    if np.any(bad):
        raise ValidationError(
            f"column {int(np.flatnonzero(bad)[0])} has zero mass but "
            "positive target"
        )
    scale = np.divide(b, col, out=np.zeros_like(b), where=col > 0)
    Q = P * scale[None, :]
    return Coupling(Q, Q.sum(axis=1), b, tolerances=tolerances)


def hilbert_metric(u, v) -> float:
    """Hilbert projective distance between positive vectors.

    ``d_H(u, v) = max_i log(u_i / v_i) - min_i log(u_i / v_i)``; zero iff
    the vectors are proportional.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValidationError("hilbert_metric expects two 1-D arrays of equal size")
    if np.any(u <= 0) or np.any(v <= 0):
        raise ValidationError("hilbert_metric requires strictly positive vectors")
    r = np.log(u) - np.log(v)
    return float(np.ptp(r))


_EXHAUSTIVE_LIMIT = 64


def contraction_eta_lambda(K):
    """Birkhoff contraction data of a positive kernel.

    Returns ``(eta, lam)`` with ``eta = max K_ik K_jl / (K_jk K_il)`` and
    ``lam = (sqrt(eta) - 1) / (sqrt(eta) + 1)``; one full Sinkhorn
    iteration contracts the Hilbert distance of the scaling by lam^2.

    For matrices with at most 64 entries the quadruple maximum is
    evaluated exhaustively in the log domain; larger kernels use the
    equivalent row-pairwise variation form
    ``log eta = max_{i<j} [max_k (L_ik - L_jk) - min_k (L_ik - L_jk)]``.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2:
        raise ValidationError("kernel must be a matrix")
    if np.any(K <= 0):
        raise ValidationError("kernel must be strictly positive")
    L = np.log(K)
    if K.size <= _EXHAUSTIVE_LIMIT:
        T = (L[:, None, :, None] + L[None, :, None, :]
             - L[None, :, :, None] - L[:, None, None, :])
        log_eta = float(T.max())
    else:
        D = L[:, None, :] - L[None, :, :]
        log_eta = float((D.max(axis=2) - D.min(axis=2)).max())
    eta = float(np.exp(log_eta))
    root = np.exp(0.5 * log_eta)
    lam = 1.0 if not np.isfinite(root) else float((root - 1.0) / (root + 1.0))
    return eta, lam


def sinkhorn_divergence(a, b, C_ab, C_aa, C_bb, config: SinkhornConfig,
                        tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Debiased entropic divergence.

    ``S(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2`` where
    each term is the regularized value ``cost_reg`` of a Sinkhorn solve
    with the same configuration.  Identical arguments give exactly zero
    because the three solves coincide.
    """
    res_ab = sinkhorn(a, b, C_ab, config, tolerances)
    res_aa = sinkhorn(a, a, C_aa, config, tolerances)
    res_bb = sinkhorn(b, b, C_bb, config, tolerances)
    return res_ab.cost_reg - 0.5 * res_aa.cost_reg - 0.5 * res_bb.cost_reg
