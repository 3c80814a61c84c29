"""Entropic optimal transport: Sinkhorn iterations and their diagnostics.

The regularized problem is parametrized by potentials (f, g) through

    P_ij = a_i b_j exp((f_i + g_j - C_ij) / eps).

One full iteration updates f (making row sums equal a) and then g (making
column sums equal b).  In the log domain the update is the soft minimum

    f_i  <-  min^eps_b(C_i. - g),
    min^eps_w(h) = -eps log sum_j w_j exp(-h_j / eps),

evaluated with max subtraction so overflow cannot occur, but it costs
several passes over the n x m matrix.  `sinkhorn` therefore iterates on an
absorbed kernel (Schmitzer 2019, "Stabilized sparse scaling algorithms for
entropy regularized transport problems"): it keeps potentials (fh, gh) and
the kernel K = P(fh, gh), writes f = fh + eps log u, g = gh + eps log v,
and updates the scalings by u = a / (K v), v = b / (K^T u), two mat-vecs
per iteration that also give both marginals for the stop test.  Each stage
starts with one log-domain f update and a kernel built at the result, so
every kernel row sums to a_i.  When a scaling turns zero, non-finite or
leaves [1e-50, 1e50] it is absorbed into the potentials, that half-update
is redone in the log domain, and the kernel is rebuilt.  A rebuild is one
exp pass over the matrix: with M = C - g - eps log b and m its row minima,
the soft minimum's exponentials E = exp(-(M - m) / eps), with row sums S,
give both f = m - eps log S and the kernel diag(a / S) E, formed in place
(and likewise for a g update on C^T).  The returned plan is
diag(u) K diag(v), so a solve holds the kernel and the plan and no other
n x m array.  With ``log_domain=False`` the same loop runs with this
safeguard off, the plain scaling-domain algorithm, and an underflowed
kernel row or an overflow is reported as a `ValidationError`.

The dual objective

    D(f, g) = <f, a> + <g, b> - eps (mass(P) - 1)

increases at every plain half-update by eps times a generalized
Kullback-Leibler divergence between the target marginal and the current
one.  Unless ``overrelax`` is off, the scalings are over-relaxed:
u <- u (a / (K v) / u)^omega and likewise for v, which in the log domain
is f <- (1 - omega) f + omega f_sinkhorn (Thibault, Chizat, Dossal and
Papadakis, "Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
transport", arXiv:1711.01851).  Each stage starts plain and fixes omega
once, at 2 / (1 + sqrt(1 - r)) for the first rate r < 0.99 at which the
violation fell over a 5-iteration window from iteration 7 on (Lehmann, von
Renesse, Sambale and Uschmajew, "A note on overrelaxation in the Sinkhorn
algorithm", arXiv:2012.12562), so omega < 1.82.  A relaxed half-step that
would lower D, by the gain eps sum_i a_i [omega t_i - e^(-t_i)
(e^(omega t_i) - 1)] with t = log(a / (u K v)), is taken plain instead,
so D never decreases; u K v is the row marginal the stop test read.
Whatever omega, the stop test reads the marginals of the current
iterates.

An iteration updates only the scalings: the loop holds each potential as
an absorbed potential and a scaling, and forms f = fh + eps log u and
g = gh + eps log v only in an absorption, at a stop and at the end of the
budget; the next stage starts from them with unit scalings.  A trace
(``record_trace``) of the marginal violations, the Hilbert step of f and D
at every iteration, and a history (``record_history``) of (f, g) at every
half-step leave that loop as it is: an iteration only keeps references to
its scalings, absorbed potentials and row sums.  After every 64
iterations, and at the end of the solve, f, g, the mass, D and the Hilbert
step of those iterations are formed together, with the bits that forming
them one iteration at a time would give, so a trace costs little per
iteration and what it keeps beyond the records stays bounded.

Convergence diagnostics based on the Hilbert projective metric
(`hilbert_metric`, `contraction_eta_lambda`) bound the linear rate of the
plain iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .measures import (MARGINAL_TOL, Coupling, as_integer, as_number,
                       check_cost_matrix, check_matrix, check_vector,
                       check_weights)

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
    """Elementwise kernel K = exp(-C / epsilon); entries past the float
    range raise `ValidationError`, entries below it underflow to 0."""
    C = check_matrix(C, "cost matrix")
    epsilon = as_number(epsilon, "epsilon", low=0, open=True)
    try:
        with np.errstate(over="raise", under="ignore"):
            return np.exp(-C / epsilon)
    except FloatingPointError as exc:
        raise ValidationError(f"exp(-C / epsilon) overflows at epsilon "
                              f"{epsilon!r}, cost {float(C.min())!r}") from exc


def softmin(values, weights, epsilon) -> float:
    """Soft minimum min^eps_w(h) = -eps log sum_j w_j exp(-h_j / eps).

    Stabilized by subtracting the hard minimum first; tends to the hard
    minimum as eps -> 0 and to -eps log sum w_j - <mean> ... as eps grows.
    Entries of zero weight take no part.
    """
    h = check_vector(values, "values")
    w = check_weights(weights, "weights", n=h.shape[0])
    epsilon = as_number(epsilon, "epsilon", low=0, open=True)
    if not np.any(w > 0):
        raise ValidationError("softmin needs a positive weight")
    h, w = h[w > 0], w[w > 0]
    m = float(np.min(h))
    return m - epsilon * float(np.log(np.sum(w * np.exp(-(h - m) / epsilon))))


def _soft_minimum(C, h, log_w, eps):
    """The log-domain update min^eps_w(C_i. - h) of each row's potential,
    with the exponentials it sums.

    With M = C - h - eps log w and m its row minima, E = exp(-(M - m) / eps)
    has row sums S and the update is m - eps log S.  Returns it, E (a new
    array, formed in place) and S.
    """
    E = C - h[None, :]
    E -= eps * log_w[None, :]
    m = E.min(axis=1)
    E -= m[:, None]
    E /= -eps
    np.exp(E, out=E)
    S = np.sum(E, axis=1)
    return m - eps * np.log(S), E, S


def _gibbs_plan(C, f, g, epsilon, log_a, log_b):
    """The plan a_i b_j exp((f_i + g_j - C_ij) / eps) of two potentials."""
    return np.exp(log_a[:, None] + log_b[None, :]
                  + (f[:, None] + g[None, :] - C) / epsilon)


def _absorbed(C, h, s, log_w, row_w, eps):
    """Absorb the columns' scaling s into their potential h + eps log s and
    take the rows' log-domain update f = min^eps_w(C_i. - h) + 0.0, which
    is never -0.0.  Returns (h, f, K) with K the plan of (f, h), whose rows
    sum to `row_w`: (row_w / S) E, built in place from the exponentials of
    the soft minimum.  For the columns' update pass C.T and take the
    transpose of K.
    """
    h = h + eps * np.log(s)
    f, E, S = _soft_minimum(C, h, log_w, eps)
    E *= (row_w / S)[:, None]
    return h, f + 0.0, E


# Scalings are absorbed into the potentials once they leave
# [1/_ABSORB, _ABSORB]; a kernel entry below 1e-308 then moves the plan by
# at most 1e-308 * _ABSORB**2 = 1e-208.
_ABSORB = 1e50
_LOW = 1.0 / _ABSORB
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}
_STRICT = {"divide": "raise", "over": "raise", "invalid": "raise"}


def _bounded(scaling):
    """True if every entry lies in [1/_ABSORB, _ABSORB] (so none is NaN)."""
    return bool(np.minimum.reduce(scaling) >= _LOW
                and np.maximum.reduce(scaling) <= _ABSORB)


# A stage iterates plainly and measures the rate at which the violation
# falls over windows of _WINDOW iterations, the first ending at iteration
# _RATE_FROM + _WINDOW of the stage.  The first window whose rate is below
# _RATE_MAX sets omega; a slower window is taken for the plateau that can
# precede linear convergence at small eps, where a rate near 1 would
# give omega near 2 and a relaxed iteration slower than the plain one.
_RATE_FROM = 7
_WINDOW = 5
_RATE_MAX = 0.99


def _relaxation(viol_from, viol_to):
    """omega = 2 / (1 + sqrt(1 - r)) for the per-iteration rate r at which
    the violation fell from `viol_from` to `viol_to` over a window, or 1
    if r is not below _RATE_MAX; omega < 2 / (1 + sqrt(1 - _RATE_MAX)).

    This is the optimal over-relaxation of a linear iteration contracting
    at rate r (Lehmann, von Renesse, Sambale and Uschmajew,
    arXiv:2012.12562), which the plain iteration becomes near its fixed
    point.
    """
    if not viol_to < _RATE_MAX ** _WINDOW * viol_from:
        return 1.0
    rate = (viol_to / viol_from) ** (1.0 / _WINDOW)
    return 2.0 / (1.0 + (1.0 - rate) ** 0.5)


def _relaxed(x, Kx, marginal, target, omega):
    """The over-relaxed scaling x (target / marginal)**omega, or the plain
    target / Kx where that would lower the dual objective; ``marginal`` is
    x * Kx.

    With t = log(target / marginal), the step multiplies the marginal by
    e^(omega t) and raises D by eps * sum_i target_i [omega t_i -
    e^(-t_i) (e^(omega t_i) - 1)], which is eps * (omega <target, t> -
    <marginal, expm1(omega t)>) since marginal = target e^(-t).  The plain
    step (omega = 1) raises D by eps times a Kullback-Leibler divergence, so
    taking it whenever the relaxed gain is negative keeps D nondecreasing
    (Thibault, Chizat, Dossal and Papadakis, arXiv:1711.01851).
    """
    t = np.log(target / marginal)
    growth = np.expm1(omega * t)
    if omega * (target @ t) - marginal @ growth >= 0.0:
        growth += 1.0
        growth *= x
        return growth
    return target / Kx


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.  The plan is a_i b_j exp((f_i + g_j - C_ij) / eps)
    for the potentials (f, g) that `sinkhorn` returns.

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
        Keep the log-domain safeguard of the kernel iterations on
        (default): the first update of each stage, and any update whose
        scaling leaves [1e-50, 1e50], is taken as a soft minimum and the
        kernel is rebuilt.  Off, the iterations scale the kernel at the
        stage's starting potentials and never absorb; that overflows for
        small epsilon and is rejected when it does.
    epsilon_schedule : sequence of float or None
        Strictly decreasing epsilons ending exactly at ``epsilon``; each
        stage runs to tolerance and warm-starts the next.
    record_history : bool
        Keep the pair (f, g) after every half-update in
        ``SinkhornState.history``, starting with the initial pair.  The
        pairs are formed after the loop, as the trace records are.
    record_trace : bool
        Keep one `SinkhornTraceRecord` per iteration in
        ``SinkhornState.trace``.  An iteration computes only what the stop
        test and the absorption need, traced or not; with a trace it also
        keeps references to its scalings, and the records of every 64
        iterations, and of the last ones, are formed together after the
        loop has run them.  Off (default), the trace stays empty.
    overrelax : bool
        Over-relax the scaling updates (default).  A stage starts with
        plain iterations and measures the rate r at which the violation
        falls over 5 iterations, first over iterations 7-12 and then over
        each later 5 until r < 0.99.  From then on every half-step moves a
        scaling by ``(plain / current)**omega`` with
        ``omega = 2 / (1 + sqrt(1 - r))`` (so omega < 1.82), unless that
        would lower the dual objective; then it takes the plain step.  Off,
        every half-step is the plain Sinkhorn step.
    """

    epsilon: float
    max_iter: int = 5000
    marginal_tol: float = 1e-8
    log_domain: bool = True
    epsilon_schedule: Sequence[float] | None = None
    record_history: bool = False
    record_trace: bool = False
    overrelax: bool = True

    def __post_init__(self):
        object.__setattr__(self, "epsilon",
                           as_number(self.epsilon, "epsilon", low=0, open=True))
        object.__setattr__(self, "max_iter",
                           as_integer(self.max_iter, "max_iter", low=1))
        object.__setattr__(self, "marginal_tol", as_number(
            self.marginal_tol, "marginal_tol", low=0, open=True))
        if self.epsilon_schedule is not None:
            sched = tuple(map(float, check_vector(self.epsilon_schedule,
                                                  "epsilon_schedule")))
            if not sched:
                raise ValidationError("epsilon_schedule must be nonempty")
            if any(not e > 0 for e in sched):
                raise ValidationError("epsilon_schedule entries must be positive")
            if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])):
                raise ValidationError("epsilon_schedule must be strictly decreasing")
            if sched[-1] != self.epsilon:
                raise ValidationError(
                    "epsilon_schedule must end at the target epsilon"
                )
            object.__setattr__(self, "epsilon_schedule", sched)


class SinkhornTraceRecord(NamedTuple):
    """One iteration of a traced solve: its stage's eps, the L1 marginal
    violations of its stop test, D(f, g) and the Hilbert step
    max - min of (f - f_previous) / eps."""

    iteration: int
    epsilon: float
    viol_a: float
    viol_b: float
    dual: float
    hilbert_step: float


# A trace or history is formed every _TRACE_BLOCK iterations, so what a
# solve keeps of the iterations not yet formed stays bounded.
_TRACE_BLOCK = 64


def _rows(arrays):
    """Equally long 1-D arrays as the rows of one array."""
    return np.concatenate(arrays).reshape(len(arrays), -1)


def _stacked(eps, absorbed, scalings):
    """The potentials ``absorbed + eps log(scaling)`` of a block's
    iterations as rows."""
    rows = np.log(_rows(scalings))
    rows *= eps
    rows += _rows(absorbed)
    return rows


def _row_dots(rows, x):
    """The 1-D dot ``row @ x`` of each row, with its bits: a matrix-vector
    product adds the terms in another order.  `np.vecdot` (numpy >= 2)
    takes the same dots in one call."""
    if hasattr(np, "vecdot"):
        return np.vecdot(rows, x)
    return np.array([row @ x for row in rows])


def _trace_block(block, last, a, b, trace, history):
    """Append the records of a block of iterations to `trace` and its
    history pairs to `history` (either may be None), empty the block and
    return its last (f, g).

    An entry of `block` holds what one iteration of `sinkhorn` had:
    ``(eps, fh, u, gh, v, row, viol_a, viol_b)``, and `last` is the (f, g)
    before the block.  Every value has the bits it would have if formed
    in the iteration: the arithmetic is elementwise or a reduction along
    each row, and ``f @ a`` and ``g @ b`` are 1-D dots (`_row_dots`).  An
    iteration's f half-step leaves the g of the iteration before.
    """
    eps, fh, u, gh, v, row, viol_a, viol_b = zip(*block)
    eps_rows = np.array(eps)
    F = _stacked(eps_rows[:, None], fh, u)
    G = _stacked(eps_rows[:, None], gh, v)
    if trace is not None:
        steps = (np.diff(F, axis=0, prepend=last[0][None, :])
                 / eps_rows[:, None])
        hilbert = steps.max(axis=1) - steps.min(axis=1)
        dual = (_row_dots(F, a) + _row_dots(G, b)
                - eps_rows * (_rows(row).sum(axis=1) - 1.0))
        start = len(trace) + 1
        trace.extend(map(SinkhornTraceRecord,
                         range(start, start + len(block)), eps, viol_a,
                         viol_b, dual.tolist(), hilbert.tolist()))
    if history is not None:
        for f, g_before, g in zip(F, (last[1], *G[:-1]), G):
            history += [(f, g_before), (f, g)]
    block.clear()
    return F[-1], G[-1]


@dataclass
class SinkhornState:
    """Converged (or budget-exhausted) potentials.

    ``viol_a`` and ``viol_b`` are the L1 marginal violations of the last
    stop test, taken on the iterates rather than on the returned plan.
    ``trace`` holds one record per iteration when the config asked for it
    (``record_trace``) and is empty otherwise; ``history`` holds (f, g)
    after every half-step (``record_history``) and is None otherwise.  Both
    are formed after the loop, from the potentials and scalings it kept.
    """

    f: np.ndarray
    g: np.ndarray
    epsilon: float
    iteration: int
    status: str
    viol_a: float
    viol_b: float
    trace: list = field(default_factory=list)
    history: list | None = None


class SinkhornResult(NamedTuple):
    state: SinkhornState
    coupling: Coupling
    cost_reg: float
    cost_linear: float


def sinkhorn(a, b, C, config: SinkhornConfig) -> SinkhornResult:
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
    aw = check_weights(a, "a", probability=True)
    bw = check_weights(b, "b", probability=True)
    C = check_cost_matrix(C, (aw.size, bw.size))

    active_a = np.flatnonzero(aw > 0)
    active_b = np.flatnonzero(bw > 0)
    sub_a = aw[active_a]
    sub_b = bw[active_b]
    # With no zero-weight atom the solve runs on C itself.
    full = active_a.size == aw.size and active_b.size == bw.size
    sub_C = np.ascontiguousarray(C) if full else C[np.ix_(active_a, active_b)]

    stages = config.epsilon_schedule or (config.epsilon,)
    f = np.zeros(sub_a.size)
    g = np.zeros(sub_b.size)
    trace = [] if config.record_trace else None
    history = [(f, g)] if config.record_history else None

    log_a = np.log(sub_a)
    log_b = np.log(sub_b)
    ones_a = np.ones(sub_a.size)
    ones_b = np.ones(sub_b.size)

    def returned(f, g, K, u, v):
        """The potentials with the dual value split evenly between them,
        the full plan diag(u) K diag(v) they give, its row sums and its L1
        marginal violations."""
        shift = 0.5 * (float(f @ sub_a) - float(g @ sub_b))
        f, g = f - shift, g + shift
        plan = K * u[:, None]
        plan *= v
        if not full:
            sub_plan, plan = plan, np.zeros_like(C)
            plan[np.ix_(active_a, active_b)] = sub_plan
        rows = plan.sum(axis=1)
        return (f, g, plan, rows, float(np.abs(rows - aw).sum()),
                float(np.abs(plan.sum(axis=0) - bw).sum()))

    # The plan is diag(u) K diag(v) with K the plan of the absorbed
    # potentials (fh, gh); the loop holds only (fh, u) and (gh, v), and a
    # stage starts from the last one's (f, g) with unit scalings.  Row sums
    # u * Kv and column sums v * K^T u come from the two mat-vecs an
    # iteration makes anyway.  With the safeguard on, the first f half-step
    # of each stage, and any half-step whose scaling is zero, non-finite or
    # outside [1/_ABSORB, _ABSORB], is taken plain in the log domain
    # (`_absorbed`) and K is rebuilt.  f = fh + eps log u and
    # g = gh + eps log v are formed only in an absorption, at a stop and at
    # the end of the budget.  At unit scalings that is fh (gh) bit for bit:
    # h + 0.0 = h unless h is -0.0, and no absorbed potential is: a sum is
    # -0.0 only if both terms are, and each one starts as +0.0 zeros or
    # ends in `_absorbed`'s + 0.0.  That + 0.0 is needed: a soft minimum is
    # -0.0 where a column of weight 1 holds its row's minimum -0.0, and f
    # would keep that sign where eps log u underflows to -0.0 (u just below
    # 1 at eps below 1e-307).
    # A trace or a history keeps each iteration in `block`; `_trace_block`
    # forms it every _TRACE_BLOCK iterations and at the end of the solve.
    # omega is 1 (plain steps) until a stage's plain iterations have
    # measured the rate that sets it; a relaxed half-step that would lower
    # the dual objective is taken plain (`_relaxed`).
    safeguard = config.log_domain
    keep = trace is not None or history is not None
    block = []
    last = f, g
    iteration = 0
    status = "max_iter"
    eps = float(stages[0])
    with np.errstate(**(_QUIET if safeguard else _STRICT)):
        try:
            for stage_idx, stage_eps in enumerate(stages):
                if iteration == config.max_iter:
                    # The budget ended as the previous stage stopped; its
                    # potentials, eps and plan are returned together.
                    break
                eps = float(stage_eps)
                final_stage = stage_idx == len(stages) - 1
                stage_start = iteration
                omega = 1.0
                fh, gh, u, v = f, g, ones_a, ones_b
                K = None
                if not safeguard:
                    K = _gibbs_plan(sub_C, fh, gh, eps, log_a, log_b)
                    Kv = K.sum(axis=1)
                converged = False
                while iteration < config.max_iter:
                    iteration += 1
                    if K is not None:
                        u = (sub_a / Kv if omega == 1.0 else
                             _relaxed(u, Kv, row, sub_a, omega))
                    if K is None or (safeguard and not _bounded(u)):
                        gh, fh, K = _absorbed(sub_C, gh, v, log_b, sub_a, eps)
                        u, v = ones_a, ones_b
                    Ktu = K.T @ u
                    v = (sub_b / Ktu if omega == 1.0 else
                         _relaxed(v, Ktu, v * Ktu, sub_b, omega))
                    if safeguard and not _bounded(v):
                        fh, gh, K = _absorbed(sub_C.T, fh, u, log_a, sub_b,
                                              eps)
                        K = K.T
                        u, v = ones_a, ones_b
                        Ktu = K.sum(axis=0)
                    Kv = K @ v
                    row = u * Kv
                    viol_a = float(np.add.reduce(np.abs(row - sub_a)))
                    viol_b = float(np.add.reduce(np.abs(v * Ktu - sub_b)))
                    if keep:
                        block.append((eps, fh, u, gh, v, row, viol_a, viol_b))
                        if len(block) == _TRACE_BLOCK:
                            last = _trace_block(block, last, sub_a, sub_b,
                                                trace, history)
                    stop = max(viol_a, viol_b) <= config.marginal_tol
                    if stop or iteration == config.max_iter:
                        f = fh + eps * np.log(u)
                        g = gh + eps * np.log(v)
                    if stop:
                        # The final stage stops only once the plan it
                        # returns meets the tolerance too.
                        if final_stage:
                            out = returned(f, g, K, u, v)
                        converged = (not final_stage
                                     or max(out[4:]) <= config.marginal_tol)
                        if converged:
                            break
                    done = iteration - stage_start - _RATE_FROM
                    if (config.overrelax and omega == 1.0 and done >= 0
                            and done % _WINDOW == 0):
                        viol = max(viol_a, viol_b)
                        if done:
                            omega = _relaxation(viol_from, viol)
                        viol_from = viol
                if not converged:
                    # Budget exhausted; the potentials belong to this
                    # stage's eps.
                    status = "max_iter"
                    break
                if final_stage:
                    status = "optimal"
            if block:
                _trace_block(block, last, sub_a, sub_b, trace, history)
        except FloatingPointError as exc:
            raise ValidationError(
                "scaling-domain Sinkhorn overflowed; use log_domain=True"
            ) from exc

    if status != "optimal":
        out = returned(f, g, K, u, v)
    f, g, plan, rows, plan_viol_a, plan_viol_b = out
    mass = float(rows.sum())

    # Reinsert dropped atoms with tight-completion potentials.
    f_full = np.zeros(aw.size)
    g_full = np.zeros(bw.size)
    f_full[active_a] = f
    g_full[active_b] = g
    dropped_a = np.flatnonzero(aw == 0)
    dropped_b = np.flatnonzero(bw == 0)
    if dropped_a.size:
        f_full[dropped_a] = _soft_minimum(C[np.ix_(dropped_a, active_b)],
                                          g, log_b, eps)[0]
    if dropped_b.size:
        g_full[dropped_b] = _soft_minimum(C[np.ix_(active_a, dropped_b)].T,
                                          f, log_a, eps)[0]

    state = SinkhornState(
        f=f_full,
        g=g_full,
        epsilon=eps,
        iteration=iteration,
        status=status,
        viol_a=viol_a,
        viol_b=viol_b,
        trace=trace if trace is not None else [],
        history=history,
    )
    atol = max(1.5 * max(plan_viol_a, plan_viol_b) + 1e-15, MARGINAL_TOL)
    coupling = Coupling(plan, aw, bw, atol=atol)
    cost_reg = float(f_full @ aw + g_full @ bw) - eps * (mass - 1.0)
    cost_linear = float(np.vdot(plan, C))
    return SinkhornResult(state, coupling, cost_reg, cost_linear)


def kl_projection_row(P, a) -> Coupling:
    """KL projection of a positive matrix onto the row-marginal constraint.

    Rescales each row of P to sum to ``a_i``: the minimizer of
    ``KL(Q | P)`` over couplings with row marginal a.  Rows with positive
    target but zero current mass are rejected.
    """
    return _kl_projection(P, a, 0)


def kl_projection_col(P, b) -> Coupling:
    """KL projection onto the column-marginal constraint (see row version)."""
    return _kl_projection(P, b, 1)


def _kl_projection(P, target, axis):
    """Rescale the rows (axis 0) or columns (axis 1) of P to sum to target."""
    side = ("row", "column")[axis]
    P = check_matrix(P, "plan")
    target = check_weights(target, f"{side} marginal", n=P.shape[axis])
    if np.any(P < 0):
        raise ValidationError("plan must be nonnegative")
    mass = P.sum(axis=1 - axis)
    bad = (mass == 0) & (target > 0)
    if np.any(bad):
        raise ValidationError(
            f"{side} {int(np.flatnonzero(bad)[0])} has zero mass but "
            "positive target"
        )
    scale = np.divide(target, mass, out=np.zeros_like(target), where=mass > 0)
    Q = P * np.expand_dims(scale, 1 - axis)
    marginals = [Q.sum(axis=1), Q.sum(axis=0)]
    marginals[axis] = target
    return Coupling(Q, *marginals)


def hilbert_metric(u, v) -> float:
    """Hilbert projective distance between positive vectors.

    ``d_H(u, v) = max_i log(u_i / v_i) - min_i log(u_i / v_i)``; zero iff
    the vectors are proportional.
    """
    u = check_vector(u, "u")
    v = check_vector(v, "v", u.shape[0])
    if not (u.size and np.all(u > 0) and np.all(v > 0)):
        raise ValidationError(
            "hilbert_metric requires nonempty, strictly positive vectors")
    r = np.log(u) - np.log(v)
    return float(np.ptp(r))


def contraction_eta_lambda(K):
    """Birkhoff contraction data of a positive kernel.

    Returns ``(eta, lam)`` with ``eta = max K_ik K_jl / (K_jk K_il)`` and
    ``lam = (sqrt(eta) - 1) / (sqrt(eta) + 1)``; one full Sinkhorn
    iteration contracts the Hilbert distance of the scaling by lam^2.

    The quadruple maximum is taken in its row-pairwise variation form
    ``log eta = max_{i, j} [max_k (L_ik - L_jk) - min_k (L_ik - L_jk)]``
    with ``L = log K``.
    """
    K = check_matrix(K, "kernel")
    if not np.all(K > 0):
        raise ValidationError("kernel must be strictly positive")
    L = np.log(K)
    D = L[:, None, :] - L[None, :, :]
    log_eta = float((D.max(axis=2) - D.min(axis=2)).max())
    with np.errstate(over="ignore"):  # past the float range eta is inf
        eta = float(np.exp(log_eta))
        root = np.exp(0.5 * log_eta)
    lam = 1.0 if not np.isfinite(root) else float((root - 1.0) / (root + 1.0))
    return eta, lam


def sinkhorn_divergence(a, b, C_ab, C_aa, C_bb,
                        config: SinkhornConfig) -> float:
    """Debiased entropic divergence.

    ``S(a, b) = OT_eps(a, b) - OT_eps(a, a)/2 - OT_eps(b, b)/2`` where
    each term is the regularized value ``cost_reg`` of a Sinkhorn solve
    with the same configuration.  Identical arguments give exactly zero
    because the three solves coincide.
    """
    res_ab = sinkhorn(a, b, C_ab, config)
    res_aa = sinkhorn(a, a, C_aa, config)
    res_bb = sinkhorn(b, b, C_bb, config)
    return res_ab.cost_reg - 0.5 * res_aa.cost_reg - 0.5 * res_bb.cost_reg
