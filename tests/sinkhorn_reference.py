"""The log-domain Sinkhorn loop, kept as a differential reference.

This is `otkit.entropic.sinkhorn` as it was before the loop moved onto an
absorbed kernel: every half-update is a soft minimum over a full n x m
matrix, and the stop check rebuilds the log-plan and takes two
``logsumexp`` reductions.  It is slow and it is not used by the package;
``tests/test_entropic.py`` fuzzes the package loop against it.
"""

import numpy as np
from scipy.special import logsumexp

from otkit.entropic import SinkhornResult, SinkhornState, SinkhornTraceRecord
from otkit.errors import ValidationError
from otkit.measures import (MARGINAL_TOL, Coupling, check_cost_matrix,
                            check_weights)


def _softmin_rows(M, weights, epsilon):
    """Soft minimum of each row of M against positive weights."""
    m = M.min(axis=1)
    z = np.sum(weights[None, :] * np.exp(-(M - m[:, None]) / epsilon), axis=1)
    return m - epsilon * np.log(z)


def sinkhorn_log_domain(a, b, C, config):
    """Same contract as `otkit.entropic.sinkhorn`; ``log_domain`` is ignored."""
    aw = check_weights(a, "a", probability=True)
    bw = check_weights(b, "b", probability=True)
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
    trace = []
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
        converged = False
        while iteration < config.max_iter:
            iteration += 1
            f_old = f
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

    stop_viol = (viol_a, viol_b)

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
        viol_a=stop_viol[0],
        viol_b=stop_viol[1],
        trace=trace,
        history=history,
    )
    atol = max(1.5 * max(viol_a, viol_b) + 1e-15, MARGINAL_TOL)
    coupling = Coupling(plan, aw, bw, atol=atol)
    cost_reg = float(f_full @ aw + g_full @ bw) - eps * (mass - 1.0)
    cost_linear = float(np.sum(plan * C))
    return SinkhornResult(state, coupling, cost_reg, cost_linear)
