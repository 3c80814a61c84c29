"""Every result an iterative solver returns describes itself truly, at every
budget: what it reports is recomputed here in plain numpy and compared."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit.entropic import SinkhornConfig, sinkhorn
from otkit.errors import ValidationError

from conftest import exponent_rounding, l1_violations, potential_plan

# The sweep runs every budget from 1 to the converged count + 1, or to
# SWEEP_CAP when a solve takes longer; the cap keeps the quadratic cost of
# a sweep to a fraction of a second.
SWEEP_CAP = 150


def sweep_instance(seed, n, m, zero_a, zero_b, log10_scale, eps_decade,
                   stages):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = rng.random((m, 2))
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    C = C * 10.0 ** log10_scale
    a = rng.exponential(size=n) + 1e-3
    b = rng.exponential(size=m) + 1e-3
    if zero_a and n > 1:
        a[rng.integers(n)] = 0.0
    if zero_b and m > 1:
        b[rng.integers(m)] = 0.0
    a, b = a / a.sum(), b / b.sum()
    # Down to eps = 1e-3 mean(C), where the scalings are absorbed and the
    # scaling-domain kernel may underflow.
    eps = 10.0 ** (eps_decade + rng.random()) * float(C.mean())
    schedule = tuple(eps * 2.0 ** k for k in range(stages - 1, -1, -1))
    return a, b, C, schedule


def assert_describes_itself(a, b, C, cfg, res):
    """The reported plan, violations, cost_reg and status agree with a
    recomputation from the reported potentials at the reported eps."""
    state = res.state
    eps = state.epsilon
    assert eps in (cfg.epsilon_schedule or (cfg.epsilon,))
    P = potential_plan(a, b, C, state.f, state.g, eps)
    viol_a, viol_b = l1_violations(P, a, b)
    rounding = exponent_rounding(a, b, C, state.f, state.g, eps)
    mass = float(P.sum())
    assert np.abs(P - res.coupling.plan).sum() <= rounding * mass
    assert abs(viol_a - state.viol_a) <= rounding * mass
    assert abs(viol_b - state.viol_b) <= rounding * mass
    dual = float(state.f @ a + state.g @ b) - eps * (mass - 1.0)
    scale = float(np.abs(state.f[a > 0]).max() + np.abs(state.g[b > 0]).max())
    assert abs(res.cost_reg - dual) <= rounding * (scale + eps * mass)
    if state.status == "optimal":
        assert eps == cfg.epsilon
        assert max(viol_a, viol_b) <= cfg.marginal_tol + rounding * mass
    else:
        assert state.status == "max_iter"
        assert state.iteration == cfg.max_iter


def solve(a, b, C, cfg):
    try:
        return sinkhorn(a, b, C, cfg)
    except ValidationError:
        return None


def same_result(r1, r2):
    s1, s2 = r1.state, r2.state
    return ((s1.status, s1.iteration, s1.epsilon, s1.viol_a, s1.viol_b,
             s1.f.tobytes(), s1.g.tobytes(), r1.coupling.plan.tobytes(),
             r1.cost_reg, r1.cost_linear)
            == (s2.status, s2.iteration, s2.epsilon, s2.viol_a, s2.viol_b,
                s2.f.tobytes(), s2.g.tobytes(), r2.coupling.plan.tobytes(),
                r2.cost_reg, r2.cost_linear))


class TestSinkhornBudgetSweep:
    """About 2,200 solves in 3 s on a 2-CPU machine."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           m=st.integers(1, 6), zero_a=st.booleans(), zero_b=st.booleans(),
           log10_scale=st.floats(-8.0, 8.0), eps_decade=st.integers(-3, 0),
           stages=st.integers(1, 4), log_domain=st.booleans(),
           overrelax=st.booleans())
    def test_every_budget(self, seed, n, m, zero_a, zero_b, log10_scale,
                          eps_decade, stages, log_domain, overrelax):
        a, b, C, schedule = sweep_instance(seed, n, m, zero_a, zero_b,
                                           log10_scale, eps_decade, stages)
        cfg = SinkhornConfig(epsilon=schedule[-1], max_iter=SWEEP_CAP,
                             marginal_tol=1e-9, log_domain=log_domain,
                             epsilon_schedule=schedule, overrelax=overrelax)
        full = solve(a, b, C, replace(cfg, record_trace=True))
        if full is not None and full.state.status == "optimal":
            last = full.state.iteration + 1
        else:
            last = SWEEP_CAP
        failed = False
        for budget in range(1, last + 1):
            budget_cfg = replace(cfg, max_iter=budget)
            res = solve(a, b, C, budget_cfg)
            if res is None:
                # Only the scaling domain rejects a solve, and once it has
                # overflowed a larger budget cannot avoid it.
                assert not log_domain
                failed = True
                continue
            assert not failed
            assert_describes_itself(a, b, C, budget_cfg, res)
            if full is None:
                continue
            if budget >= full.state.iteration:
                assert same_result(res, full)
            else:
                # The budget ran out at iteration `budget` of the full solve.
                rec = full.state.trace[budget - 1]
                assert res.state.iteration == budget
                assert ((res.state.epsilon, res.state.viol_a, res.state.viol_b)
                        == (rec.epsilon, rec.viol_a, rec.viol_b))
