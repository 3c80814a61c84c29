"""Every result an iterative solver returns describes itself truly, at every
budget: what it reports is recomputed here in plain numpy and compared."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import _mincostflow
from otkit.dynamics import FunctionalSpec, gradient_flow
from otkit.entropic import SinkhornConfig, sinkhorn
from otkit.errors import ConvergenceError, ValidationError
from otkit.exact import solve_kantorovich
from otkit.semidiscrete import (LloydConfig, Sampler, SemiDiscreteProblem,
                                SGDConfig, lloyd_quantize, sgd_solve)
from otkit.w1 import FlowGraph, SignedDiscreteMeasure, flat_norm, w1_graph_beckmann

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


@contextmanager
def flow_engine(budget=None):
    """Collect the push count of every flow solve run inside, with the push
    budget set to ``budget``, or left at its default when None."""
    pushes = []
    loop = _mincostflow._successive_shortest_paths

    def counting(*args):
        out = loop(*args)
        pushes.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_mincostflow, "_successive_shortest_paths", counting)
        if budget is not None:
            mp.setattr(_mincostflow, "_push_budget", lambda n, m: budget)
        yield pushes


def sweep_push_budget(solve):
    """Run ``solve`` (one flow solve, returning bytes-comparable values) at
    every push budget from 0 to its push count + 1."""
    with flow_engine() as pushes:
        full = solve()
    (count,) = pushes
    for budget in range(count + 2):
        with flow_engine(budget) as budget_pushes:
            if budget < count:
                with pytest.raises(ConvergenceError):
                    solve()
            else:
                assert solve() == full
                assert budget_pushes == pushes


def flow_instance(seed, n, m, zero, duplicate, log10_scale):
    """Points in [0, 1]^2 with exponential weights; optionally one zero
    weight on each side and one source point repeated."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = rng.random((m, 2))
    if duplicate and n > 1:
        x[-1] = x[0]
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1) * 10.0 ** log10_scale
    a = rng.exponential(size=n) + 1e-3
    b = rng.exponential(size=m) + 1e-3
    if zero and n > 1:
        a[rng.integers(n)] = 0.0
    if zero and m > 1:
        b[rng.integers(m)] = 0.0
    return x, a / a.sum(), b / b.sum(), C


FLOW_SWEEP = settings(max_examples=30, deadline=None, derandomize=True)
FLOW_DRAWS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
                  m=st.integers(1, 5), zero=st.booleans(),
                  duplicate=st.booleans(), log10_scale=st.floats(-8.0, 8.0))


class TestPushBudgetSweep:
    """Below its push count a flow solve raises ConvergenceError; from it
    up it returns the default-budget solve bit for bit.  About 0.5 s for
    90 instances on a 2-CPU machine."""

    @FLOW_SWEEP
    @given(**FLOW_DRAWS)
    def test_solve_kantorovich(self, seed, n, m, zero, duplicate, log10_scale):
        _, a, b, C = flow_instance(seed, n, m, zero, duplicate, log10_scale)

        def solve():
            res = solve_kantorovich(a, b, C)
            return (res.coupling.plan.tobytes(), res.potentials.f.tobytes(),
                    res.potentials.g.tobytes(), res.iterations, res.cost)

        sweep_push_budget(solve)

    @FLOW_SWEEP
    @given(**FLOW_DRAWS)
    def test_flat_norm(self, seed, n, m, zero, duplicate, log10_scale):
        x, a, b, _ = flow_instance(seed, n, m, zero, duplicate, log10_scale)
        masses = a - np.resize(b, n)
        D = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        measure = SignedDiscreteMeasure(x, masses)
        sweep_push_budget(lambda: flat_norm(measure, D * 10.0 ** log10_scale))

    @FLOW_SWEEP
    @given(**FLOW_DRAWS)
    def test_w1_graph_beckmann(self, seed, n, m, zero, duplicate, log10_scale):
        _, a, b, C = flow_instance(seed, n + 1, m + 1, zero, duplicate,
                                   log10_scale)
        # A path through the k sources, each also joined to the sink k.
        k = n + 1
        edges = ([(i, i + 1, float(C[i, 0]) + 1e-3) for i in range(k - 1)]
                 + [(i, k, float(C[i, -1]) + 1e-3) for i in range(k)])
        graph = FlowGraph(k + 1, edges, np.append(a, -1.0))

        def solve():
            value, flow = w1_graph_beckmann(graph)
            return value, flow.tobytes()

        sweep_push_budget(solve)


class TestInnerBudgetSweep:
    """An implicit gradient flow raises ConvergenceError below some inner
    budget and returns the default-budget trajectory bit for bit from it
    up.  About 0.5 s for 30 flows on a 2-CPU machine."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           duplicate=st.booleans(), interaction=st.booleans(),
           dt=st.sampled_from([0.05, 0.25, 0.5]))
    def test_gradient_flow(self, seed, n, duplicate, interaction, dt):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((n, 2))
        if duplicate and n > 1:
            x0[-1] = x0[0]
        if interaction:
            spec = FunctionalSpec.interaction(
                lambda x, y: 0.5 * np.sum((x - y) ** 2, axis=-1),
                lambda x, y: x - y, dim=2)
        else:
            spec = FunctionalSpec.linear(
                lambda x: 0.5 * np.sum(x * x, axis=-1), lambda x: x, dim=2)

        def flow(max_inner=200000):
            traj = gradient_flow(spec, x0, dt, 2 * dt, scheme="implicit",
                                 max_inner=max_inner)
            return traj.times.tobytes(), traj.states.tobytes()

        full = flow()
        budget = 0
        while budget < SWEEP_CAP:
            try:
                result = flow(budget)
            except ConvergenceError:
                budget += 1
                continue
            break
        assert budget < SWEEP_CAP
        assert result == full
        assert flow(budget + 1) == full


def unit_box_draw(seed, n, dim):
    """The first ``n`` points a unit-box sampler draws from ``seed``."""
    return np.random.default_rng(seed).uniform(np.zeros(dim), np.ones(dim),
                                               size=(n, dim))


def nearest(points, centers, g=0.0):
    """argmin_j |x - y_j|^2 - g_j for each point (lowest index on ties) and
    the minimum squared distance."""
    sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    cell = np.argmin(sq - g, axis=1)
    return cell, sq[np.arange(points.shape[0]), cell]


BOX_DRAWS = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
                 dim=st.integers(1, 2))


class TestSGDBudgetSweep:
    """At every ``n_iter`` the last trace record names the budget, the step
    size of the last step, and the held-out marginal error of the returned
    g.  About 1.5 s for 4 problems of 1 to 240 steps on a 2-CPU machine."""

    BUDGET = 240
    EVAL_EVERY = 7  # does not divide BUDGET, so the last record is extra
    HELDOUT = 50

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(tau0=st.sampled_from([0.01, 1.0]), **BOX_DRAWS)
    def test_every_budget(self, seed, m, dim, tau0):
        rng = np.random.default_rng(seed)
        weights = rng.exponential(size=m) + 1e-3
        problem = SemiDiscreteProblem(
            Sampler.uniform_box(np.zeros(dim), np.ones(dim)),
            rng.random((m, dim)), weights / weights.sum())
        b = problem.target_weights
        # sgd_solve draws its held-out points from the second spawn.
        heldout = unit_box_draw(np.random.SeedSequence(seed).spawn(2)[1],
                                self.HELDOUT, dim)
        cfg = SGDConfig(n_iter=self.BUDGET, seed=seed, tau0=tau0,
                        eval_every=self.EVAL_EVERY,
                        heldout_samples=self.HELDOUT)
        _, longest = sgd_solve(problem, cfg)
        for n_iter in range(1, self.BUDGET + 1):
            g, trace = sgd_solve(problem, replace(cfg, n_iter=n_iter))
            evals = n_iter // self.EVAL_EVERY
            assert trace[:evals] == longest[:evals]
            assert len(trace) == evals + (n_iter % self.EVAL_EVERY != 0)
            last = trace[-1]
            assert last.iteration == n_iter
            assert last.step_size == tau0 / (1.0 + (n_iter - 1) / cfg.ell0)
            cell, _ = nearest(heldout, problem.targets, g)
            counts = np.bincount(cell, minlength=m)
            assert last.marginal_error == float(
                np.abs(counts / self.HELDOUT - b).sum())


class TestLloydBudgetSweep:
    """At every ``n_iter`` the returned masses and cost are those of the
    returned centroids on the sample set, and the cost does not grow with
    the budget.  About 0.2 s for 12 problems on a 2-CPU machine."""

    BUDGET = 15

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n_samples=st.integers(1, 60), **BOX_DRAWS)
    def test_every_budget(self, seed, m, dim, n_samples):
        sampler = Sampler.uniform_box(np.zeros(dim), np.ones(dim))
        # The samples are lloyd_quantize's first draw from its seed.
        samples = unit_box_draw(seed, n_samples, dim)
        costs = []
        for n_iter in range(self.BUDGET + 1):
            centroids, masses, cost = lloyd_quantize(
                sampler, m, LloydConfig(n_iter=n_iter, seed=seed,
                                        n_samples=n_samples))
            assert centroids.shape == (m, dim)
            cell, sq = nearest(samples, centroids)
            assert np.array_equal(masses,
                                  np.bincount(cell, minlength=m) / n_samples)
            assert abs(cost - sq.mean()) <= 1e-12 * sq.mean()
            costs.append(cost)
        for before, after in zip(costs, costs[1:]):
            assert after <= before * (1.0 + 1e-12)
