"""Deterministic self-check suite behind ``ot selftest``.

Every check runs a small seeded instance of one solver and verifies an
identity or bound that the library promises.  All randomness comes from
fixed generator seeds and every comparison is a pure function of the
results, so the rendered report is byte-identical across runs on the
same build.

``run_selftest`` returns the report text plus an overall flag; the CLI
prints the text and maps the flag onto the exit code.
"""

import itertools

import numpy as np

from . import divergences, duality, dynamics, entropic, exact, gaussian
from . import semidiscrete, w1
from .measures import (CostSpec, DiscreteMeasure, GridDensity1D,
                       build_cost_matrix)


class CheckFailure(Exception):
    """A selftest invariant did not hold."""


def _require(condition, detail):
    if not condition:
        raise CheckFailure(detail)


def _simplex(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


def _rational_simplex(rng, n):
    # Multiples of 1/1000 survive the exact solver's integer scaling
    # without perturbation, so LP costs can be compared at ~1e-12.
    counts = rng.multinomial(1000, _simplex(rng, n)) + 1
    counts[np.argmax(counts)] -= n
    return counts / 1000.0


def _cloud_pair(seed, n, m, dim=2):
    rng = np.random.default_rng(seed)
    alpha = DiscreteMeasure(rng.standard_normal((n, dim)),
                            _rational_simplex(rng, n))
    beta = DiscreteMeasure(rng.standard_normal((m, dim)) + 0.5,
                           _rational_simplex(rng, m))
    C = build_cost_matrix(alpha, beta, CostSpec.sq_euclidean())
    return alpha, beta, C


# ---------------------------------------------------------------------------
# checks; each is a zero-argument callable that raises CheckFailure on error.
# `run_selftest` runs every check_* function in the order defined here.
# ---------------------------------------------------------------------------

def check_kantorovich_matches_assignment_enumeration():
    rng = np.random.default_rng(0)
    n = 5
    C = rng.random((n, n))
    a = np.full(n, 1.0 / n)
    result = exact.solve_kantorovich(a, a, C)
    best = min(sum(C[i, p[i]] for i in range(n)) / n
               for p in itertools.permutations(range(n)))
    _require(abs(result.cost - best) <= 1e-10,
             f"LP cost {result.cost!r} vs enumeration {best!r}")


def check_one_dimensional_solvers_agree():
    rng = np.random.default_rng(1)
    alpha = DiscreteMeasure(rng.standard_normal((5, 1)),
                            _rational_simplex(rng, 5))
    beta = DiscreteMeasure(rng.standard_normal((6, 1)),
                           _rational_simplex(rng, 6))
    C1 = build_cost_matrix(alpha, beta, CostSpec.p_power(1.0))
    mono = exact.solve_1d_sorted(alpha, beta, 1.0).cost
    lp = exact.solve_kantorovich(alpha.weights, beta.weights, C1).cost
    cdf = exact.w1_1d_cdf(alpha, beta)
    _require(abs(mono - lp) <= 1e-10, f"monotone {mono!r} vs LP {lp!r}")
    _require(abs(mono - cdf) <= 1e-10, f"monotone {mono!r} vs CDF {cdf!r}")


def check_wasserstein_triangle_inequality():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((5, 2))
    D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    a, b, c = (_simplex(rng, 5) for _ in range(3))
    w_ab = exact.wasserstein_p(a, b, D, 2.0)
    w_bc = exact.wasserstein_p(b, c, D, 2.0)
    w_ac = exact.wasserstein_p(a, c, D, 2.0)
    w_ba = exact.wasserstein_p(b, a, D, 2.0)
    _require(w_ac <= w_ab + w_bc + 1e-12,
             f"triangle violated: {w_ac!r} > {w_ab!r} + {w_bc!r}")
    _require(abs(w_ab - w_ba) <= 1e-12, "W_2 is not symmetric")
    _require(exact.wasserstein_p(a, a, D, 2.0) <= 1e-12, "W_2(a, a) != 0")


def check_zero_one_cost_halves_total_variation():
    rng = np.random.default_rng(3)
    a, b = _rational_simplex(rng, 6), _rational_simplex(rng, 6)
    C = 1.0 - np.eye(6)
    cost = exact.solve_kantorovich(a, b, C).cost
    tv = 0.5 * np.abs(a - b).sum()
    _require(abs(cost - tv) <= 1e-12, f"W(0/1) {cost!r} vs TV/2 {tv!r}")


def check_gaussian_w2_univariate_closed_form():
    val = gaussian.gaussian_w2_squared([2.0], [[9.0]], [5.0], [[4.0]])
    _require(abs(val - 10.0) <= 1e-12, f"N(2,9) vs N(5,4) gave {val!r}")


def check_bures_diagonal_closed_form():
    r = np.array([1.0, 4.0, 9.0])
    s = np.array([4.0, 1.0, 16.0])
    val = gaussian.bures_squared(np.diag(r), np.diag(s))
    expected = float(((np.sqrt(r) - np.sqrt(s)) ** 2).sum())
    _require(abs(val - expected) <= 1e-10,
             f"diagonal Bures {val!r} vs {expected!r}")


def check_sinkhorn_marginals_and_gauge():
    alpha, beta, C = _cloud_pair(4, 6, 7)
    config = entropic.SinkhornConfig(epsilon=0.1 * C.mean(), max_iter=20000,
                                     marginal_tol=1e-9)
    res = entropic.sinkhorn(alpha.weights, beta.weights, C, config)
    _require(res.state.status == "optimal", f"status {res.state.status!r}")
    P = res.coupling.plan
    _require(np.abs(P.sum(axis=1) - alpha.weights).sum() <= 1e-9,
             "row marginal violated")
    fa = float(res.state.f @ alpha.weights)
    gb = float(res.state.g @ beta.weights)
    _require(abs(fa - gb) <= 1e-9 * (1.0 + abs(fa)),
             f"gauge <f,a>={fa!r} <g,b>={gb!r}")


def check_sinkhorn_domains_agree():
    alpha, beta, C = _cloud_pair(4, 6, 7)
    plans = []
    for log_domain in (True, False):
        config = entropic.SinkhornConfig(epsilon=0.5 * C.mean(),
                                         max_iter=20000, marginal_tol=1e-11,
                                         log_domain=log_domain)
        res = entropic.sinkhorn(alpha.weights, beta.weights, C, config)
        plans.append(res.coupling.plan)
    gap = float(np.abs(plans[0] - plans[1]).max())
    _require(gap <= 1e-8, f"log/scaling plans differ by {gap!r}")


def check_epsilon_ladder_costs_decrease():
    alpha, beta, C = _cloud_pair(5, 5, 5)
    lp = exact.solve_kantorovich(alpha.weights, beta.weights, C).cost
    costs = []
    for scale in (1.0, 0.3, 0.1, 0.03):
        config = entropic.SinkhornConfig(epsilon=scale * C.mean(),
                                         max_iter=50000, marginal_tol=1e-10)
        res = entropic.sinkhorn(alpha.weights, beta.weights, C, config)
        costs.append(res.cost_linear)
    for hot, cold in zip(costs, costs[1:]):
        _require(cold <= hot + 1e-12, f"ladder not monotone: {costs!r}")
    _require(costs[-1] >= lp - 1e-9, f"cost {costs[-1]!r} beats LP {lp!r}")


def check_hilbert_contraction_per_sweep():
    rng = np.random.default_rng(5)
    _, _, C = _cloud_pair(5, 5, 5)
    K = entropic.gibbs_kernel(C, 0.4 * C.mean())
    _, lam = entropic.contraction_eta_lambda(K)
    a, b = _simplex(rng, 5), _simplex(rng, 5)

    def sweep(u):
        return a / (K @ (b / (K.T @ u)))

    u1, u2 = rng.random(5) + 0.2, rng.random(5) + 0.2
    before = entropic.hilbert_metric(u1, u2)
    after = entropic.hilbert_metric(sweep(u1), sweep(u2))
    _require(after <= lam ** 2 * before * (1.0 + 1e-9),
             f"contraction {after / before!r} exceeds lambda^2 {lam ** 2!r}")


def check_exact_duality_gap_vanishes():
    alpha, beta, C = _cloud_pair(6, 6, 4)
    result = exact.solve_kantorovich(alpha.weights, beta.weights, C)
    gap = duality.duality_gap(result, result.potentials, C)
    _require(abs(gap) <= 1e-9, f"duality gap {gap!r}")


def check_c_transform_sweep_stationary():
    rng = np.random.default_rng(7)
    C = rng.random((5, 6))
    g0 = rng.standard_normal(6)
    f1 = duality.c_transform(g0, C)
    g1 = duality.c_bar_transform(f1, C)
    f2 = duality.c_transform(g1, C)
    drift = float(np.abs(f2 - f1).max())
    _require(drift <= 1e-12, f"second sweep moved f by {drift!r}")


def check_semidiscrete_gradient_balances():
    rng = np.random.default_rng(8)
    sampler = semidiscrete.Sampler.uniform_box([0.0], [1.0])
    problem = semidiscrete.SemiDiscreteProblem(
        sampler, np.array([[0.2], [0.5], [0.9]]), np.array([0.2, 0.3, 0.5]))
    grad = semidiscrete.semi_discrete_gradient_mc(
        problem, rng.standard_normal(3) * 0.1, n_samples=2000, seed=9)
    _require(abs(grad.sum()) <= 1e-12, f"gradient sums to {grad.sum()!r}")


def check_sgd_boundary_near_quantile():
    sampler = semidiscrete.Sampler.uniform_box([0.0], [1.0])
    problem = semidiscrete.SemiDiscreteProblem(
        sampler, np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    config = semidiscrete.SGDConfig(n_iter=4000, seed=11, eval_every=4000,
                                    heldout_samples=500)
    g, _ = semidiscrete.sgd_solve(problem, config)
    boundary = (1.0 + g[0] - g[1]) / 2.0
    _require(abs(boundary - 0.25) <= 0.06,
             f"cell boundary {boundary!r} far from 0.25")


def check_lloyd_centroids_split_uniform():
    sampler = semidiscrete.Sampler.uniform_box([0.0], [1.0])
    config = semidiscrete.LloydConfig(n_iter=12, seed=12, n_samples=4000)
    centroids, masses, cost = semidiscrete.lloyd_quantize(sampler, 2, config)
    order = np.argsort(centroids[:, 0])
    pos = centroids[order, 0]
    _require(abs(pos[0] - 0.25) <= 0.05 and abs(pos[1] - 0.75) <= 0.05,
             f"centroids at {pos!r}")
    _require(np.abs(masses - 0.5).max() <= 0.05, f"masses {masses!r}")
    _require(abs(cost - 1.0 / 48.0) <= 0.004,
             f"quantization cost {cost!r} vs 1/48")


def check_kr_lp_matches_graph_beckmann():
    positions = np.array([[0.0], [1.0], [2.5], [3.0]])
    masses = np.array([0.5, -0.2, 0.1, -0.4])
    signed = w1.SignedDiscreteMeasure(positions, masses)
    D = np.abs(positions - positions.T)
    kr, _ = w1.w1_kr_lp(signed, D)
    graph = w1.FlowGraph(4, [(0, 1, 1.0), (1, 2, 1.5), (2, 3, 0.5)], masses)
    beckmann, _ = w1.w1_graph_beckmann(graph)
    _require(abs(kr - beckmann) <= 1e-9,
             f"KR {kr!r} vs Beckmann {beckmann!r}")


def check_flat_norm_caps_at_two():
    near = w1.SignedDiscreteMeasure([[0.0], [0.7]], [1.0, -1.0])
    far = w1.SignedDiscreteMeasure([[0.0], [3.0]], [1.0, -1.0])
    for signed, expected in ((near, 0.7), (far, 2.0)):
        pts = signed.points
        D = np.abs(pts - pts.T)
        val = w1.flat_norm(signed, D)
        _require(abs(val - expected) <= 1e-12,
                 f"flat norm {val!r} vs min(2, d) = {expected!r}")


def check_kl_plugin_witness_tight():
    rng = np.random.default_rng(13)
    a, b = _simplex(rng, 6), _simplex(rng, 6)
    kl = divergences.from_name("kl")
    gap = divergences.phi_dual_gap(a, b, np.log(a / b), kl)
    _require(abs(gap) <= 1e-12, f"plug-in witness leaves gap {gap!r}")


def check_phi_divergences_nonnegative():
    rng = np.random.default_rng(13)
    a, b = _simplex(rng, 6), _simplex(rng, 6)
    for name in ("kl", "tv", "chi2"):
        entropy = divergences.from_name(name)
        val = divergences.phi_divergence(a, b, entropy)
        self_val = divergences.phi_divergence(a, a, entropy)
        _require(val >= -1e-12, f"{name} divergence {val!r} negative")
        _require(abs(self_val) <= 1e-12, f"{name} self-divergence {self_val!r}")


def check_mmd_matches_pairwise_enumeration():
    rng = np.random.default_rng(14)
    alpha = DiscreteMeasure(rng.standard_normal((4, 2)), _simplex(rng, 4))
    beta = DiscreteMeasure(rng.standard_normal((3, 2)), _simplex(rng, 3))
    kernel = divergences.KernelSpec.gaussian(0.8)
    val = divergences.mmd_squared(alpha, beta, kernel)

    def avg(mu, nu):
        K = divergences.kernel_matrix(mu.points, nu.points, kernel)
        return float(mu.weights @ K @ nu.weights)

    direct = avg(alpha, alpha) - 2.0 * avg(alpha, beta) + avg(beta, beta)
    _require(val >= -1e-10, f"MMD^2 {val!r} negative")
    _require(abs(val - direct) <= 1e-12, f"MMD^2 {val!r} vs sum {direct!r}")


def check_sinkhorn_divergence_self_zero():
    alpha, _, _ = _cloud_pair(15, 5, 5)
    C_aa = build_cost_matrix(alpha, alpha, CostSpec.sq_euclidean())
    config = entropic.SinkhornConfig(epsilon=0.5 * (C_aa.mean() + 0.1),
                                     max_iter=20000, marginal_tol=1e-10)
    val = entropic.sinkhorn_divergence(alpha.weights, alpha.weights,
                                       C_aa, C_aa, C_aa, config)
    _require(abs(val) <= 1e-9, f"S(alpha, alpha) = {val!r}")


def check_interaction_flow_preserves_mean():
    rng = np.random.default_rng(16)
    x0 = rng.standard_normal((5, 2))

    def k(x, y):
        return 0.5 * ((x - y) ** 2).sum(axis=-1)

    def grad_k(x, y):
        return x - y

    spec = dynamics.FunctionalSpec.interaction(k, grad_k, dim=2)
    traj = dynamics.gradient_flow(spec, x0, dt=0.01, T=0.5)
    drift = np.abs(traj.final_state.mean(axis=0) - x0.mean(axis=0)).max()
    _require(drift <= 1e-9, f"barycenter drifted by {drift!r}")


def check_entropy_flow_preserves_mass():
    grid = np.linspace(-2.0, 2.0, 81)
    rho0 = np.exp(-grid ** 2 / 0.18)
    widths = np.full(81, grid[1] - grid[0])
    widths[0] = widths[-1] = 0.5 * (grid[1] - grid[0])
    rho0 = rho0 / (widths @ rho0)
    path = dynamics.entropy_flow_1d(GridDensity1D(grid, rho0),
                                    dynamics.GeneralizedEntropy.shannon(),
                                    dt=5e-4, T=0.02)
    masses = path.densities @ widths
    drift = float(np.abs(masses - masses[0]).max())
    _require(drift <= 1e-12 * masses[0], f"mass drifted by {drift!r}")


def check_flow_match_reaches_targets():
    points = np.array([[-1.0], [0.0], [0.5], [2.0]])
    targets = np.array([[-0.5], [0.25], [1.0], [3.0]])
    path = dynamics.CouplingPath.monge(points, targets, np.full(4, 0.25))
    final = dynamics.integrate_flow_match(path, points, dt=1.0 / 256.0)
    gap = float(np.abs(final - targets).max())
    _require(gap <= 1e-6, f"endpoint misses targets by {gap!r}")


def check_attention_respects_relabeling():
    rng = np.random.default_rng(17)
    tokens = rng.standard_normal((5, 2))
    Q, K, V = (rng.standard_normal((2, 2)) for _ in range(3))
    perm = np.array([3, 0, 4, 1, 2])
    direct = dynamics.attention_velocity(tokens, Q, K, V, tokens)[perm]
    permuted = dynamics.attention_velocity(tokens[perm], Q, K, V,
                                           tokens[perm])
    _require(np.array_equal(direct, permuted),
             "relabeling tokens changed the velocity bitwise")


def check_mlp_risk_starts_at_half_mean_square():
    rng = np.random.default_rng(18)
    features = rng.standard_normal((6, 2))
    labels = rng.standard_normal(6)
    _, risk = dynamics.mlp_flow(features, labels, n_neurons=4,
                                dt=0.05, T=0.2, seed=3)
    expected = 0.5 * float(np.mean(labels ** 2))
    _require(risk[0] == expected,
             f"initial risk {risk[0]!r} vs {expected!r}")
    _require(risk[-1] <= risk[0] + 1e-12, "risk increased along the flow")


def run_selftest():
    """Run every check and render the report.

    Returns
    -------
    (str, bool)
        The report text (one PASS/FAIL line per check plus a summary
        line) and True iff every check passed.
    """
    checks = [(name[len("check_"):], fn) for name, fn in globals().items()
              if name.startswith("check_")]
    lines = []
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except CheckFailure as exc:
            lines.append(f"FAIL {name}: {exc}")
            failed += 1
        except Exception as exc:  # surface the crash but keep the report
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            lines.append(f"PASS {name}")
    total = len(checks)
    lines.append(f"selftest: {total} checks, {total - failed} passed, "
                 f"{failed} failed")
    return "\n".join(lines) + "\n", failed == 0
