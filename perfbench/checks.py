"""Independent checks of ``ot`` payloads.

Each check recomputes what it needs in plain numpy (and, for ``w1 graph``,
scipy's HiGHS LP) from the benchmark's own inputs in ``Op.data``; nothing
here imports otkit. A check returns a list of problems, empty when the
payload passes.

``PERTURB`` maps every op kind to a corruption of a good payload. The
benchmark feeds each corrupted payload back to its check before timing
starts and reports the run as incorrect when the check does not flag it,
so no check can pass vacuously.
"""

import json

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, hstack

# otkit rounds weights to integers over this denominator, each entry by
# less than one unit, so a plan marginal may be off by that much and no
# more. Signed imbalances are rounded to nearest and then corrected by at
# most one unit, so a node's conservation sum may be off by 1.5 units.
QUANTUM = 1e-9
ROUNDING = 1e-12


def _close(x, y, rtol, atol=0.0):
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def check_exact(payload, data):
    a, b, C = data["a"], data["b"], data["C"]
    n, m = C.shape
    problems = []
    triplets = np.asarray(payload["plan"], dtype=float).reshape(-1, 3)
    rows = triplets[:, 0].astype(int)
    cols = triplets[:, 1].astype(int)
    P = np.zeros((n, m))
    np.add.at(P, (rows, cols), triplets[:, 2])
    if P.min() < 0:
        problems.append("plan has a negative entry")
    defect = max(np.abs(P.sum(1) - a).max(), np.abs(P.sum(0) - b).max())
    if defect > QUANTUM + ROUNDING:
        problems.append(f"plan marginals off by {defect:.3e}")
    f = np.asarray(payload["f"], dtype=float)
    g = np.asarray(payload["g"], dtype=float)
    slack = (f[:, None] + g[None, :] - C).max()
    if slack > 1e-9 * max(1.0, np.abs(C).max()):
        problems.append(f"dual infeasible: max f_i + g_j - C_ij = {slack:.3e}")
    primal = float((C * P).sum())
    dual = float(f @ a + g @ b)
    if not _close(payload["cost"], primal, 1e-9, 1e-15):
        problems.append(f"cost {payload['cost']!r} != <C, P> {primal!r}")
    # The duals are exact for the rounded weights; against a and b they
    # move by at most QUANTUM per unit of |f| and |g|.
    gap_tol = QUANTUM * (np.abs(f).sum() + np.abs(g).sum()) + ROUNDING
    if abs(payload["cost"] - dual) > gap_tol:
        problems.append(f"cost {payload['cost']!r} != <f,a> + <g,b> {dual!r}")
    return problems


def check_sinkhorn(payload, data):
    a, b, C, eps, tol = (data[k] for k in ("a", "b", "C", "epsilon", "tol"))
    problems = []
    if payload["epsilon"] != eps:
        problems.append(f"epsilon {payload['epsilon']!r} != requested {eps!r}")
    f = np.asarray(payload["f"], dtype=float)
    g = np.asarray(payload["g"], dtype=float)
    with np.errstate(over="ignore"):
        P = a[:, None] * b[None, :] * np.exp((f[:, None] + g[None, :] - C)
                                             / eps)
    viol_a = float(np.abs(P.sum(1) - a).sum())
    viol_b = float(np.abs(P.sum(0) - b).sum())
    # The rebuilt plan rounds differently from the solver's; allow that
    # much and no more.
    if not max(viol_a, viol_b) <= tol * (1 + 1e-6):
        problems.append(f"L1 marginals ({viol_a:.3e}, {viol_b:.3e}) exceed "
                        f"tol {tol:.1e}")
    linear = float((C * P).sum())
    if not _close(payload["cost_linear"], linear, 1e-6, 1e-12):
        problems.append(f"cost_linear {payload['cost_linear']!r} != <C, P> "
                        f"{linear!r}")
    return problems


def _interaction_energy(X, sigma):
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    return float(-np.exp(-d2 / (2.0 * sigma ** 2)).mean())


def check_flow(payload, data):
    x0, sigma = data["x0"], data["sigma"]
    X = np.asarray(payload["final_state"], dtype=float)
    problems = []
    if X.shape != x0.shape:
        return [f"final_state shape {X.shape} != {x0.shape}"]
    drift = np.abs(X.mean(0) - x0.mean(0)).max()
    if drift > 1e-12:
        problems.append(f"particle mean moved by {drift:.3e}")
    e0 = _interaction_energy(x0, sigma)
    e1 = _interaction_energy(X, sigma)
    if e1 > e0 + 1e-12:
        problems.append(f"energy rose from {e0!r} to {e1!r}")
    for key, mine in (("energy_initial", e0), ("energy_final", e1)):
        if not _close(payload[key], mine, 1e-9, 1e-15):
            problems.append(f"{key} {payload[key]!r} != recomputed {mine!r}")
    return problems


MC_SAMPLES = 200_000
MC_CHUNK = 10_000


def _cell_mismatch(y, w, g, rng_seed):
    """l1 gap between Monte Carlo Laguerre-cell masses and the weights."""
    rng = np.random.default_rng(rng_seed)
    counts = np.zeros(y.shape[0], dtype=np.int64)
    for _ in range(MC_SAMPLES // MC_CHUNK):
        x = rng.random((MC_CHUNK, y.shape[1]))
        scores = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1) - g[None, :]
        counts += np.bincount(scores.argmin(1), minlength=y.shape[0])
    return float(np.abs(counts / MC_SAMPLES - w).sum())


def check_semidiscrete(payload, data):
    y, w, seed = data["targets"], data["weights"], data["check_seed"]
    g = np.asarray(payload["g"], dtype=float)
    if g.shape != w.shape:
        return [f"g shape {g.shape} != {w.shape}"]
    fitted = _cell_mismatch(y, w, g, seed)
    start = _cell_mismatch(y, w, np.zeros_like(g), seed)
    if not fitted < start:
        return [f"cell-mass mismatch {fitted:.4f} does not beat g = 0 "
                f"({start:.4f})"]
    return []


def _beckmann_lp(n_nodes, edges, lengths, imbalance):
    """min sum l |x| subject to B x = s, as an LP in (x+, x-) for HiGHS."""
    n_edges = len(edges)
    cols = np.arange(n_edges)
    B = coo_matrix((np.concatenate([np.ones(n_edges), -np.ones(n_edges)]),
                    (np.concatenate([edges[:, 0], edges[:, 1]]),
                     np.concatenate([cols, cols]))), shape=(n_nodes, n_edges))
    res = linprog(np.concatenate([lengths, lengths]), A_eq=hstack([B, -B]),
                  b_eq=imbalance, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_w1(payload, data):
    names, edges, lengths, s = (data[k] for k in
                                ("names", "edges", "lengths", "imbalance"))
    index = {name: i for i, name in enumerate(names)}
    problems = []
    got = payload["edges"]
    if len(got) != len(edges):
        return [f"{len(got)} edges in the payload, {len(edges)} in the input"]
    flow = np.array([e[3] for e in got], dtype=float)
    ends = np.array([[index[e[0]], index[e[1]]] for e in got])
    if not np.array_equal(ends, edges):
        problems.append("payload edges differ from the input edges")
    net = np.zeros(len(names))
    np.add.at(net, edges[:, 0], flow)
    np.add.at(net, edges[:, 1], -flow)
    defect = np.abs(net - s).max()
    if defect > 1.5 * QUANTUM + ROUNDING:
        problems.append(f"flow conservation off by {defect:.3e}")
    value = float(lengths @ np.abs(flow))
    if not _close(payload["value"], value, 1e-9, 1e-12):
        problems.append(f"value {payload['value']!r} != sum l|flow| {value!r}")
    lp = _beckmann_lp(len(names), edges, lengths, s)
    if not _close(payload["value"], lp, 1e-7, 1e-9):
        problems.append(f"value {payload['value']!r} != HiGHS LP {lp!r}")
    return problems


CHECKS = {"exact": check_exact, "sinkhorn": check_sinkhorn,
          "flow": check_flow, "semidiscrete": check_semidiscrete,
          "w1": check_w1}


def _flip_f(payload):
    payload["f"] = [-v for v in payload["f"]]


def _flip_g(payload):
    payload["g"] = [-v for v in payload["g"]]


def _truncate_plan(payload):
    plan = payload["plan"]
    plan.remove(max(plan, key=lambda entry: entry[2]))


def _shift_particle(payload):
    payload["final_state"][0][0] += 1e-3


def _shift_edge_flow(payload):
    payload["edges"][0][3] += 1e-3


PERTURB = {
    "exact": {"flipped potential sign": _flip_f,
              "truncated plan": _truncate_plan},
    "sinkhorn": {"flipped potential sign": _flip_f},
    "flow": {"shifted particle": _shift_particle},
    "semidiscrete": {"flipped potential sign": _flip_g},
    "w1": {"shifted flow": _shift_edge_flow},
}


def check(op, payload_bytes):
    """Problems with one op's output bytes; empty when it passes."""
    try:
        payload = json.loads(payload_bytes)
        return CHECKS[op.kind](payload, op.data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"]


def check_the_check(op, payload_bytes):
    """Names of the perturbations of a good payload that its check missed."""
    missed = []
    for name, corrupt in PERTURB[op.kind].items():
        payload = json.loads(payload_bytes)
        corrupt(payload)
        if not check(op, json.dumps(payload)):
            missed.append(name)
    return missed
