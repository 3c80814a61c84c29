"""Command line front end.

One solver run per process invocation:

    ot exact --a a.json --b b.json --cost sqeuclidean
    ot sinkhorn --a a.json --b b.json --epsilon 0.05 --trace trace.jsonl
    ot gaussian --a ga.json --b gb.json
    ot semidiscrete --targets y.json --weights w.json --sampler uniform_box \
        --iters 5000 --seed 7
    ot w1 kr --measure signed.json
    ot divergence --a a.json --b b.json --phi kl
    ot flow gradient --config flow.json --trace traj.jsonl
    ot selftest

Results are canonical JSON (sorted keys, shortest round-trip floats) on
stdout or the --out file, always carrying the artifact version and an
echo of the run configuration, so identical invocations produce byte
identical output.  Exit codes: 0 success, 2 validation error, 3
non-convergence; errors are emitted as one JSON object on stderr.
``selftest`` prints a plain-text pass/fail table and exits 1 when any
check fails.

The env var OT_THREADS caps internal (BLAS) parallelism; it is read
before numpy is first imported.
"""

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__, divergences, dynamics, entropic, exact
from . import gaussian as gaussian_mod
from . import semidiscrete, w1
from .errors import ConvergenceError, OTError, ValidationError
from .measures import (CostSpec, DiscreteMeasure, GridDensity1D,
                       _trapezoid_cdf, build_cost_matrix, check_covariance,
                       check_points, check_vector, load_measure_csv,
                       measure_from_dict, product_coupling, read_json)
from .selftest import run_selftest


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _pyify(obj):
    """Recursively convert numpy containers to plain Python types.

    Non-finite floats (a KL divergence of measures with disjoint support
    is legitimately infinite) become the strings "inf"/"-inf"/"nan"
    because strict JSON has no encoding for them.  An array of finite
    numbers is converted by one ``tolist()``; only arrays holding other
    values are walked element by element.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf" and np.isfinite(obj).all():
            return obj.tolist()
        return _pyify(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return repr(value)
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def canonical_json(payload) -> str:
    """Serialize with sorted keys and shortest round-trip floats."""
    return json.dumps(_pyify(payload), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(payload) + "\n"
    if fmt == "jsonl":
        lines = [canonical_json({"key": k, "value": payload[k]})
                 for k in sorted(payload)]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k in sorted(payload):
            writer.writerow([k, canonical_json(payload[k])])
        return buf.getvalue()
    raise ValidationError(f"unknown output format {fmt!r}")


def _error_code(exc) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_CONFIG_INPUT_KEYS = ("a", "b", "targets", "weights", "measure", "graph",
                      "config", "trace")
_CONFIG_SKIP_KEYS = ("subcommand", "out", "format")


def _finish(payload: dict, args) -> str:
    """``payload`` rendered in ``args.format``, with the artifact version
    and an echo of everything needed to reproduce the run."""
    inputs, params = {}, {}
    for key, value in vars(args).items():
        if key not in _CONFIG_SKIP_KEYS and value is not None:
            (inputs if key in _CONFIG_INPUT_KEYS else params)[key] = value
    payload = dict(payload)
    payload["artifact_version"] = __version__
    payload["config"] = {"subcommand": args.subcommand, "inputs": inputs,
                         "params": params, "out": args.out,
                         "format": args.format}
    return _render(payload, args.format)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _get(payload, key, path):
    if not isinstance(payload, dict) or key not in payload:
        raise ValidationError(f"{path} is missing required key {key!r}")
    return payload[key]


def _load_measure(path) -> DiscreteMeasure:
    if str(path).endswith(".csv"):
        return load_measure_csv(path)
    return measure_from_dict(read_json(path))


def _load_signed_measure(path) -> w1.SignedDiscreteMeasure:
    payload = read_json(path)
    return w1.SignedDiscreteMeasure(_get(payload, "points", path),
                                    _get(payload, "masses", path))


def _load_gaussian(path):
    payload = read_json(path)
    mean = check_points(_get(payload, "mean", path), f"{path}: mean")
    if mean.shape[1] != 1:
        raise ValidationError(f"{path}: mean must be a vector")
    d = mean.shape[0]
    cov = check_covariance(_get(payload, "covariance", path),
                           f"{path}: covariance", d)
    return mean[:, 0], cov


def _cost_spec(text) -> CostSpec:
    if text == "sqeuclidean":
        return CostSpec.sq_euclidean()
    if text == "euclidean":
        return CostSpec.euclidean()
    if text == "zeroone":
        return CostSpec.zero_one()
    if text.startswith("p:"):
        try:
            return CostSpec.p_power(float(text[2:]))
        except ValueError as exc:
            raise ValidationError(f"bad cost exponent in {text!r}") from exc
    raise ValidationError(
        f"unknown cost {text!r}; expected sqeuclidean, euclidean, zeroone "
        "or p:<exponent>")


def _sampler_spec(text, dim) -> semidiscrete.Sampler:
    if text == "uniform_box":
        return semidiscrete.Sampler.uniform_box(np.zeros(dim), np.ones(dim))
    if text == "gaussian":
        return semidiscrete.Sampler.gaussian(np.zeros(dim), np.eye(dim))
    if text.startswith("mixture:"):
        path = text[len("mixture:"):]
        payload = read_json(path)
        return semidiscrete.Sampler.gaussian_mixture(
            _get(payload, "weights", path),
            _get(payload, "means", path),
            _get(payload, "covariances", path))
    raise ValidationError(
        f"unknown sampler {text!r}; expected uniform_box, gaussian or "
        "mixture:<file>")


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_trace(path, records):
    if path is None:
        return
    text = "".join(canonical_json(rec) + "\n" for rec in records)
    _write_text(path, text)


def _plan_triplets(plan: np.ndarray):
    i, j = np.nonzero(plan > 0.0)
    return list(map(list, zip(i.tolist(), j.tolist(), plan[i, j].tolist())))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, trace_records or None)
# ---------------------------------------------------------------------------

def _cmd_exact(args):
    alpha = _load_measure(args.a)
    beta = _load_measure(args.b)
    C = build_cost_matrix(alpha, beta, _cost_spec(args.cost))
    res = exact.solve_kantorovich(alpha.weights, beta.weights, C)
    payload = {
        "cost": res.cost,
        "plan": _plan_triplets(res.coupling.plan),
        "shape": [alpha.n, beta.n],
        "f": res.potentials.f,
        "g": res.potentials.g,
        "iterations": res.iterations,
        "status": res.status,
    }
    return payload, None


def _cmd_sinkhorn(args):
    alpha = _load_measure(args.a)
    beta = _load_measure(args.b)
    C = build_cost_matrix(alpha, beta, _cost_spec(args.cost))
    schedule = None
    if args.schedule:
        try:
            schedule = [float(tok) for tok in args.schedule.split(",")]
        except ValueError as exc:
            raise ValidationError(
                f"bad --schedule {args.schedule!r}; expected comma-separated "
                "floats") from exc
    config = entropic.SinkhornConfig(
        epsilon=args.epsilon, max_iter=args.max_iter,
        marginal_tol=args.tol, epsilon_schedule=schedule,
        log_domain=not args.scaling_domain,
        record_trace=args.trace is not None)
    res = entropic.sinkhorn(alpha.weights, beta.weights, C, config)
    trace = None
    if args.trace is not None:
        trace = [{"iter": rec.iteration, "viol_a": rec.viol_a,
                  "viol_b": rec.viol_b, "dual": rec.dual,
                  "hilbert_step": rec.hilbert_step}
                 for rec in res.state.trace]
    if res.state.status != "optimal":
        _write_trace(args.trace, trace)
        raise ConvergenceError(
            f"sinkhorn stopped at {res.state.iteration} iterations with "
            f"status {res.state.status!r}")
    payload = {
        "cost_reg": res.cost_reg,
        "cost_linear": res.cost_linear,
        "f": res.state.f,
        "g": res.state.g,
        "epsilon": res.state.epsilon,
        "iterations": res.state.iteration,
        "status": res.state.status,
        "viol_a": res.state.viol_a,
        "viol_b": res.state.viol_b,
    }
    return payload, trace


def _cmd_gaussian(args):
    mean_a, cov_a = _load_gaussian(args.a)
    mean_b, cov_b = _load_gaussian(args.b)
    w2sq = gaussian_mod.gaussian_w2_squared(mean_a, cov_a, mean_b, cov_b)
    mapping = gaussian_mod.gaussian_monge_map(mean_a, cov_a, mean_b, cov_b)
    payload = {
        "w2_squared": w2sq,
        "w2": float(np.sqrt(w2sq)),
        "bures_squared": gaussian_mod.bures_squared(cov_a, cov_b),
        "map": {
            "matrix": mapping.matrix,
            "source_mean": mapping.source_mean,
            "target_mean": mapping.target_mean,
        },
    }
    return payload, None


def _cmd_semidiscrete(args):
    targets = check_points(read_json(args.targets), "targets")
    sampler = _sampler_spec(args.sampler, targets.shape[1])
    problem = semidiscrete.SemiDiscreteProblem(sampler, targets,
                                               read_json(args.weights))
    config = semidiscrete.SGDConfig(
        n_iter=args.iters, seed=args.seed, tau0=args.tau0, ell0=args.ell0,
        eval_every=args.eval_every, heldout_samples=args.heldout_samples)
    g, trace_records = semidiscrete.sgd_solve(problem, config)
    trace = [{"iter": rec.iteration, "step_size": rec.step_size,
              "marginal_error": rec.marginal_error}
             for rec in trace_records]
    payload = {
        "g": g,
        "iterations": args.iters,
        "marginal_error": trace[-1]["marginal_error"],
    }
    return payload, trace


def _cmd_w1(args):
    if args.mode == "graph":
        graph = w1.flow_graph_from_dict(read_json(args.graph))
        value, flows = w1.w1_graph_beckmann(graph)
        payload = {
            "value": value,
            "edges": [[graph.node_names[u], graph.node_names[v], length,
                       float(flow)]
                      for (u, v, length), flow in zip(graph.edges, flows)],
        }
        return payload, None
    signed = _load_signed_measure(args.measure)
    pts = signed.points
    dist = build_cost_matrix(pts, pts, CostSpec.euclidean())
    if args.mode == "kr":
        value, f = w1.w1_kr_lp(signed, dist)
        return {"value": value, "f": f}, None
    value = w1.flat_norm(signed, dist)
    return {"value": value}, None


def _cmd_divergence(args):
    if (args.phi is None) == (args.kernel is None):
        raise ValidationError("choose exactly one of --phi or --kernel")
    alpha = _load_measure(args.a)
    beta = _load_measure(args.b)
    if args.phi is not None:
        entropy = divergences.from_name(args.phi)
        value = divergences.phi_divergence_measures(alpha, beta, entropy)
        return {"value": value, "divergence": args.phi}, None
    text = args.kernel
    if text.startswith("gaussian:"):
        kernel = divergences.KernelSpec.gaussian(_parse_float(text[9:], text))
    elif text.startswith("energy:"):
        kernel = divergences.KernelSpec.energy(_parse_float(text[7:], text))
    else:
        raise ValidationError(
            f"unknown kernel {text!r}; expected gaussian:<sigma> or "
            "energy:<p>")
    value = divergences.mmd_squared(alpha, beta, kernel)
    return {"value": value, "divergence": f"mmd2[{text}]"}, None


def _parse_float(token, context):
    try:
        return float(token)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad number in {context!r}") from exc


# -- flow configs -----------------------------------------------------------

def _linear_preset(spec, dim):
    name = _get(spec, "name", "potential")
    center = check_vector(spec.get("center", np.zeros(dim)), "center", dim)
    if name not in ("quadratic", "gaussian_well"):
        raise ValidationError(
            f"unknown potential {name!r}; expected quadratic or "
            "gaussian_well")
    # A potential is a kernel with one end pinned at the center.
    k, grad_k = _kernel(name == "gaussian_well", spec, "gaussian_well sigma")
    return dynamics.FunctionalSpec.linear(
        lambda x: k(x, center), lambda x: grad_k(x, center), dim=dim)


def _interaction_preset(spec, dim):
    name = _get(spec, "name", "kernel")
    if name not in ("quadratic", "gaussian"):
        raise ValidationError(
            f"unknown kernel {name!r}; expected quadratic or gaussian")
    k, grad_k = _kernel(name == "gaussian", spec, "gaussian kernel sigma")
    return dynamics.FunctionalSpec.interaction(k, grad_k, dim=dim)


def _kernel(gaussian, spec, sigma_name):
    """``k(x, y)`` and its gradient in x: half the squared distance, or
    with ``gaussian`` minus a Gaussian of width ``spec["sigma"]``."""
    if not gaussian:
        def k(x, y):
            return 0.5 * ((x - y) ** 2).sum(axis=-1)

        def grad_k(x, y):
            return x - y
        return k, grad_k
    sigma = _parse_float(spec.get("sigma", 1.0), sigma_name)
    if sigma <= 0:
        raise ValidationError(f"{sigma_name} must be positive")

    def k(x, y):
        return -np.exp(-((x - y) ** 2).sum(axis=-1) / (2.0 * sigma ** 2))

    def grad_k(x, y):
        r2 = ((x - y) ** 2).sum(axis=-1)
        return ((x - y) / sigma ** 2
                * np.exp(-r2 / (2.0 * sigma ** 2))[..., None])
    return k, grad_k


def _positions_trace(traj):
    """The ``{"t", "positions"}`` records of a particle trajectory."""
    return [{"t": float(t), "positions": state}
            for t, state in zip(traj.times, traj.states)]


def _flow_gradient(cfg, path):
    x0 = check_points(_get(cfg, "x0", path), "x0")
    kind = _get(cfg, "kind", path)
    if kind == "linear":
        spec = _linear_preset(_get(cfg, "potential", path), x0.shape[1])
    elif kind == "interaction":
        spec = _interaction_preset(_get(cfg, "kernel", path), x0.shape[1])
    else:
        raise ValidationError(
            f"unknown flow kind {kind!r}; expected linear or interaction")
    traj = dynamics.gradient_flow(spec, x0, dt=_get(cfg, "dt", path),
                                  T=_get(cfg, "T", path),
                                  scheme=cfg.get("scheme", "explicit"))
    payload = {
        "final_state": traj.final_state,
        "energy_initial": spec.value(traj.states[0]),
        "energy_final": spec.value(traj.final_state),
        "n_steps": traj.n_times - 1,
    }
    return payload, _positions_trace(traj)


def _flow_entropy1d(cfg, path):
    rho0 = GridDensity1D(_get(cfg, "grid", path), _get(cfg, "density", path))
    spec = cfg.get("entropy", "shannon")
    if spec == "shannon":
        entropy = dynamics.GeneralizedEntropy.shannon()
    elif isinstance(spec, dict) and spec.get("name") == "power":
        entropy = dynamics.GeneralizedEntropy.power(_get(spec, "q", path))
    else:
        raise ValidationError(
            f"unknown entropy {spec!r}; expected \"shannon\" or "
            "{\"name\": \"power\", \"q\": ...}")
    flow_path = dynamics.entropy_flow_1d(rho0, entropy,
                                         dt=_get(cfg, "dt", path),
                                         T=_get(cfg, "T", path))
    payload = {
        "grid": flow_path.grid,
        "final_density": flow_path.densities[-1],
        "mass_initial": _trapezoid_cdf(flow_path.grid,
                                       flow_path.densities[0])[-1],
        "mass_final": _trapezoid_cdf(flow_path.grid,
                                     flow_path.densities[-1])[-1],
        "n_steps": flow_path.n_times - 1,
    }
    trace = [{"t": float(t), "density": rho}
             for t, rho in zip(flow_path.times, flow_path.densities)]
    return payload, trace


def _flow_flowmatch(cfg, path):
    source = measure_from_dict(_get(cfg, "source", path))
    target = measure_from_dict(_get(cfg, "target", path))
    mode = cfg.get("coupling", "monge")
    if mode == "monge":
        if source.n != target.n or np.max(
                np.abs(source.weights - target.weights)) > 1e-12:
            raise ValidationError(
                "monge coupling needs equal atom counts and equal weights")
        cpath = dynamics.CouplingPath.monge(source.points, target.points,
                                            source.weights)
    elif mode in ("product", "optimal"):
        if mode == "product":
            coupling = product_coupling(source, target)
        else:
            C = build_cost_matrix(source, target, CostSpec.sq_euclidean())
            coupling = exact.solve_kantorovich(source.weights, target.weights,
                                               C).coupling
        cpath = dynamics.CouplingPath(source.points, target.points, coupling)
    else:
        raise ValidationError(
            f"unknown coupling {mode!r}; expected monge, product or optimal")
    bandwidth = cfg.get("bandwidth")
    if bandwidth is None:
        bandwidth = cpath.default_bandwidth
    traj = dynamics.flow_match_trajectory(
        cpath, cfg.get("x0", source.points), _get(cfg, "dt", path), bandwidth)
    payload = {"endpoint": traj.final_state, "n_steps": traj.n_times - 1,
               "bandwidth": float(bandwidth)}
    return payload, _positions_trace(traj)


def _flow_transformer(cfg, path):
    tokens = _get(cfg, "tokens", path)
    traj = dynamics.transformer_flow(tokens, _get(cfg, "Q", path),
                                     _get(cfg, "K", path),
                                     _get(cfg, "V", path),
                                     depth=_get(cfg, "depth", path))
    payload = {"final_tokens": traj.final_state, "n_steps": traj.n_times - 1}
    return payload, _positions_trace(traj)


def _flow_mlp(cfg, path):
    if "seed" not in cfg:
        raise ValidationError(f"{path} must set an explicit \"seed\"")
    traj, risk = dynamics.mlp_flow(
        _get(cfg, "features", path), _get(cfg, "labels", path),
        n_neurons=_get(cfg, "n_neurons", path), dt=_get(cfg, "dt", path),
        T=_get(cfg, "T", path), activation=cfg.get("activation", "identity"),
        seed=cfg["seed"])
    payload = {
        "final_params": traj.final_state,
        "risk": risk,
        "risk_initial": float(risk[0]),
        "risk_final": float(risk[-1]),
    }
    return payload, _positions_trace(traj)


_FLOW_HANDLERS = {
    "gradient": _flow_gradient,
    "entropy1d": _flow_entropy1d,
    "flowmatch": _flow_flowmatch,
    "transformer": _flow_transformer,
    "mlp": _flow_mlp,
}


def _cmd_flow(args):
    cfg = read_json(args.config)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{args.config} must hold a JSON object")
    return _FLOW_HANDLERS[args.mode](cfg, args.config)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(canonical_json(
            {"error": {"code": "usage", "message": message}}) + "\n")
        raise SystemExit(2)


def _add_output_flags(p):
    p.add_argument("--out", default=None,
                   help="write the result here instead of stdout")
    p.add_argument("--format", default="json",
                   choices=("json", "jsonl", "csv"),
                   help="result encoding (default json)")


def _add_measure_flags(p):
    p.add_argument("--a", required=True,
                   help="first measure (.json with points/weights, or .csv)")
    p.add_argument("--b", required=True, help="second measure")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ot`` argument parser, built once per process and reused.

    Parsing leaves the parser unchanged: every call fills a fresh
    namespace from the declared defaults.
    """
    parser = _Parser(prog="ot",
                     description="Discrete optimal transport toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("exact", help="exact Kantorovich solve")
    _add_measure_flags(p)
    p.add_argument("--cost", default="sqeuclidean",
                   help="sqeuclidean, euclidean, zeroone or p:<exponent>")
    _add_output_flags(p)

    p = sub.add_parser("sinkhorn", help="entropic regularized solve")
    _add_measure_flags(p)
    p.add_argument("--cost", default="sqeuclidean")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="L1 marginal stopping tolerance")
    p.add_argument("--schedule", default=None,
                   help="comma-separated decreasing epsilons ending at "
                        "--epsilon")
    p.add_argument("--scaling-domain", action="store_true",
                   help="turn off the log-domain safeguard of the kernel "
                        "iterations (fails on kernel underflow)")
    p.add_argument("--trace", default=None,
                   help="write per-iteration JSON lines here")
    _add_output_flags(p)

    p = sub.add_parser("gaussian", help="closed-form Gaussian transport")
    p.add_argument("--a", required=True,
                   help="JSON file with mean and covariance")
    p.add_argument("--b", required=True)
    _add_output_flags(p)

    p = sub.add_parser("semidiscrete",
                       help="stochastic semi-dual ascent")
    p.add_argument("--targets", required=True,
                   help="JSON array of target points")
    p.add_argument("--weights", required=True,
                   help="JSON array of target weights")
    p.add_argument("--sampler", required=True,
                   help="uniform_box (unit box), gaussian (standard), or "
                        "mixture:<file>")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--ell0", type=float, default=100.0)
    p.add_argument("--eval-every", type=int, default=1000)
    p.add_argument("--heldout-samples", type=int, default=2000)
    p.add_argument("--trace", default=None)
    _add_output_flags(p)

    p = sub.add_parser("w1", help="Wasserstein-1 dual norms")
    p.add_argument("mode", choices=("kr", "flat", "graph"))
    p.add_argument("--measure", default=None,
                   help="signed measure JSON with points/masses (kr, flat)")
    p.add_argument("--graph", default=None,
                   help="graph JSON with nodes/edges/imbalance (graph)")
    _add_output_flags(p)

    p = sub.add_parser("divergence", help="phi-divergences and MMD")
    _add_measure_flags(p)
    p.add_argument("--phi", default=None, choices=("kl", "tv", "chi2"))
    p.add_argument("--kernel", default=None,
                   help="gaussian:<sigma> or energy:<p>")
    _add_output_flags(p)

    p = sub.add_parser("flow", help="measure dynamics")
    p.add_argument("mode", choices=("gradient", "entropy1d", "flowmatch",
                                    "transformer", "mlp"))
    p.add_argument("--config", required=True, help="JSON run description")
    p.add_argument("--trace", default=None,
                   help="write trajectory JSON lines here")
    _add_output_flags(p)

    sub.add_parser("selftest", help="run the invariant suite")
    return parser


_HANDLERS = {
    "exact": _cmd_exact,
    "sinkhorn": _cmd_sinkhorn,
    "gaussian": _cmd_gaussian,
    "semidiscrete": _cmd_semidiscrete,
    "w1": _cmd_w1,
    "divergence": _cmd_divergence,
    "flow": _cmd_flow,
}

def run(argv=None) -> int:
    """Parse argv, run one subcommand, and return the exit code."""
    args = build_parser().parse_args(argv)
    if args.subcommand == "selftest":
        report, ok = run_selftest()
        sys.stdout.write(report)
        return 0 if ok else 1
    if args.subcommand == "w1":
        needed = "graph" if args.mode == "graph" else "measure"
        if getattr(args, needed) is None:
            raise ValidationError(f"w1 {args.mode} requires --{needed}")
    payload, trace = _HANDLERS[args.subcommand](args)
    _write_trace(getattr(args, "trace", None), trace or [])
    _write_text(args.out, _finish(payload, args))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except OTError as exc:
        sys.stderr.write(canonical_json(
            {"error": {"code": _error_code(exc), "message": str(exc)}})
            + "\n")
        return 3 if isinstance(exc, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
