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

Each handler imports the solver modules it calls, so a fresh ``ot`` run
loads only its own solver's modules beside ``otkit.measures``.
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

from . import __version__
from .errors import ConvergenceError, OTError, ValidationError
from .measures import (CostSpec, DiscreteMeasure, GridDensity1D,
                       _trapezoid_cdf, as_number, build_cost_matrix,
                       check_covariance, check_keys, check_points,
                       check_vector, load_measure_csv, measure_from_dict,
                       product_coupling, read_json, require_key, write_text)


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


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False).encode


def canonical_json(payload) -> str:
    """Serialize with sorted keys and shortest round-trip floats."""
    return _encode(_pyify(payload))


def _value_json(value):
    """``canonical_json(value)``, with plain floats and ints written
    directly."""
    kind = type(value)
    if kind is float:
        return repr(value) if math.isfinite(value) else f'"{value!r}"'
    if kind is int:
        return repr(value)
    return _encode(_pyify(value))


def _jsonl(columns) -> str:
    """One line per row of `columns`, a dict of equally long sequences of
    values, holding ``canonical_json`` of the row as a dict.

    Each line is one format string filled with the values' JSON, so the
    rows are never built as dicts.
    """
    keys = sorted(columns)
    line = "{%s}\n" % ",".join(_encode(key).replace("%", "%%") + ":%s"
                               for key in keys)
    return "".join(line % row for row in
                   zip(*(map(_value_json, columns[key]) for key in keys)))


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(payload) + "\n"
    if fmt == "jsonl":
        keys = sorted(payload)
        return _jsonl({"key": keys, "value": [payload[k] for k in keys]})
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

def _load_measure(path) -> DiscreteMeasure:
    if str(path).endswith(".csv"):
        return load_measure_csv(path)
    return measure_from_dict(read_json(path))


def _load_gaussian(path):
    payload = read_json(path)
    mean = check_points(require_key(payload, "mean", path), f"{path}: mean")
    if mean.shape[1] != 1:
        raise ValidationError(f"{path}: mean must be a vector")
    d = mean.shape[0]
    cov = check_covariance(require_key(payload, "covariance", path),
                           f"{path}: covariance", d)
    return mean[:, 0], cov


def _number(text, name):
    """A number given as command-line text, read as argparse reads a
    ``type=float`` option; the shared layer takes no strings."""
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{name} must be a number, got {text!r}") from None


def _cost_spec(text) -> CostSpec:
    if text == "sqeuclidean":
        return CostSpec.sq_euclidean()
    if text == "euclidean":
        return CostSpec.euclidean()
    if text == "zeroone":
        return CostSpec.zero_one()
    if text.startswith("p:"):
        return CostSpec.p_power(_number(text[2:], "p"))
    raise ValidationError(
        f"unknown cost {text!r}; expected sqeuclidean, euclidean, zeroone "
        "or p:<exponent>")


def _sampler_spec(text, dim):
    from .semidiscrete import Sampler
    if text == "uniform_box":
        return Sampler.uniform_box(np.zeros(dim), np.ones(dim))
    if text == "gaussian":
        return Sampler.gaussian(np.zeros(dim), np.eye(dim))
    if text.startswith("mixture:"):
        path = text[len("mixture:"):]
        payload = read_json(path)
        return Sampler.gaussian_mixture(
            require_key(payload, "weights", path),
            require_key(payload, "means", path),
            require_key(payload, "covariances", path))
    raise ValidationError(
        f"unknown sampler {text!r}; expected uniform_box, gaussian or "
        "mixture:<file>")


def _plan_triplets(plan: np.ndarray):
    i, j = np.nonzero(plan > 0.0)
    return list(map(list, zip(i.tolist(), j.tolist(), plan[i, j].tolist())))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, trace columns or None)
# ---------------------------------------------------------------------------

def _load_problem(args):
    """The measures at ``--a`` and ``--b`` and their ``--cost`` matrix."""
    alpha = _load_measure(args.a)
    beta = _load_measure(args.b)
    return alpha, beta, build_cost_matrix(alpha, beta, _cost_spec(args.cost))


def _cmd_exact(args):
    from . import exact
    alpha, beta, C = _load_problem(args)
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
    from . import entropic
    alpha, beta, C = _load_problem(args)
    schedule = ([_number(e, "epsilon_schedule")
                 for e in args.schedule.split(",")] if args.schedule else None)
    config = entropic.SinkhornConfig(
        epsilon=args.epsilon, max_iter=args.max_iter,
        marginal_tol=args.tol, epsilon_schedule=schedule,
        log_domain=not args.scaling_domain,
        record_trace=args.trace is not None)
    res = entropic.sinkhorn(alpha.weights, beta.weights, C, config)
    trace = None
    if args.trace is not None:
        iters, _, viol_a, viol_b, dual, hilbert_step = zip(*res.state.trace)
        trace = {"iter": iters, "viol_a": viol_a, "viol_b": viol_b,
                 "dual": dual, "hilbert_step": hilbert_step}
    if res.state.status != "optimal":
        if trace is not None:
            write_text(args.trace, _jsonl(trace))
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
    from . import gaussian
    mean_a, cov_a = _load_gaussian(args.a)
    mean_b, cov_b = _load_gaussian(args.b)
    w2sq = gaussian.gaussian_w2_squared(mean_a, cov_a, mean_b, cov_b)
    mapping = gaussian.gaussian_monge_map(mean_a, cov_a, mean_b, cov_b)
    payload = {
        "w2_squared": w2sq,
        "w2": float(np.sqrt(w2sq)),
        "bures_squared": gaussian.bures_squared(cov_a, cov_b),
        "map": {
            "matrix": mapping.matrix,
            "source_mean": mapping.source_mean,
            "target_mean": mapping.target_mean,
        },
    }
    return payload, None


def _cmd_semidiscrete(args):
    from . import semidiscrete
    targets = check_points(read_json(args.targets), "targets")
    sampler = _sampler_spec(args.sampler, targets.shape[1])
    problem = semidiscrete.SemiDiscreteProblem(sampler, targets,
                                               read_json(args.weights))
    config = semidiscrete.SGDConfig(
        n_iter=args.iters, seed=args.seed, tau0=args.tau0, ell0=args.ell0,
        eval_every=args.eval_every, heldout_samples=args.heldout_samples)
    g, records = semidiscrete.sgd_solve(problem, config)
    iters, step_size, marginal_error = zip(*records)
    payload = {
        "g": g,
        "iterations": args.iters,
        "marginal_error": marginal_error[-1],
    }
    return payload, {"iter": iters, "step_size": step_size,
                     "marginal_error": marginal_error}


def _cmd_w1(args):
    from . import w1
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
    payload = read_json(args.measure)
    signed = w1.SignedDiscreteMeasure(
        require_key(payload, "points", args.measure),
        require_key(payload, "masses", args.measure))
    pts = signed.points
    dist = build_cost_matrix(pts, pts, CostSpec.euclidean())
    if args.mode == "kr":
        value, f = w1.w1_kr_lp(signed, dist)
        return {"value": value, "f": f}, None
    value = w1.flat_norm(signed, dist)
    return {"value": value}, None


def _cmd_divergence(args):
    from . import divergences
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
        kernel = divergences.KernelSpec.gaussian(_number(text[9:], "sigma"))
    elif text.startswith("energy:"):
        kernel = divergences.KernelSpec.energy(_number(text[7:], "p"))
    else:
        raise ValidationError(
            f"unknown kernel {text!r}; expected gaussian:<sigma> or "
            "energy:<p>")
    value = divergences.mmd_squared(alpha, beta, kernel)
    return {"value": value, "divergence": f"mmd2[{text}]"}, None


# -- flow configs -----------------------------------------------------------
#
# Each config and nested spec names the keys it reads in one `check_keys`
# call, before it reads any of them, so that a misspelled key is refused
# and named.  Where a kind or a name selects what else is read, that one
# key is read first.

def _linear_preset(spec, dim):
    from . import dynamics
    name = require_key(spec, "name", "potential")
    if name not in ("quadratic", "gaussian_well"):
        raise ValidationError(
            f"unknown potential {name!r}; expected quadratic or "
            "gaussian_well")
    check_keys(spec, ("name", "center", "sigma") if name == "gaussian_well"
               else ("name", "center"), "potential")
    center = check_vector(spec.get("center", np.zeros(dim)), "center", dim)
    # A potential is a kernel with one end pinned at the center.
    k, grad_k = _kernel(name == "gaussian_well", spec, "gaussian_well sigma")
    return dynamics.FunctionalSpec.linear(
        lambda x: k(x, center), lambda x: grad_k(x, center), dim=dim)


def _interaction_preset(spec, dim):
    from . import dynamics
    name = require_key(spec, "name", "kernel")
    if name not in ("quadratic", "gaussian"):
        raise ValidationError(
            f"unknown kernel {name!r}; expected quadratic or gaussian")
    check_keys(spec, ("name", "sigma") if name == "gaussian" else ("name",),
               "kernel")
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
    sigma = as_number(spec.get("sigma", 1.0), sigma_name, low=0, open=True)

    def k(x, y):
        return -np.exp(-((x - y) ** 2).sum(axis=-1) / (2.0 * sigma ** 2))

    def grad_k(x, y):
        r2 = ((x - y) ** 2).sum(axis=-1)
        return ((x - y) / sigma ** 2
                * np.exp(-r2 / (2.0 * sigma ** 2))[..., None])
    return k, grad_k


def _positions_trace(traj):
    """The ``t`` and ``positions`` trace columns of a particle trajectory."""
    return {"t": traj.times.tolist(), "positions": traj.states}


def _flow_gradient(cfg, path):
    from . import dynamics
    kind = require_key(cfg, "kind", path)
    if kind == "linear":
        spec_key, preset = "potential", _linear_preset
    elif kind == "interaction":
        spec_key, preset = "kernel", _interaction_preset
    else:
        raise ValidationError(
            f"unknown flow kind {kind!r}; expected linear or interaction")
    check_keys(cfg, ("kind", spec_key, "x0", "dt", "T", "scheme"), path)
    x0 = check_points(require_key(cfg, "x0", path), "x0")
    spec = preset(require_key(cfg, spec_key, path), x0.shape[1])
    traj = dynamics.gradient_flow(spec, x0, dt=require_key(cfg, "dt", path),
                                  T=require_key(cfg, "T", path),
                                  scheme=cfg.get("scheme", "explicit"))
    payload = {
        "final_state": traj.final_state,
        "energy_initial": spec.value(traj.states[0]),
        "energy_final": spec.value(traj.final_state),
        "n_steps": traj.n_times - 1,
    }
    return payload, _positions_trace(traj)


def _flow_entropy1d(cfg, path):
    from . import dynamics
    check_keys(cfg, ("grid", "density", "entropy", "dt", "T"), path)
    rho0 = GridDensity1D(require_key(cfg, "grid", path),
                         require_key(cfg, "density", path))
    spec = cfg.get("entropy", "shannon")
    if spec == "shannon":
        entropy = dynamics.GeneralizedEntropy.shannon()
    elif isinstance(spec, dict) and spec.get("name") == "power":
        check_keys(spec, ("name", "q"), "entropy")
        entropy = dynamics.GeneralizedEntropy.power(
            require_key(spec, "q", path))
    else:
        raise ValidationError(
            f"unknown entropy {spec!r}; expected \"shannon\" or "
            "{\"name\": \"power\", \"q\": ...}")
    flow_path = dynamics.entropy_flow_1d(rho0, entropy,
                                         dt=require_key(cfg, "dt", path),
                                         T=require_key(cfg, "T", path))
    payload = {
        "grid": flow_path.grid,
        "final_density": flow_path.densities[-1],
        "mass_initial": _trapezoid_cdf(flow_path.grid,
                                       flow_path.densities[0])[-1],
        "mass_final": _trapezoid_cdf(flow_path.grid,
                                     flow_path.densities[-1])[-1],
        "n_steps": flow_path.n_times - 1,
    }
    return payload, {"t": flow_path.times.tolist(),
                     "density": flow_path.densities}


def _flow_flowmatch(cfg, path):
    from . import dynamics
    check_keys(cfg, ("source", "target", "coupling", "bandwidth", "x0", "dt"),
               path)
    source = measure_from_dict(require_key(cfg, "source", path))
    target = measure_from_dict(require_key(cfg, "target", path))
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
            from . import exact
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
        cpath, cfg.get("x0", source.points), require_key(cfg, "dt", path),
        bandwidth)
    payload = {"endpoint": traj.final_state, "n_steps": traj.n_times - 1,
               "bandwidth": float(bandwidth)}
    return payload, _positions_trace(traj)


def _flow_transformer(cfg, path):
    from . import dynamics
    check_keys(cfg, ("tokens", "Q", "K", "V", "depth"), path)
    tokens = require_key(cfg, "tokens", path)
    traj = dynamics.transformer_flow(tokens, require_key(cfg, "Q", path),
                                     require_key(cfg, "K", path),
                                     require_key(cfg, "V", path),
                                     depth=require_key(cfg, "depth", path))
    payload = {"final_tokens": traj.final_state, "n_steps": traj.n_times - 1}
    return payload, _positions_trace(traj)


def _flow_mlp(cfg, path):
    from . import dynamics
    check_keys(cfg, ("features", "labels", "n_neurons", "dt", "T",
                     "activation", "seed"), path)
    traj, risk = dynamics.mlp_flow(
        require_key(cfg, "features", path), require_key(cfg, "labels", path),
        n_neurons=require_key(cfg, "n_neurons", path),
        dt=require_key(cfg, "dt", path), T=require_key(cfg, "T", path),
        activation=cfg.get("activation", "identity"),
        seed=require_key(cfg, "seed", path))
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
    return _FLOW_HANDLERS[args.mode](read_json(args.config), args.config)


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
        from .selftest import run_selftest
        report, ok = run_selftest()
        sys.stdout.write(report)
        return 0 if ok else 1
    if args.subcommand == "w1":
        needed = "graph" if args.mode == "graph" else "measure"
        if getattr(args, needed) is None:
            raise ValidationError(f"w1 {args.mode} requires --{needed}")
    payload, trace = _HANDLERS[args.subcommand](args)
    if getattr(args, "trace", None) is not None:
        write_text(args.trace, _jsonl(trace))
    text = _finish(payload, args)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text(args.out, text)
    return 0


def main(argv=None) -> int:
    try:
        # A float overflow, an invalid operation or a division by zero that
        # the code meeting it does not allow with its own np.errstate comes
        # from input past what the run can compute: it exits 2, where numpy
        # would print a warning and carry an inf or a NaN on, and Python's
        # float arithmetic would end in a traceback.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return run(argv)
    except (FloatingPointError, OverflowError) as exc:
        error = ValidationError(
            f"the input takes a computation past the float range: {exc}")
    except OTError as exc:
        error = exc
    sys.stderr.write(canonical_json(
        {"error": {"code": _error_code(error), "message": str(error)}}) + "\n")
    return 3 if isinstance(error, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
