"""Seeded inputs for the benchmark workloads.

Each workload is a fixed cycle of op slots. A slot holds a small pool of
input instances drawn from the workload seed and written to files before
any timing starts; pass ``p`` of the cycle runs instance ``p % len(pool)``
of every slot, so every argv is run more than once and reruns can be
compared byte for byte.

The numbers an op's check needs (points, weights, the graph, ...) are kept
in ``Op.data`` straight from the generator, so the checks never read them
back through otkit.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

WEIGHT_DENOMINATOR = 10**9


@dataclass
class Op:
    """One prepared ``ot`` invocation and the data its check needs."""

    kind: str
    label: str
    argv: list
    data: dict = field(default_factory=dict)
    extra_outputs: tuple = ()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _uniform_points(rng, n, dim=2):
    return rng.random((n, dim))


def _uniform_weights(rng, n):
    return np.full(n, 1.0 / n)


def _random_weights(rng, n):
    w = rng.uniform(0.1, 1.0, size=n)
    return w / w.sum()


def _rational_weights(rng, n):
    """Weights that are exact multiples of 1e-9 and sum to one."""
    counts = rng.multinomial(WEIGHT_DENOMINATOR, rng.dirichlet(np.ones(n)))
    counts = counts + 1
    counts[np.argmax(counts)] -= n
    return counts / WEIGHT_DENOMINATOR


def sq_euclidean(x, y):
    """Squared Euclidean cost matrix, computed here and not by otkit."""
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)


class _Files:
    """Names files inside the work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def __call__(self, stem):
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:03d}-{stem}")


def _measure_pair(files, rng, n, weights):
    x = _uniform_points(rng, n)
    y = _uniform_points(rng, n)
    a = weights(rng, n)
    b = weights(rng, n)
    path_a = _write_json(files("a.json"),
                         {"points": x.tolist(), "weights": a.tolist()})
    path_b = _write_json(files("b.json"),
                         {"points": y.tolist(), "weights": b.tolist()})
    return x, y, a, b, path_a, path_b


def _exact_op(files, rng, n, weight_kind, out):
    weights = {"uniform": _uniform_weights, "random": _random_weights}
    x, y, a, b, path_a, path_b = _measure_pair(files, rng, n,
                                               weights[weight_kind])
    argv = ["exact", "--a", path_a, "--b", path_b, "--cost", "sqeuclidean",
            "--out", out]
    return Op("exact", f"exact n={n} {weight_kind}", argv,
              {"a": a, "b": b, "C": sq_euclidean(x, y)})


def _dense_sinkhorn_op(files, rng, n, out):
    x, y, a, b, path_a, path_b = _measure_pair(files, rng, n, _random_weights)
    C = sq_euclidean(x, y)
    eps = 0.1 * float(C.mean())
    argv = ["sinkhorn", "--a", path_a, "--b", path_b, "--cost", "sqeuclidean",
            "--epsilon", repr(eps), "--out", out]
    return Op("sinkhorn", f"sinkhorn n={n}", argv,
              {"a": a, "b": b, "C": C, "epsilon": eps, "tol": 1e-8})


# small-steps parameters; see README.md for how they were tuned.
LADDER_SHAPE = (10, 11)
LADDER_FINAL = 0.1        # target epsilon as a share of mean(C)
LADDER_TOL = 1e-12
FLOW_PARTICLES = 40
FLOW_DT = 0.05
FLOW_T = 1.0
SGD_TARGETS = 16
SGD_ITERS = 15000
SGD_TAU0 = 0.01
GRID_SIDE = 14


def _ladder_sinkhorn_op(files, rng, out, trace):
    n, m = LADDER_SHAPE
    x = _uniform_points(rng, n)
    y = _uniform_points(rng, m)
    a = _rational_weights(rng, n)
    b = _rational_weights(rng, m)
    path_a = _write_json(files("a.json"),
                         {"points": x.tolist(), "weights": a.tolist()})
    path_b = _write_json(files("b.json"),
                         {"points": y.tolist(), "weights": b.tolist()})
    C = sq_euclidean(x, y)
    mean = float(C.mean())
    eps = LADDER_FINAL * mean
    # mean(C) * 2**-k for every k with 2**-k above the target share.
    schedule = [mean * 2.0 ** -k for k in range(4)] + [eps]
    argv = ["sinkhorn", "--a", path_a, "--b", path_b, "--cost", "sqeuclidean",
            "--epsilon", repr(eps),
            "--schedule", ",".join(repr(e) for e in schedule),
            "--tol", repr(LADDER_TOL), "--max-iter", "200000",
            "--trace", trace, "--out", out]
    return Op("sinkhorn", "sinkhorn ladder 10x11", argv,
              {"a": a, "b": b, "C": C, "epsilon": eps, "tol": LADDER_TOL},
              extra_outputs=(trace,))


def _flow_op(files, rng, out, trace):
    x0 = rng.random((FLOW_PARTICLES, 2))
    sigma = 1.0
    config = {"x0": x0.tolist(), "kind": "interaction",
              "kernel": {"name": "gaussian", "sigma": sigma},
              "dt": FLOW_DT, "T": FLOW_T}
    path = _write_json(files("flow.json"), config)
    argv = ["flow", "gradient", "--config", path, "--trace", trace,
            "--out", out]
    return Op("flow", f"flow gradient n={FLOW_PARTICLES}", argv,
              {"x0": x0, "sigma": sigma}, extra_outputs=(trace,))


def _semidiscrete_op(files, rng, out):
    y = rng.random((SGD_TARGETS, 2))
    w = np.full(SGD_TARGETS, 1.0 / SGD_TARGETS)
    path_y = _write_json(files("targets.json"), y.tolist())
    path_w = _write_json(files("weights.json"), w.tolist())
    argv = ["semidiscrete", "--targets", path_y, "--weights", path_w,
            "--sampler", "uniform_box", "--iters", str(SGD_ITERS),
            "--tau0", repr(SGD_TAU0), "--seed", str(rng.integers(2**31)),
            "--out", out]
    return Op("semidiscrete", f"semidiscrete m={SGD_TARGETS}", argv,
              {"targets": y, "weights": w,
               "check_seed": int(rng.integers(2**31))})


def _grid_graph_op(files, rng, out):
    side = GRID_SIDE
    names = [f"{r}_{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                edges.append((u, u + 1))
            if r + 1 < side:
                edges.append((u, u + side))
    lengths = rng.uniform(0.5, 2.0, size=len(edges))
    s = rng.standard_normal(side * side)
    s -= s.mean()
    payload = {"nodes": names,
               "edges": [[names[u], names[v], float(l)]
                         for (u, v), l in zip(edges, lengths)],
               "imbalance": dict(zip(names, s.tolist()))}
    path = _write_json(files("graph.json"), payload)
    argv = ["w1", "graph", "--graph", path, "--out", out]
    return Op("w1", f"w1 graph {side}x{side}", argv,
              {"names": names, "edges": np.array(edges), "lengths": lengths,
               "imbalance": s})


# Instances per slot. A pass over the pool runs every instance once.
POOL = {"exact-dense": 4, "sinkhorn-dense": 3, "small-steps": 3}
WORKLOADS = tuple(POOL)


def build(name, seed, workdir):
    """Return the workload's slots, each a list of POOL[name] instances."""
    if name not in POOL:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    files = _Files(workdir)
    out = os.path.join(workdir, "out.json")
    trace = os.path.join(workdir, "trace.jsonl")
    if name == "exact-dense":
        # n cycles through 16, 32, 48 while the weights alternate; the
        # slowest pair (48, random) runs twice per cycle, which puts the
        # median op inside the n = 32 cluster and the tail op inside the
        # (48, random) cluster instead of between clusters.
        cycle = [(16, "uniform"), (32, "random"), (48, "uniform"),
                 (16, "random"), (32, "uniform"), (48, "random"),
                 (48, "random")]
        make = [lambda n=n, kind=kind: _exact_op(files, rng, n, kind, out)
                for n, kind in cycle]
    elif name == "sinkhorn-dense":
        # 128 twice per cycle: the median op is then an in-cache n = 128
        # solve and the tail an out-of-cache n = 256 one, instead of the
        # median falling between the two clusters.
        make = [lambda n=n: _dense_sinkhorn_op(files, rng, n, out)
                for n in (128, 256, 128)]
    else:
        # flow runs twice per cycle and does the same work on every input,
        # so the median op is a flow op: the ladder, whose iteration count
        # depends on the input, stays below it, semidiscrete just above it
        # and w1 in the tail.
        make = [lambda: _ladder_sinkhorn_op(files, rng, out, trace),
                lambda: _flow_op(files, rng, out, trace),
                lambda: _semidiscrete_op(files, rng, out),
                lambda: _ladder_sinkhorn_op(files, rng, out, trace),
                lambda: _flow_op(files, rng, out, trace),
                lambda: _grid_graph_op(files, rng, out)]
    return [[factory() for _ in range(POOL[name])] for factory in make]
