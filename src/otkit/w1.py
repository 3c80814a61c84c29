"""W1 as a dual norm: Kantorovich-Rubinstein LP, flat norm, graph flows.

A zero-sum signed measure m = alpha - beta has

    W1(alpha, beta) = max { sum_k f_k m_k : |f_k - f_l| <= d(z_k, z_l) },

computed here by splitting m into positive and negative parts and
solving the resulting transportation problem with the ground distance as
cost.  The flat norm adds the box constraint |f_k| <= 1, realized as a
min-cost flow with a virtual node at distance one from every support
point where surplus mass may be created or destroyed.  On a graph the
same norm is the Beckmann problem: route the node imbalances along edges
at cost length * |flow|.
"""

import json
from typing import Tuple

import numpy as np

from ._mincostflow import components, quantize_balanced, solve_min_cost_flow
from .errors import UnbalancedError, ValidationError
from .exact import WEIGHT_DENOMINATOR, solve_kantorovich, validate_metric
from .measures import (EQUALITY_TOL, as_integer, check_cost_matrix,
                       check_points, check_vector, read_json)


class SignedDiscreteMeasure:
    """Finitely supported signed measure ``sum_k m_k delta_{z_k}``."""

    def __init__(self, points, masses):
        self.points = check_points(points)
        self.masses = check_vector(masses, "masses", self.points.shape[0])

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def require_zero_sum(self) -> None:
        if abs(self.total_mass) > EQUALITY_TOL:
            raise UnbalancedError(
                f"masses sum to {self.total_mass:.3e}, expected 0")


def _difference_parts(masses):
    a = np.clip(masses, 0.0, None)
    b = np.clip(-masses, 0.0, None)
    return a, b


def w1_kr_lp(m: SignedDiscreteMeasure, dist) -> Tuple[float, np.ndarray]:
    """W1 of a zero-sum signed measure under a validated ground metric.

    Returns the norm together with a potential that is 1-Lipschitz on
    the whole support and attains the dual value exactly.
    """
    D = validate_metric(dist)
    if D.shape[0] != m.n:
        raise ValidationError("distance matrix does not match the support")
    m.require_zero_sum()
    a, b = _difference_parts(m.masses)
    total = float(a.sum())
    if total <= 1e-12:
        return 0.0, np.zeros(m.n)
    result = solve_kantorovich(a / total, b / float(b.sum()), D)
    g = result.potentials.g
    # Anchor a fresh potential on the negative side; the minimum over
    # 1-Lipschitz cones keeps it 1-Lipschitz everywhere while preserving
    # the dual value on both supports.
    neg = np.flatnonzero(b > 0)
    f = np.min(D[:, neg] - g[neg][None, :], axis=1)
    value = total * result.cost
    return value, f


def flat_norm(m: SignedDiscreteMeasure, dist) -> float:
    """Dual norm with both 1-Lipschitz and ``|f| <= 1`` constraints.

    Zero-sum is not required: mass may be created or destroyed at unit
    cost, so the value never exceeds the total variation norm.
    """
    D = check_cost_matrix(dist, (m.n, m.n), "distance matrix")
    if np.any(D < 0):
        raise ValidationError("distances must be nonnegative")
    if np.abs(D - D.T).max() > 1e-12 * max(1.0, np.abs(D).max()):
        raise ValidationError("distance matrix must be symmetric")
    n = m.n
    scale = WEIGHT_DENOMINATOR
    q = np.rint(m.masses * scale).astype(np.int64)
    supplies = np.concatenate([q, [-q.sum()]])
    # Row i lists the arcs i -> j for j != i, then the arcs to and from
    # the virtual absorbing node n; the rows are laid out one after another.
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    atom = np.arange(n)[:, None]
    node = np.full((n, 1), n)
    unit = np.ones((n, 1))
    tails = np.hstack([ii.reshape(n, n - 1), atom, node])
    heads = np.hstack([jj.reshape(n, n - 1), node, atom])
    costs = np.hstack([D[ii, jj].reshape(n, n - 1), unit, unit])
    res = solve_min_cost_flow(n + 1, tails.ravel(), heads.ravel(),
                              costs.ravel(), supplies)
    return res.cost / scale


class FlowGraph:
    """Undirected graph with edge lengths and node imbalances.

    Every connected component must carry a zero-sum imbalance, otherwise
    no feasible routing exists.
    """

    def __init__(self, n_nodes, edges, imbalance, node_names=None):
        n = as_integer(n_nodes, "n_nodes")
        s = check_vector(imbalance, "imbalance", n)
        clean = []
        for u, v, length in edges:
            try:
                u, v, length = int(u), int(v), float(length)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad edge {(u, v, length)!r}") from exc
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValidationError(f"bad edge ({u}, {v})")
            if not (np.isfinite(length) and length > 0):
                raise ValidationError("edge lengths must be positive")
            clean.append((u, v, length))
        if abs(s.sum()) > 1e-12 * max(1.0, np.abs(s).sum()):
            raise UnbalancedError("imbalances must sum to zero")
        ends = np.array([(u, v) for u, v, _ in clean],
                        dtype=np.int64).reshape(-1, 2)
        _, count, comp = components(n, ends[:, 0], ends[:, 1])
        for c in range(count):
            mass = s[comp == c].sum()
            if abs(mass) > 1e-12 * max(1.0, np.abs(s).sum()):
                raise UnbalancedError(
                    f"component {c} carries net imbalance {mass:.3e}")
        names = list(node_names) if node_names else [str(i) for i in range(n)]
        if len(names) != n:
            raise ValidationError("one name per node required")
        self.n_nodes = n
        self.edges = clean
        self.imbalance = s
        self.node_names = names
        # The (u, v) pairs of the edges, the component count and each
        # node's component label, for `w1_graph_beckmann`.
        self.ends = ends
        self.n_components = count
        self.component = comp


def w1_graph_beckmann(graph: FlowGraph) -> Tuple[float, np.ndarray]:
    """Minimum total length-weighted flow routing the node imbalances.

    Returns the optimal value and one signed flow per edge, positive in
    the direction the edge was given.  Conservation holds exactly after
    integer scaling of the imbalances.
    """
    n = graph.n_nodes
    scale = WEIGHT_DENOMINATOR
    supplies = np.zeros(n, dtype=np.int64)
    for c in range(graph.n_components):
        idx = np.flatnonzero(graph.component == c)
        supplies[idx] = quantize_balanced(graph.imbalance[idx], scale)
    ends = graph.ends
    if len(ends) == 0:
        if np.any(supplies != 0):
            raise UnbalancedError("no edges available to route imbalance")
        return 0.0, np.zeros(0)
    # Arc 2e runs u -> v and arc 2e + 1 runs v -> u, both at edge e's length.
    lengths = np.array([length for _, _, length in graph.edges])
    res = solve_min_cost_flow(n, ends.ravel(), ends[:, ::-1].ravel(),
                              np.repeat(lengths, 2), supplies)
    net = res.flows[0::2] - res.flows[1::2]
    return res.cost / scale, net / scale


def flow_graph_from_dict(payload) -> FlowGraph:
    """Parse ``{"nodes": [...], "edges": [[u, v, length]], "imbalance": {}}``.

    Nodes are referenced by name; imbalance entries default to zero for
    nodes not listed.
    """
    try:
        nodes = list(payload["nodes"])
        edges_raw = list(payload["edges"])
        imbalance_raw = dict(payload["imbalance"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph payload: {exc}") from exc
    names = [str(v) for v in nodes]
    if len(set(names)) != len(names):
        raise ValidationError("node names must be unique")
    index = {name: i for i, name in enumerate(names)}
    edges = []
    for entry in edges_raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValidationError("edges must be [u, v, length] triples")
        u, v, length = entry
        if str(u) not in index or str(v) not in index:
            raise ValidationError(f"edge references unknown node {u!r}/{v!r}")
        edges.append((index[str(u)], index[str(v)], length))
    s = [0.0] * len(names)
    for key, mass in imbalance_raw.items():
        if str(key) not in index:
            raise ValidationError(f"imbalance references unknown node {key!r}")
        s[index[str(key)]] = mass
    return FlowGraph(len(names), edges, s, node_names=names)


def load_flow_graph_json(path) -> FlowGraph:
    return flow_graph_from_dict(read_json(path))


def save_flow_graph_json(path, graph: FlowGraph) -> None:
    payload = {
        "nodes": graph.node_names,
        "edges": [[graph.node_names[u], graph.node_names[v], length]
                  for u, v, length in graph.edges],
        "imbalance": {graph.node_names[i]: float(graph.imbalance[i])
                      for i in range(graph.n_nodes)
                      if graph.imbalance[i] != 0.0},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
