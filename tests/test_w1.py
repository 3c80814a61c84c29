"""Kantorovich-Rubinstein norm, flat norm, and graph Beckmann flows."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from otkit import w1
from otkit.errors import MetricAxiomError, UnbalancedError, ValidationError
from otkit.exact import solve_kantorovich, w1_1d_cdf
from otkit.measures import DiscreteMeasure
from otkit.w1 import (
    FlowGraph,
    SignedDiscreteMeasure,
    flat_norm,
    flow_graph_from_dict,
    load_flow_graph_json,
    save_flow_graph_json,
    w1_graph_beckmann,
    w1_kr_lp,
)

from conftest import random_points, random_simplex
from oracles import floyd_warshall


def difference_measure(x, a, y, b):
    pts = np.vstack([x, y])
    masses = np.concatenate([a, -b])
    return SignedDiscreteMeasure(pts, masses)


def euclidean_dist(pts):
    return cdist(pts, pts, metric="euclidean")


class TestKRNorm:
    def test_two_diracs_give_distance(self):
        m = SignedDiscreteMeasure(np.array([[0.0, 0.0], [3.0, 4.0]]),
                                  [1.0, -1.0])
        value, f = w1_kr_lp(m, euclidean_dist(m.points))
        assert_allclose(value, 5.0, rtol=1e-12)
        assert_allclose(f[0] - f[1], 5.0, rtol=1e-9)

    def test_matches_cdf_oracle_in_1d(self, rng):
        for _ in range(10):
            x = np.sort(rng.uniform(-2, 2, size=6))
            y = np.sort(rng.uniform(-2, 2, size=5))
            a = random_simplex(rng, 6)
            b = random_simplex(rng, 5)
            expected = w1_1d_cdf(DiscreteMeasure(x, a), DiscreteMeasure(y, b))
            m = difference_measure(x[:, None], a, y[:, None], b)
            value, _ = w1_kr_lp(m, euclidean_dist(m.points))
            assert_allclose(value, expected, rtol=0, atol=1e-8)

    def test_matches_transport_lp(self, rng):
        for _ in range(10):
            x = random_points(rng, 5, 2)
            y = random_points(rng, 6, 2)
            a = random_simplex(rng, 5)
            b = random_simplex(rng, 6)
            expected = solve_kantorovich(a, b, cdist(x, y)).cost
            m = difference_measure(x, a, y, b)
            value, _ = w1_kr_lp(m, euclidean_dist(m.points))
            assert_allclose(value, expected, rtol=0, atol=1e-8)

    def test_potential_is_lipschitz_and_attains_value(self, rng):
        for _ in range(10):
            x = random_points(rng, 4, 2)
            y = random_points(rng, 5, 2)
            a = random_simplex(rng, 4)
            b = random_simplex(rng, 5)
            m = difference_measure(x, a, y, b)
            D = euclidean_dist(m.points)
            value, f = w1_kr_lp(m, D)
            slack = np.abs(f[:, None] - f[None, :]) - D
            assert slack.max() <= 1e-9
            assert_allclose(float(f @ m.masses), value, rtol=0, atol=1e-8)

    def test_c_transform_of_potential_is_its_negation(self, rng):
        x = random_points(rng, 5, 2)
        y = random_points(rng, 4, 2)
        m = difference_measure(x, random_simplex(rng, 5),
                               y, random_simplex(rng, 4))
        D = euclidean_dist(m.points)
        _, f = w1_kr_lp(m, D)
        f_c = np.min(D - f[:, None], axis=0)
        assert_allclose(f_c, -f, rtol=0, atol=1e-9)

    def test_mass_homogeneity(self, rng):
        x = random_points(rng, 4, 2)
        y = random_points(rng, 4, 2)
        m = difference_measure(x, random_simplex(rng, 4),
                               y, random_simplex(rng, 4))
        D = euclidean_dist(m.points)
        v1, _ = w1_kr_lp(m, D)
        scaled = SignedDiscreteMeasure(m.points, 2.5 * m.masses)
        v2, _ = w1_kr_lp(scaled, D)
        assert_allclose(v2, 2.5 * v1, rtol=1e-8)

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e8])
    def test_homogeneous_down_to_tiny_masses(self, c):
        # A positive part of 1e-13 is still moved at its distance.
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
        masses = np.array([0.3, 0.2, -0.4, -0.1])
        D = euclidean_dist(pts)
        base, _ = w1_kr_lp(SignedDiscreteMeasure(pts, masses), D)
        scaled, _ = w1_kr_lp(SignedDiscreteMeasure(pts, c * masses), D)
        assert_allclose(scaled, c * base, rtol=1e-12, atol=0)
        pair = SignedDiscreteMeasure([[0.0], [1.0]], [c, -c])
        assert_allclose(w1_kr_lp(pair, [[0.0, 1.0], [1.0, 0.0]])[0], c,
                        rtol=1e-12, atol=0)

    def test_triangle_inequality(self, rng):
        pts = random_points(rng, 6, 2)
        D = euclidean_dist(pts)
        wa = random_simplex(rng, 6)
        wb = random_simplex(rng, 6)
        wc = random_simplex(rng, 6)
        dab, _ = w1_kr_lp(SignedDiscreteMeasure(pts, wa - wb), D)
        dbc, _ = w1_kr_lp(SignedDiscreteMeasure(pts, wb - wc), D)
        dac, _ = w1_kr_lp(SignedDiscreteMeasure(pts, wa - wc), D)
        assert dac <= dab + dbc + 1e-10

    def test_nonzero_sum_rejected(self):
        m = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [1.0, -0.5])
        with pytest.raises(UnbalancedError):
            w1_kr_lp(m, euclidean_dist(m.points))

    def test_large_masses_balance_up_to_rounding(self):
        # The float sum is -2.3e-11: zero relative to the 2e6 of mass
        # moved, by the rule `FlowGraph` applies to the same imbalance.
        masses = [1e6 + 0.1, -1e6, -0.1]
        assert sum(masses) != 0.0
        m = SignedDiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), masses)
        value, _ = w1_kr_lp(m, euclidean_dist(m.points))
        assert_allclose(value, 1e6 + 0.2, rtol=1e-12, atol=0)
        FlowGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], masses)

    def test_non_metric_rejected(self):
        m = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [1.0, -1.0])
        bad = np.array([[0.0, 5.0], [5.0, 0.1]])
        with pytest.raises(MetricAxiomError):
            w1_kr_lp(m, bad)


class TestFlatNorm:
    def test_two_diracs_min_of_two_and_distance(self):
        for d in (0.5, 1.7, 3.0):
            m = SignedDiscreteMeasure(np.array([[0.0], [d]]), [1.0, -1.0])
            value = flat_norm(m, euclidean_dist(m.points))
            assert_allclose(value, min(2.0, d), rtol=0, atol=1e-9)

    def test_single_unmatched_atom(self):
        m = SignedDiscreteMeasure(np.array([[0.3]]), [1.0])
        assert_allclose(flat_norm(m, np.zeros((1, 1))), 1.0,
                        rtol=0, atol=1e-9)

    def test_zero_measure(self):
        m = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [0.0, 0.0])
        assert flat_norm(m, euclidean_dist(m.points)) == 0.0

    def test_bounded_by_total_variation(self, rng):
        for _ in range(10):
            pts = random_points(rng, 6, 2)
            masses = rng.normal(size=6)
            m = SignedDiscreteMeasure(pts, masses)
            value = flat_norm(m, euclidean_dist(pts))
            assert value <= np.abs(masses).sum() + 1e-9

    def test_equals_w1_when_potentials_small(self, rng):
        # Clustered points keep the optimal potential well inside the
        # unit box, so the extra constraint is inactive.
        pts = 0.05 * random_points(rng, 5, 2)
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 5)
        m = SignedDiscreteMeasure(pts, a - b)
        D = euclidean_dist(pts)
        w1_val, f = w1_kr_lp(m, D)
        assert np.abs(f - f.mean()).max() <= 1.0
        assert_allclose(flat_norm(m, D), w1_val, rtol=0, atol=1e-8)

    def test_matches_dense_lp(self, rng):
        from scipy.optimize import linprog

        for _ in range(6):
            k = 6
            pts = random_points(rng, k, 2)
            masses = rng.normal(size=k)
            D = euclidean_dist(pts)
            # max m.f subject to f_i - f_j <= D_ij and |f_i| <= 1
            rows = []
            rhs = []
            for i in range(k):
                for j in range(k):
                    if i != j:
                        row = np.zeros(k)
                        row[i], row[j] = 1.0, -1.0
                        rows.append(row)
                        rhs.append(D[i, j])
            res = linprog(-masses, A_ub=np.array(rows), b_ub=np.array(rhs),
                          bounds=[(-1, 1)] * k, method="highs")
            assert res.success
            m = SignedDiscreteMeasure(pts, masses)
            assert_allclose(flat_norm(m, D), -res.fun, rtol=0, atol=1e-8)

    def test_homogeneity(self, rng):
        pts = random_points(rng, 5, 2)
        masses = rng.normal(size=5)
        D = euclidean_dist(pts)
        v = flat_norm(SignedDiscreteMeasure(pts, masses), D)
        v3 = flat_norm(SignedDiscreteMeasure(pts, 3.0 * masses), D)
        assert_allclose(v3, 3.0 * v, rtol=1e-7, atol=1e-9)


    def test_arcs_keep_the_loop_order(self, rng, monkeypatch):
        # The arc order fixes SSP tie-breaking, so it must not change.
        import otkit.w1 as w1_module

        seen = []
        solve = w1_module.solve_min_cost_flow
        monkeypatch.setattr(
            w1_module, "solve_min_cost_flow",
            lambda *args: seen.append(args[1:4]) or solve(*args))
        for k in range(1, 7):
            pts = random_points(rng, k, 2)
            D = euclidean_dist(pts)
            flat_norm(SignedDiscreteMeasure(pts, rng.normal(size=k)), D)
            tails, heads, costs = [], [], []
            for i in range(k):
                for j in range(k):
                    if i != j:
                        tails.append(i)
                        heads.append(j)
                        costs.append(D[i, j])
                tails.extend([i, k])
                heads.extend([k, i])
                costs.extend([1.0, 1.0])
            for got, want in zip(seen[-1], (tails, heads, costs)):
                assert np.array_equal(got, np.array(want))


class TestBeckmann:
    def test_path_graph(self):
        g = FlowGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 0.0, -1.0])
        value, flows = w1_graph_beckmann(g)
        assert_allclose(value, 2.0, rtol=0, atol=1e-9)
        assert_allclose(flows, [1.0, 1.0], rtol=0, atol=1e-9)

    def test_star_graph_forced_routing(self):
        lengths = [0.5, 1.5, 2.0]
        demands = [0.2, 0.3, 0.5]
        edges = [(0, k + 1, lengths[k]) for k in range(3)]
        g = FlowGraph(4, edges, [1.0, -0.2, -0.3, -0.5])
        value, flows = w1_graph_beckmann(g)
        expected = sum(L * d for L, d in zip(lengths, demands))
        assert_allclose(value, expected, rtol=0, atol=1e-9)
        assert_allclose(flows, demands, rtol=0, atol=1e-9)

    def test_grid_matches_shortest_path_metric(self, rng):
        # 3x3 grid with random positive lengths; route a random zero-sum
        # imbalance and compare with the KR norm under the shortest-path
        # metric between the charged nodes.
        n = 9
        edges = []
        for r in range(3):
            for c in range(3):
                u = 3 * r + c
                if c < 2:
                    edges.append((u, u + 1, float(rng.uniform(0.5, 2.0))))
                if r < 2:
                    edges.append((u, u + 3, float(rng.uniform(0.5, 2.0))))
        raw = rng.normal(size=n)
        s = raw - raw.mean()
        g = FlowGraph(n, edges, s)
        value, flows = w1_graph_beckmann(g)
        W = np.full((n, n), np.inf)
        for u, v, length in edges:
            W[u, v] = min(W[u, v], length)
            W[v, u] = min(W[v, u], length)
        D = floyd_warshall(W)
        m = SignedDiscreteMeasure(np.zeros((n, 1)), s)
        expected, _ = w1_kr_lp(m, D)
        assert_allclose(value, expected, rtol=0, atol=1e-8)

    def test_flow_conservation_exact(self, rng):
        edges = [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (3, 0, 0.9),
                 (0, 2, 2.0)]
        raw = rng.normal(size=4)
        s = raw - raw.mean()
        g = FlowGraph(4, edges, s)
        _, flows = w1_graph_beckmann(g)
        div = np.zeros(4)
        for e, (u, v, _) in enumerate(edges):
            div[u] += flows[e]
            div[v] -= flows[e]
        assert np.abs(div - s).max() <= 1e-9

    def test_cost_past_the_float_range_is_a_validation_error(self):
        """A unit of mass is routed as 1e9 integer units, so an edge of
        length 1e300 puts the total past the float range: that is an
        error naming the overflow, not a warning and a value of inf."""
        g = FlowGraph(2, [(0, 1, 1e299)], [1.0, -1.0])
        assert w1_graph_beckmann(g)[0] == 1e299
        g = FlowGraph(2, [(0, 1, 1e300)], [1.0, -1.0])
        with pytest.raises(ValidationError, match="flow cost overflows"):
            w1_graph_beckmann(g)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedError):
            FlowGraph(2, [(0, 1, 1.0)], [1.0, -0.5])

    def test_disconnected_component_must_balance(self):
        # Global sum is zero but each component is charged.
        with pytest.raises(UnbalancedError):
            FlowGraph(4, [(0, 1, 1.0), (2, 3, 1.0)],
                      [1.0, 0.0, 0.0, -1.0])

    def test_balanced_components_solve_independently(self):
        g = FlowGraph(4, [(0, 1, 2.0), (2, 3, 5.0)],
                      [0.5, -0.5, -0.25, 0.25])
        value, flows = w1_graph_beckmann(g)
        assert_allclose(value, 0.5 * 2.0 + 0.25 * 5.0, rtol=0, atol=1e-9)
        assert_allclose(flows, [0.5, -0.25], rtol=0, atol=1e-9)

    def test_components_are_found_once(self, monkeypatch):
        # The solve reuses the labels FlowGraph found while checking that
        # every component balances.
        g = FlowGraph(5, [(0, 1, 2.0), (2, 3, 5.0)],
                      [0.5, -0.5, -0.25, 0.25, 0.0])
        assert g.n_components == 3
        assert g.component.tolist() == [0, 0, 1, 1, 2]

        def fail(*args):
            raise AssertionError("components recomputed")
        monkeypatch.setattr(w1, "components", fail)
        value, flows = w1_graph_beckmann(g)
        assert_allclose(value, 0.5 * 2.0 + 0.25 * 5.0, rtol=0, atol=1e-9)
        assert_allclose(flows, [0.5, -0.25], rtol=0, atol=1e-9)


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        g = FlowGraph(3, [(0, 1, 1.5), (1, 2, 2.5)], [0.25, 0.0, -0.25],
                      node_names=["a", "b", "c"])
        path = tmp_path / "graph.json"
        save_flow_graph_json(path, g)
        loaded = load_flow_graph_json(path)
        assert loaded.node_names == ["a", "b", "c"]
        assert loaded.edges == g.edges
        assert_allclose(loaded.imbalance, g.imbalance)

    def test_parse_named_nodes(self):
        payload = {
            "nodes": ["x", "y"],
            "edges": [["x", "y", 2.0]],
            "imbalance": {"x": 1.0, "y": -1.0},
        }
        g = flow_graph_from_dict(payload)
        value, _ = w1_graph_beckmann(g)
        assert_allclose(value, 2.0, rtol=0, atol=1e-9)

    def test_unknown_node_rejected(self):
        payload = {
            "nodes": ["x", "y"],
            "edges": [["x", "z", 1.0]],
            "imbalance": {},
        }
        with pytest.raises(ValidationError):
            flow_graph_from_dict(payload)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError):
            flow_graph_from_dict({"nodes": ["x"], "edges": []})
