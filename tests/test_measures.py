"""Measures, costs, couplings: validation, cdf/quantile duality, gluing."""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from otkit.errors import ValidationError
from otkit.measures import (
    Coupling,
    CostSpec,
    DiscreteMeasure,
    GridDensity1D,
    align_supports,
    build_cost_matrix,
    cdf_and_quantile,
    glue,
    load_grid_json,
    load_measure_csv,
    load_measure_json,
    normalize,
    product_coupling,
    pushforward,
    save_grid_json,
    save_measure_json,
    write_text,
)
from otkit.w1 import FlowGraph, load_flow_graph_json, save_flow_graph_json

from conftest import random_simplex


class TestDiscreteMeasure:
    def test_scalar_points_get_a_dimension(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert m.points.shape == (3, 1)
        assert m.dim == 1

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([[0.0], [1.0]], [0.5, -0.1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([[np.nan]], [1.0])
        with pytest.raises(ValidationError):
            DiscreteMeasure([[0.0]], [np.inf])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([[0.0], [1.0]], [1.0])

    def test_normalized_total_mass_is_one(self, rng):
        for _ in range(20):
            w = rng.exponential(size=8)
            m = DiscreteMeasure(rng.standard_normal((8, 2)), w).normalized()
            assert abs(m.total_mass - 1.0) <= 1e-12
            assert m.is_probability

    def test_normalize_zero_mass_rejected(self):
        m = DiscreteMeasure([[0.0]], [0.0])
        with pytest.raises(ValidationError):
            normalize(m)


class TestGridDensity1D:
    def test_trapezoid_masses_uniform(self):
        grid = np.linspace(0.0, 1.0, 11)
        rho = GridDensity1D(grid, np.ones(11))
        assert_allclose(rho.cell_masses, np.full(10, 0.1), rtol=0, atol=1e-15)
        assert_allclose(rho.total_mass, 1.0, rtol=0, atol=1e-15)

    def test_strictly_increasing_grid_required(self):
        with pytest.raises(ValidationError):
            GridDensity1D([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            GridDensity1D([0.0, 1.0], [1.0, -0.5])

    def test_node_cdf_monotone(self, rng):
        grid = np.sort(rng.uniform(0, 5, size=9))
        grid += np.arange(9) * 1e-3
        rho = GridDensity1D(grid, rng.uniform(0, 2, size=9))
        F = rho.node_cdf()
        assert F[0] == 0.0
        assert np.all(np.diff(F) >= 0)

    def test_to_discrete_preserves_mass(self):
        rho = GridDensity1D([0.0, 1.0, 3.0], [1.0, 0.5, 0.0])
        atoms = rho.to_discrete()
        assert_allclose(atoms.total_mass, rho.total_mass, rtol=1e-15)


class TestCostMatrix:
    def test_sq_euclidean_matches_direct_formula(self, rng):
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((4, 3))
        C = build_cost_matrix(x, y, CostSpec.sq_euclidean())
        direct = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        assert_allclose(C, direct, rtol=1e-12, atol=1e-12)

    def test_euclidean_345(self):
        C = build_cost_matrix([[0.0, 0.0]], [[3.0, 4.0]], CostSpec.euclidean())
        assert C[0, 0] == 5.0

    def test_p_power_one_equals_euclidean(self, rng):
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        assert_allclose(
            build_cost_matrix(x, y, CostSpec.p_power(1.0)),
            build_cost_matrix(x, y, CostSpec.euclidean()),
            rtol=0, atol=0,
        )

    def test_p_below_one_rejected(self):
        with pytest.raises(ValidationError):
            CostSpec.p_power(0.5)

    def test_p_power_past_the_float_range_names_p(self):
        # 10^400 overflows; the suite turns numpy's overflow warning into
        # an error, so this passes only if none is raised.
        with pytest.raises(ValidationError, match="at p 400.0"):
            build_cost_matrix([[0.0]], [[10.0]], CostSpec.p_power(400))

    def test_zero_one_cost(self):
        x = np.array([[0.0], [1.0], [2.0]])
        C = build_cost_matrix(x, x, CostSpec.zero_one())
        assert_allclose(C, 1.0 - np.eye(3), rtol=0, atol=0)

    def test_explicit_matrix_shape_checked(self):
        spec = CostSpec.explicit(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            build_cost_matrix(np.zeros((3, 1)), np.zeros((3, 1)), spec)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_cost_matrix(np.zeros((2, 1)), np.zeros((2, 2)),
                              CostSpec.euclidean())


class TestCoupling:
    def test_product_coupling_marginals(self, rng):
        a = random_simplex(rng, 5)
        b = random_simplex(rng, 7)
        P = product_coupling(a, b)
        assert_allclose(P.plan.sum(axis=1), a, rtol=0, atol=1e-12)
        assert_allclose(P.plan.sum(axis=0), b, rtol=0, atol=1e-12)

    def test_marginal_defect_rejected(self):
        plan = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError):
            Coupling(plan, [0.6, 0.4], [0.5, 0.5])

    def test_tiny_negative_entries_clamped(self):
        plan = np.array([[0.5, -1e-14], [0.0, 0.5 + 1e-14]])
        P = Coupling(plan, [0.5, 0.5], [0.5, 0.5], atol=1e-9)
        assert P.plan.min() == 0.0

    def test_large_negative_entry_rejected(self):
        plan = np.array([[0.6, -0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            Coupling(plan, [0.5, 0.5], [0.5, 0.5])

    def test_cost_inner_product(self, rng):
        a = random_simplex(rng, 4)
        b = random_simplex(rng, 4)
        P = product_coupling(a, b)
        C = rng.uniform(size=(4, 4))
        assert_allclose(P.cost(C), float(np.sum(np.outer(a, b) * C)), rtol=1e-14)


class TestGlue:
    def _coupling_with_marginals(self, rng, a, b):
        """A strictly positive coupling with the prescribed marginals."""
        M = rng.uniform(0.5, 1.5, size=(a.size, b.size))
        # Alternate row and column scalings; a few rounds get machine-close.
        for _ in range(200):
            M *= (a / M.sum(axis=1))[:, None]
            M *= (b / M.sum(axis=0))[None, :]
        return Coupling(M, a, b, atol=1e-10)

    def test_glue_marginals_and_composition(self, rng):
        a = random_simplex(rng, 4)
        b = random_simplex(rng, 3)
        c = random_simplex(rng, 5)
        P = self._coupling_with_marginals(rng, a, b)
        Q = self._coupling_with_marginals(rng, b, c)
        S, R = glue(P, Q)
        # The gluing recovers both plans as pairwise marginals.
        assert_allclose(S.sum(axis=2), P.plan, rtol=0, atol=1e-12)
        assert_allclose(S.sum(axis=0), Q.plan, rtol=0, atol=1e-12)
        assert_allclose(R.plan.sum(axis=1), a, rtol=0, atol=1e-9)
        assert_allclose(R.plan.sum(axis=0), c, rtol=0, atol=1e-9)

    def test_glue_rejects_mismatched_middle(self, rng):
        a = random_simplex(rng, 3)
        b1 = random_simplex(rng, 4)
        b2 = random_simplex(rng, 4)
        P = self._coupling_with_marginals(rng, a, b1)
        Q = self._coupling_with_marginals(rng, b2, a)
        with pytest.raises(ValidationError):
            glue(P, Q)

    def test_glue_through_zero_middle_atom(self):
        # Mass through a zero-weight middle atom is zero on both sides, so
        # the gluing simply skips it.
        P = Coupling([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
        Q = Coupling([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
        S, R = glue(P, Q)
        assert_allclose(R.plan, np.diag([0.5, 0.5]), rtol=0, atol=0)
        assert_allclose(S.sum(axis=(0, 2)), [0.5, 0.5], rtol=0, atol=0)


class TestPushforward:
    def test_identity_keeps_atoms(self, rng):
        m = DiscreteMeasure(rng.standard_normal((6, 2)),
                            random_simplex(rng, 6))
        out = pushforward(m, lambda x: x)
        assert out.n == 6
        assert_allclose(out.total_mass, 1.0, rtol=1e-14)

    def test_constant_map_merges_everything(self, rng):
        m = DiscreteMeasure(rng.standard_normal((5, 2)), random_simplex(rng, 5))
        out = pushforward(m, lambda x: np.zeros_like(x))
        assert out.n == 1
        assert_allclose(out.weights[0], 1.0, rtol=1e-14)

    def test_nearby_images_merge(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        out = pushforward(m, lambda x: np.where(x > 0.5, 2.0, 2.0 + 5e-13))
        assert out.n == 1

    def test_scalar_map_applied_rowwise(self):
        m = DiscreteMeasure([[1.0, 2.0]], [1.0])
        out = pushforward(m, lambda p: float(p[0] + p[1]))
        assert out.points.shape == (1, 1)
        assert out.points[0, 0] == 3.0

    def test_non_finite_image_rejected(self):
        m = DiscreteMeasure([[1.0]], [1.0])
        with pytest.raises(ValidationError):
            pushforward(m, lambda x: x * np.inf)


class TestCdfQuantileAtoms:
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=-64, max_value=64),
                st.integers(min_value=1, max_value=16),
            ),
            min_size=1,
            max_size=8,
        ),
        r_num=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_galois_relation(self, data, r_num):
        # cdf(x) >= r  <=>  quantile(r) <= x, for r in (0, 1].  Weights are
        # dyadic rationals over a power-of-two total, so cumulative sums are
        # exact and the equivalence holds without any tolerance.
        xs = np.array([d[0] for d in data], dtype=float) / 8.0
        ks = np.array([d[1] for d in data], dtype=float)
        total = 1024.0
        xs = np.concatenate([xs, [100.0]])
        ws = np.concatenate([ks, [total - ks.sum()]]) / total
        m = DiscreteMeasure(xs, ws)
        cdf, quantile = cdf_and_quantile(m)
        r = r_num / 32.0
        q = quantile(r)
        for x in np.concatenate([xs, xs - 0.05, xs + 0.05]):
            assert (cdf(x) >= r) == (q <= x)

    def test_step_values(self):
        m = DiscreteMeasure([0.0, 1.0], [0.25, 0.75])
        cdf, quantile = cdf_and_quantile(m)
        assert cdf(-0.5) == 0.0
        assert cdf(0.0) == 0.25
        assert cdf(0.5) == 0.25
        assert cdf(1.0) == 1.0
        assert quantile(0.25) == 0.0
        assert quantile(0.2500001) == 1.0
        assert quantile(1.0) == 1.0

    def test_duplicate_atoms_merged(self):
        m = DiscreteMeasure([1.0, 1.0, 0.0], [0.25, 0.25, 0.5])
        cdf, _ = cdf_and_quantile(m)
        assert cdf(1.0) == 1.0
        assert cdf(0.0) == 0.5

    def test_requires_probability(self):
        m = DiscreteMeasure([0.0], [0.5])
        with pytest.raises(ValidationError):
            cdf_and_quantile(m)


class TestCdfQuantileGrid:
    def test_uniform_inverse_is_identity(self):
        rho = GridDensity1D(np.linspace(0, 1, 21), np.ones(21))
        cdf, quantile = cdf_and_quantile(rho)
        rs = np.linspace(0.01, 0.99, 17)
        assert_allclose(quantile(rs), rs, rtol=0, atol=1e-12)
        assert_allclose(cdf(rs), rs, rtol=0, atol=1e-12)

    def test_flat_run_resolved_at_midpoint(self):
        # Middle cell carries no mass; the tie at r = 1/2 sits at its center.
        rho = GridDensity1D([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0])
        _, quantile = cdf_and_quantile(rho.normalized())
        assert quantile(0.5) == 1.5

    def test_roundtrip_on_increasing_part(self, rng):
        grid = np.linspace(-2, 2, 41)
        rho = GridDensity1D(grid, np.exp(-grid**2)).normalized()
        cdf, quantile = cdf_and_quantile(rho)
        xs = np.linspace(-1.9, 1.9, 13)
        assert_allclose(quantile(cdf(xs)), xs, rtol=0, atol=1e-9)


class TestAlignSupports:
    def test_shared_atoms_identified(self):
        A = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        B = DiscreteMeasure([1.0, 2.0], [0.25, 0.75])
        pts, wa, wb = align_supports(A, B)
        assert pts.shape == (3, 1)
        assert_allclose(wa, [0.5, 0.5, 0.0], rtol=0, atol=0)
        assert_allclose(wb, [0.0, 0.25, 0.75], rtol=0, atol=0)


class TestIO:
    def test_json_roundtrip(self, tmp_path, rng):
        m = DiscreteMeasure(rng.standard_normal((4, 2)), random_simplex(rng, 4))
        path = tmp_path / "measure.json"
        save_measure_json(m, path)
        back = load_measure_json(path)
        assert_allclose(back.points, m.points, rtol=0, atol=0)
        assert_allclose(back.weights, m.weights, rtol=0, atol=0)

    def test_csv_last_column_is_weight(self, tmp_path):
        path = tmp_path / "measure.csv"
        path.write_text("0.0,0.0,0.25\n1.0,2.0,0.75\n")
        m = load_measure_csv(path)
        assert m.points.shape == (2, 2)
        assert_allclose(m.weights, [0.25, 0.75], rtol=0, atol=0)

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n2.0,3.0,0.5\n")
        with pytest.raises(ValidationError):
            load_measure_csv(path)

    def test_grid_json_roundtrip(self, tmp_path):
        rho = GridDensity1D([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
        path = tmp_path / "grid.json"
        save_grid_json(rho, path)
        back = load_grid_json(path)
        assert_allclose(back.grid, rho.grid, rtol=0, atol=0)
        assert_allclose(back.density, rho.density, rtol=0, atol=0)

    @pytest.mark.parametrize("loader", [load_measure_json, load_grid_json,
                                        load_flow_graph_json,
                                        load_measure_csv])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_a_validation_error(self, tmp_path, loader,
                                                   kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ValidationError) as error:
            loader(path)
        # CSV and JSON files are read by one reader, with one message.
        assert str(error.value).startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("loader", [load_measure_json, load_grid_json,
                                        load_flow_graph_json])
    def test_malformed_json_is_a_validation_error(self, tmp_path, loader):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="is not valid JSON"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_measure_json, load_grid_json,
                                        load_flow_graph_json])
    def test_deeply_nested_json_is_a_validation_error(self, tmp_path,
                                                      loader):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValidationError, match="nested too deeply"):
            loader(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [[0.0]]}))
        with pytest.raises(ValidationError):
            load_measure_json(path)

    @pytest.mark.parametrize("loader, payload", [
        (load_measure_json, {"points": [[0.0]]}),
        (load_measure_json, [[0.0], [1.0]]),
        (load_grid_json, {"grid": [0.0, 1.0]}),
        (load_grid_json, "grid"),
        (load_flow_graph_json, {"nodes": ["x"], "edges": []}),
        (load_flow_graph_json, {"nodes": 5, "edges": [], "imbalance": {}}),
        (load_flow_graph_json, {"nodes": ["x"], "edges": [],
                                "imbalance": [["x", 0.0]]}),
    ], ids=["measure-without-weights", "measure-is-a-list",
            "grid-without-density", "grid-is-a-string",
            "graph-without-imbalance", "graph-nodes-a-number",
            "graph-imbalance-a-list"])
    def test_missing_key_or_wrong_container_is_a_validation_error(
            self, tmp_path, loader, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="JSON"):
            loader(path)

    @pytest.mark.parametrize("save", [
        lambda path: save_measure_json(DiscreteMeasure([[0.0]], [1.0]), path),
        lambda path: save_grid_json(GridDensity1D([0.0, 1.0], [1.0, 1.0]),
                                    path),
        lambda path: save_flow_graph_json(
            path, FlowGraph(2, [(0, 1, 1.0)], [0.5, -0.5])),
    ], ids=["measure", "grid", "graph"])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_path_is_a_validation_error(self, tmp_path, save,
                                                   kind):
        path = tmp_path / "missing" / "out.json"
        if kind == "directory":
            path = tmp_path
        with pytest.raises(ValidationError, match="cannot write"):
            save(path)

    def test_write_text_does_not_truncate_a_device(self):
        # A character device cannot be truncated; the write must not try.
        write_text(os.devnull, "payload\n")


SRC = Path(__file__).resolve().parent.parent / "src" / "otkit"
# Calls that write a file whatever their arguments: `json.dump`, numpy's
# savers and pathlib's writers.
_WRITING_CALLS = {"dump", "save", "savez", "savetxt", "tofile",
                  "write_bytes"}


def _writes(call):
    """Whether ``call`` opens a file for writing or writes one outright.

    An ``open``, ``os.open`` or ``os.fdopen`` counts as a write unless its
    mode is a string constant without "w", "a", "x" or "+".
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        if name == "write_text":
            return True
    else:
        name = getattr(func, "id", "")
    if name in _WRITING_CALLS:
        return True
    if name not in ("open", "fdopen"):
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords
                              if kw.arg in ("mode", "flags")]
    return any(not isinstance(mode, ast.Constant)
               or set(str(mode.value)) & set("wax+") for mode in modes)


def _opens(call):
    """Whether ``call`` is an ``open``, ``os.open`` or ``os.fdopen``."""
    func = call.func
    return (func.attr if isinstance(func, ast.Attribute)
            else getattr(func, "id", "")) in ("open", "fdopen")


def _file_calls(path, matches=_writes):
    """``(module, function)`` for each call in the module at ``path`` that
    ``matches``; ``function`` is the innermost enclosing def."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child):
                found.add((path.name, function))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_write_text_writes_files():
    writes = set().union(*map(_file_calls, sorted(SRC.glob("*.py"))))
    assert writes == {("measures.py", "write_text")}


def test_only_read_text_and_write_text_open_files():
    opens = set().union(*(_file_calls(path, _opens)
                          for path in sorted(SRC.glob("*.py"))))
    assert opens == {("measures.py", "read_text"),
                     ("measures.py", "write_text")}
