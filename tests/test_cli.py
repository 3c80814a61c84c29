"""End-to-end checks of the ``ot`` command line front end.

Each test drives ``otkit.cli.main`` in process with argv lists and real
files under tmp_path, asserting on exit codes, canonical JSON output,
trace files, and the determinism / round-trip guarantees.
"""

import csv
import io
import json
import os
import subprocess
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.spatial.distance import cdist

import serialize_reference
from conftest import rational_simplex, random_points

from otkit import cli, exact, w1
from otkit.cli import canonical_json, main
from otkit.measures import CostSpec, DiscreteMeasure, build_cost_matrix


def run_cli(argv, capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def measure_files(tmp_path):
    rng = np.random.default_rng(42)
    a = {"points": random_points(rng, 5, 2).tolist(),
         "weights": rational_simplex(rng, 5).tolist()}
    b = {"points": (random_points(rng, 6, 2) + 0.4).tolist(),
         "weights": rational_simplex(rng, 6).tolist()}
    return (write_json(tmp_path, "a.json", a),
            write_json(tmp_path, "b.json", b), a, b)


class TestExitCodes:
    def test_success_is_zero(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        code, out, err = run_cli(["exact", "--a", path_a, "--b", path_b],
                                 capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["status"] == "optimal"

    def test_missing_file_is_two(self, measure_files, capsys):
        path_a, _, _, _ = measure_files
        code, out, err = run_cli(
            ["exact", "--a", path_a, "--b", "/nonexistent/b.json"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    def test_malformed_json_is_two(self, tmp_path, measure_files, capsys):
        path_a, _, _, _ = measure_files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["exact", "--a", path_a, "--b", str(bad)],
                               capsys)
        assert code == 2
        assert "error" in json.loads(err)

    def test_unknown_flag_is_two(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        code, _, err = run_cli(
            ["exact", "--a", path_a, "--b", path_b, "--bogus"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"

    def test_nonconvergence_is_three(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        code, _, err = run_cli(
            ["sinkhorn", "--a", path_a, "--b", path_b,
             "--epsilon", "0.001", "--max-iter", "3"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["code"] == "convergence"

    def test_bad_epsilon_is_two(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        code, _, err = run_cli(
            ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "-1"],
            capsys)
        assert code == 2

    def test_w1_without_measure_is_two(self, capsys):
        code, _, err = run_cli(["w1", "kr"], capsys)
        assert code == 2
        assert "measure" in json.loads(err)["error"]["message"]

    def test_divergence_needs_exactly_one_family(self, measure_files,
                                                 capsys):
        path_a, path_b, _, _ = measure_files
        base = ["divergence", "--a", path_a, "--b", path_b]
        assert run_cli(base, capsys)[0] == 2
        assert run_cli(base + ["--phi", "kl", "--kernel", "energy:1"],
                       capsys)[0] == 2

    def test_semidiscrete_requires_seed(self, tmp_path, capsys):
        targets = write_json(tmp_path, "t.json", [[0.0], [1.0]])
        weights = write_json(tmp_path, "w.json", [0.25, 0.75])
        code, _, _ = run_cli(
            ["semidiscrete", "--targets", targets, "--weights", weights,
             "--sampler", "uniform_box", "--iters", "10"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, payload", [
        (["exact", "--a", "BAD", "--b", "BAD"],
         {"points": [["a", 0.0]], "weights": [1.0]}),
        (["exact", "--a", "BAD", "--b", "BAD"],
         {"points": [[0.0, 1.0], [2.0]], "weights": [0.5, 0.5]}),
        (["w1", "kr", "--measure", "BAD"],
         {"points": [[0.0]], "masses": ["x"]}),
        (["w1", "graph", "--graph", "BAD"],
         {"nodes": ["a", "b"], "edges": [["a", "b", "x"]],
          "imbalance": {"a": 1.0, "b": -1.0}}),
        (["gaussian", "--a", "BAD", "--b", "BAD"],
         {"mean": ["z", 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}),
        (["flow", "gradient", "--config", "BAD"],
         {"kind": "linear", "potential": {"name": "quadratic"},
          "x0": [[0.0, "s"]], "dt": 0.1, "T": 0.2}),
        (["flow", "gradient", "--config", "BAD"],
         {"kind": "interaction", "kernel": {"name": "gaussian", "sigma": "s"},
          "x0": [[0.0, 1.0]], "dt": 0.1, "T": 0.2}),
        (["flow", "transformer", "--config", "BAD"],
         {"tokens": [[0.0, 1.0]], "Q": [["q", 0.0], [0.0, 1.0]],
          "K": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0, 0.0], [0.0, 1.0]],
          "depth": 2}),
        (["flow", "mlp", "--config", "BAD"],
         {"features": [[0.5], [1.0]], "labels": ["y", 1.0], "n_neurons": 2,
          "dt": 0.1, "T": 0.2, "seed": 0}),
        (["flow", "transformer", "--config", "BAD"],
         {"tokens": [[0.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]],
          "K": [[1.0, 0.0], [0.0, 1.0]], "V": [[1.0, 0.0], [0.0, 1.0]],
          "depth": "x"}),
        (["flow", "mlp", "--config", "BAD"],
         {"features": [[0.5], [1.0]], "labels": [0.0, 1.0], "n_neurons": "x",
          "dt": 0.1, "T": 0.2, "seed": 0}),
        (["flow", "entropy1d", "--config", "BAD"],
         {"grid": [-1.0, 0.0, 1.0], "density": [0.5, 1.0, 0.5],
          "entropy": {"name": "power", "q": "x"}, "dt": 0.01, "T": 0.02}),
        (["flow", "flowmatch", "--config", "BAD"],
         {"source": {"points": [[0.0]], "weights": [1.0]},
          "target": {"points": [[1.0]], "weights": [1.0]},
          "coupling": "monge", "dt": 0.5, "bandwidth": "x"}),
    ], ids=["exact-string-point", "exact-ragged-points", "w1-kr-string-mass",
            "w1-graph-string-length", "gaussian-string-mean",
            "flow-string-x0", "flow-string-sigma", "transformer-string-q",
            "mlp-string-label", "transformer-string-depth",
            "mlp-string-n-neurons", "entropy1d-string-q",
            "flowmatch-string-bandwidth"])
    def test_malformed_payload_is_two(self, tmp_path, capsys, argv, payload):
        bad = write_json(tmp_path, "bad.json", payload)
        code, out, err = run_cli([bad if tok == "BAD" else tok
                                  for tok in argv], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    def test_flow_dt_given_as_a_string_is_read_as_a_number(self, tmp_path,
                                                           capsys):
        finals = []
        for dt in (0.1, "0.1"):
            cfg = write_json(tmp_path, "flow.json", {
                "kind": "linear", "potential": {"name": "quadratic"},
                "x0": [[1.0, 0.0], [0.0, 2.0]], "dt": dt, "T": 0.3})
            code, out, _ = run_cli(["flow", "gradient", "--config", cfg],
                                   capsys)
            assert code == 0
            finals.append(json.loads(out)["final_state"])
        assert finals[0] == finals[1]

    def test_mlp_flow_requires_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "mlp.json", {
            "features": [[0.5], [1.0]], "labels": [0.0, 1.0],
            "n_neurons": 2, "dt": 0.1, "T": 0.2})
        code, _, err = run_cli(["flow", "mlp", "--config", cfg], capsys)
        assert code == 2
        assert "seed" in json.loads(err)["error"]["message"]


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        text = canonical_json({"b": 1, "a": [1.5, 2]})
        assert text == '{"a":[1.5,2],"b":1}'

    def test_shortest_round_trip_floats(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.1}'
        assert canonical_json({"x": 1.0 / 3.0}) == '{"x":0.3333333333333333}'

    def test_numpy_types_become_plain(self):
        text = canonical_json({"v": np.float64(2.5),
                               "n": np.int64(3),
                               "arr": np.arange(2.0)})
        assert text == '{"arr":[0.0,1.0],"n":3,"v":2.5}'

    def test_non_finite_becomes_string(self):
        assert canonical_json({"v": float("inf")}) == '{"v":"inf"}'
        assert canonical_json({"v": float("-inf")}) == '{"v":"-inf"}'

    def test_reruns_are_byte_identical(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        argv = ["exact", "--a", path_a, "--b", path_b]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_emitted_json_reserializes_identically(self, measure_files,
                                                   capsys):
        path_a, path_b, _, _ = measure_files
        _, out, _ = run_cli(["exact", "--a", path_a, "--b", path_b], capsys)
        assert canonical_json(json.loads(out)) + "\n" == out


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
ARRAYS = st.one_of(
    hnp.arrays(st.sampled_from([np.float64, np.float32]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=4),
               elements=st.floats(allow_nan=True, allow_infinity=True,
                                  width=32)),
    hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                max_side=4)),
    st.lists(FLOATS, max_size=4).map(lambda v: np.array(v, dtype=object)),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=3),
    FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    ARRAYS,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=4)),
    max_leaves=12,
)


def _zero_d_as_scalar(obj):
    """The payload with every 0-d array replaced by the scalar it holds."""
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return obj[()]
    if isinstance(obj, dict):
        return {k: _zero_d_as_scalar(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_zero_d_as_scalar(v) for v in obj]
    return obj


class TestAgainstPerElementSerializer:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(PAYLOADS)
    def test_same_bytes(self, payload):
        # The per-element serializer cannot iterate a 0-d array; the
        # package writes one as the scalar it holds.
        want = serialize_reference.canonical_json(_zero_d_as_scalar(payload))
        assert canonical_json(payload) == want

    def test_array_kinds(self):
        payload = {"f": np.array([[0.1, -2.5], [3.0, 1e-300]]),
                   "nan": np.array([1.0, np.nan, -np.inf]),
                   "i": np.arange(3), "b": np.array([True, False]),
                   "empty": np.zeros((0, 2)), "o": np.array([1, 2.5, None]),
                   "s": np.float32(0.1), "z": np.array(np.inf)}
        assert canonical_json(payload) == (
            '{"b":[true,false],"empty":[],"f":[[0.1,-2.5],[3.0,1e-300]],'
            '"i":[0,1,2],"nan":[1.0,"nan","-inf"],"o":[1,2.5,null],'
            '"s":0.10000000149011612,"z":"inf"}')


class TestRoundTrip:
    def test_plan_triplets_rebuild_the_coupling(self, measure_files, capsys):
        path_a, path_b, a, b = measure_files
        _, out, _ = run_cli(["exact", "--a", path_a, "--b", path_b], capsys)
        payload = json.loads(out)
        n, m = payload["shape"]
        plan = np.zeros((n, m))
        for i, j, mass in payload["plan"]:
            plan[i, j] = mass
        alpha = DiscreteMeasure(a["points"], a["weights"])
        beta = DiscreteMeasure(b["points"], b["weights"])
        C = build_cost_matrix(alpha, beta, CostSpec.sq_euclidean())
        res = exact.solve_kantorovich(alpha.weights, beta.weights, C)
        assert_array_equal(plan, res.coupling.plan)
        assert_array_equal(np.asarray(payload["f"]), res.potentials.f)
        assert payload["cost"] == res.cost

    def test_gaussian_closed_form(self, tmp_path, capsys):
        ga = write_json(tmp_path, "ga.json",
                        {"mean": [2.0], "covariance": [[9.0]]})
        gb = write_json(tmp_path, "gb.json",
                        {"mean": [5.0], "covariance": [[4.0]]})
        _, out, _ = run_cli(["gaussian", "--a", ga, "--b", gb], capsys)
        payload = json.loads(out)
        assert payload["w2_squared"] == 10.0
        assert payload["bures_squared"] == 1.0
        assert payload["map"]["matrix"] == [[2.0 / 3.0]]

    def test_w1_routes_agree_on_a_path_graph(self, tmp_path, capsys):
        points = [[0.0], [1.0], [2.5]]
        masses = [0.5, -0.8, 0.3]
        measure = write_json(tmp_path, "signed.json",
                             {"points": points, "masses": masses})
        graph = write_json(tmp_path, "graph.json", {
            "nodes": ["0", "1", "2"],
            "edges": [["0", "1", 1.0], ["1", "2", 1.5]],
            "imbalance": {"0": 0.5, "1": -0.8, "2": 0.3}})
        _, out_kr, _ = run_cli(["w1", "kr", "--measure", measure], capsys)
        _, out_graph, _ = run_cli(["w1", "graph", "--graph", graph], capsys)
        kr = json.loads(out_kr)["value"]
        beck = json.loads(out_graph)["value"]
        assert abs(kr - beck) <= 1e-9

    def test_w1_kr_uses_the_cdist_distances(self, tmp_path, capsys):
        # From d = 8 on, numpy's sum over a coordinate axis regroups the
        # terms and no longer gives cdist's bytes.
        rng = np.random.default_rng(9)
        points = rng.normal(size=(12, 9))
        masses = np.concatenate([rational_simplex(rng, 6),
                                 -rational_simplex(rng, 6)])
        measure = write_json(tmp_path, "signed.json",
                             {"points": points.tolist(),
                              "masses": masses.tolist()})
        _, out, _ = run_cli(["w1", "kr", "--measure", measure], capsys)
        payload = json.loads(out)
        value, f = w1.w1_kr_lp(w1.SignedDiscreteMeasure(points, masses),
                               cdist(points, points))
        assert payload["value"] == value
        assert_array_equal(np.asarray(payload["f"]), f)


class TestTraceFiles:
    def test_sinkhorn_trace_schema(self, tmp_path, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        trace = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "0.5",
             "--trace", str(trace)], capsys)
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records
        for rec in records:
            assert set(rec) == {"iter", "viol_a", "viol_b", "dual",
                                "hilbert_step"}
        iters = [rec["iter"] for rec in records]
        assert iters == sorted(iters)
        duals = [rec["dual"] for rec in records]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(duals, duals[1:]))

    @pytest.mark.parametrize("schedule", [[], ["--schedule", "2,1,0.5"]],
                             ids=["plain", "schedule"])
    def test_sinkhorn_payload_does_not_depend_on_the_trace(
            self, tmp_path, measure_files, capsys, schedule):
        # The payload is computed with and without the trace statistics;
        # only the config echo names the trace file.
        path_a, path_b, _, _ = measure_files
        trace = tmp_path / "trace.jsonl"
        argv = ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "0.5",
                *schedule]
        code, plain, _ = run_cli(argv, capsys)
        assert code == 0
        code, traced, _ = run_cli(argv + ["--trace", str(trace)], capsys)
        assert code == 0
        payload = json.loads(traced)
        assert payload["config"]["inputs"].pop("trace") == str(trace)
        assert canonical_json(payload) + "\n" == plain
        iters = [json.loads(line)["iter"]
                 for line in trace.read_text().splitlines()]
        assert iters == list(range(1, payload["iterations"] + 1))
        last = json.loads(trace.read_text().splitlines()[-1])
        assert (last["viol_a"], last["viol_b"]) == (payload["viol_a"],
                                                    payload["viol_b"])

    def test_sinkhorn_trace_is_written_on_nonconvergence(
            self, tmp_path, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        trace = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "0.001",
             "--max-iter", "3", "--trace", str(trace)], capsys)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "convergence"
        iters = [json.loads(line)["iter"]
                 for line in trace.read_text().splitlines()]
        assert iters == [1, 2, 3]

    def test_semidiscrete_trace_schema(self, tmp_path, capsys):
        targets = write_json(tmp_path, "t.json", [[0.0], [1.0]])
        weights = write_json(tmp_path, "w.json", [0.25, 0.75])
        trace = tmp_path / "sd.jsonl"
        code, out, _ = run_cli(
            ["semidiscrete", "--targets", targets, "--weights", weights,
             "--sampler", "uniform_box", "--iters", "500", "--seed", "7",
             "--eval-every", "250", "--heldout-samples", "200",
             "--trace", str(trace)], capsys)
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) == 2
        for rec in records:
            assert set(rec) == {"iter", "step_size", "marginal_error"}
        assert json.loads(out)["marginal_error"] == \
            records[-1]["marginal_error"]

    def test_flow_trace_is_a_trajectory(self, tmp_path, capsys):
        x0 = [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]]
        cfg = write_json(tmp_path, "flow.json", {
            "kind": "interaction", "kernel": {"name": "quadratic"},
            "x0": x0, "dt": 0.05, "T": 0.2})
        trace = tmp_path / "traj.jsonl"
        code, out, _ = run_cli(
            ["flow", "gradient", "--config", cfg, "--trace", str(trace)],
            capsys)
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) == 5
        assert records[0]["t"] == 0.0
        assert records[0]["positions"] == x0
        times = [rec["t"] for rec in records]
        assert times == sorted(times)
        assert json.loads(out)["final_state"] == records[-1]["positions"]

    def test_entropy_trace_holds_densities(self, tmp_path, capsys):
        grid = np.linspace(-1.0, 1.0, 41)
        rho = np.exp(-grid ** 2 / 0.08)
        cfg = write_json(tmp_path, "heat.json", {
            "grid": grid.tolist(), "density": rho.tolist(),
            "entropy": "shannon", "dt": 5e-4, "T": 0.002})
        trace = tmp_path / "rho.jsonl"
        code, _, _ = run_cli(
            ["flow", "entropy1d", "--config", cfg, "--trace", str(trace)],
            capsys)
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) == 5
        for rec in records:
            assert set(rec) == {"t", "density"}
            assert len(rec["density"]) == grid.shape[0]

    def test_entropy_mass_is_the_conserved_trapezoid_mass(self, tmp_path,
                                                          capsys):
        # The scheme conserves sum_i w_i rho_i with half-width end cells,
        # which is the trapezoid mass; a mass that weights the end nodes
        # by a full cell width drifts (0.6 -> 0.4244 here).
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        rho = np.array([2.0, 0.1, 0.1, 0.1, 0.1])
        cfg = write_json(tmp_path, "heat.json", {
            "grid": grid.tolist(), "density": rho.tolist(),
            "dt": 0.01, "T": 0.1})
        code, out, _ = run_cli(["flow", "entropy1d", "--config", cfg],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        trapezoid = float(np.sum(0.5 * (rho[:-1] + rho[1:]) * np.diff(grid)))
        assert abs(trapezoid - 0.3375) <= 1e-15
        assert abs(payload["mass_initial"] - trapezoid) <= 1e-12 * trapezoid
        assert (abs(payload["mass_final"] - payload["mass_initial"])
                <= 1e-12 * payload["mass_initial"])

    def test_flowmatch_reaches_targets(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "match.json", {
            "source": {"points": [[-1.0], [0.0], [2.0]],
                       "weights": [0.25, 0.5, 0.25]},
            "target": {"points": [[-0.5], [1.0], [3.0]],
                       "weights": [0.25, 0.5, 0.25]},
            "coupling": "monge", "dt": 0.015625})
        code, out, _ = run_cli(["flow", "flowmatch", "--config", cfg],
                               capsys)
        assert code == 0
        endpoint = np.asarray(json.loads(out)["endpoint"])
        np.testing.assert_allclose(endpoint, [[-0.5], [1.0], [3.0]],
                                   rtol=0, atol=1e-6)


class TestOutputFormats:
    def test_jsonl_lines_cover_the_payload(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        _, plain, _ = run_cli(["exact", "--a", path_a, "--b", path_b],
                              capsys)
        _, lines, _ = run_cli(
            ["exact", "--a", path_a, "--b", path_b, "--format", "jsonl"],
            capsys)
        payload = json.loads(plain)
        records = {json.loads(line)["key"]: json.loads(line)["value"]
                   for line in lines.splitlines()}
        del payload["config"], records["config"]  # formats echo differently
        assert records == payload

    def test_csv_rows_parse_back(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        _, out, _ = run_cli(
            ["exact", "--a", path_a, "--b", path_b, "--format", "csv"],
            capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        table = {key: json.loads(value) for key, value in rows[1:]}
        _, plain, _ = run_cli(["exact", "--a", path_a, "--b", path_b],
                              capsys)
        assert table["cost"] == json.loads(plain)["cost"]
        assert table["status"] == "optimal"

    def test_out_file_holds_the_result(self, tmp_path, measure_files,
                                       capsys):
        path_a, path_b, _, _ = measure_files
        out_path = tmp_path / "result.json"
        code, stdout, _ = run_cli(
            ["exact", "--a", path_a, "--b", path_b, "--out", str(out_path)],
            capsys)
        assert code == 0
        assert stdout == ""
        payload = json.loads(out_path.read_text())
        assert payload["status"] == "optimal"
        assert payload["config"]["out"] == str(out_path)

    def test_out_symlink_is_written_through(self, tmp_path, measure_files,
                                            capsys):
        path_a, path_b, _, _ = measure_files
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old result")
        link.symlink_to(target)
        code, _, _ = run_cli(
            ["exact", "--a", path_a, "--b", path_b, "--out", str(link)],
            capsys)
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["status"] == "optimal"

    def test_config_echo_names_the_run(self, measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        _, out, _ = run_cli(
            ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "0.7",
             "--tol", "1e-6"], capsys)
        payload = json.loads(out)
        assert payload["artifact_version"]
        config = payload["config"]
        assert config["subcommand"] == "sinkhorn"
        assert config["params"]["epsilon"] == 0.7
        assert config["params"]["tol"] == 1e-6
        assert config["inputs"]["a"] == path_a


class TestSelftestCommand:
    def test_exit_zero_and_byte_identical(self, capsys):
        code1, out1, _ = run_cli(["selftest"], capsys)
        code2, out2, _ = run_cli(["selftest"], capsys)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert all(line.startswith(("PASS ", "FAIL ", "selftest:"))
                   for line in lines)
        assert lines[-1].endswith("0 failed")


class TestThreadCap:
    def test_ot_threads_seeds_blas_env(self):
        script = "import os, otkit; print(os.environ['OMP_NUM_THREADS'])"
        env = {k: v for k, v in os.environ.items()
               if "_NUM_THREADS" not in k and k != "VECLIB_MAXIMUM_THREADS"}
        env["OT_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env,
                             check=True)
        assert out.stdout.strip() == "1"


class TestParserReuse:
    """`run` reuses one parser; no argument or default carries over."""

    def test_runs_match_a_freshly_built_parser(self, tmp_path,
                                               measure_files, capsys):
        path_a, path_b, _, _ = measure_files
        graph = write_json(tmp_path, "graph.json", {
            "nodes": ["0", "1", "2"],
            "edges": [["0", "1", 1.0], ["1", "2", 1.5]],
            "imbalance": {"0": 0.5, "1": -0.8, "2": 0.3}})
        out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
        sinkhorn = ["sinkhorn", "--a", path_a, "--b", path_b,
                    "--epsilon", "0.5"]
        argvs = [
            ["sinkhorn", "--a", path_a, "--epsilon", "0.5", "--bogus"],
            sinkhorn + ["--schedule", "4,2,1,0.5", "--trace", str(trace),
                        "--out", str(out)],
            sinkhorn,
            sinkhorn + ["--trace", str(trace)],
            sinkhorn + ["--schedule", "2,0.5", "--out", str(out)],
            ["exact", "--a", path_a, "--b", path_b, "--out", str(out)],
            ["exact", "--a", path_a, "--b", path_b, "--cost", "euclidean"],
            ["w1", "graph", "--graph", graph],
            sinkhorn,
        ]

        def results(fresh):
            cli.build_parser.cache_clear()
            seen = []
            for argv in argvs:
                if fresh:
                    cli.build_parser.cache_clear()
                for path in (out, trace):
                    path.unlink(missing_ok=True)
                code, stdout, stderr = run_cli(argv, capsys)
                seen.append((code, stdout, stderr,
                             *(p.read_bytes() if p.exists() else None
                               for p in (out, trace))))
            return seen

        fresh = results(fresh=True)
        reused = results(fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert fresh[0][0] == 2
        assert json.loads(fresh[0][2])["error"]["code"] == "usage"
        assert [r[0] for r in fresh[1:]] == [0] * (len(argvs) - 1)
        assert fresh[2][1:] == fresh[-1][1:]
        for argv, a, b in zip(argvs, fresh, reused):
            assert a == b, argv


class TestColdStart:
    """What a fresh ``ot`` process imports: scipy only where a solver
    calls it, so that a later top-level import cannot slow every run."""

    SCRIPT = (
        "import json, sys\n"
        "from otkit.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = main(argv) if argv else 0\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.startswith('scipy'))]))\n"
    )

    def scipy_modules(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OT_THREADS="1", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True)
        code, modules = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, done.stderr
        return modules

    def test_import_and_scipy_free_subcommands_load_no_scipy(
            self, tmp_path, measure_files):
        path_a, path_b, _, _ = measure_files
        gauss = write_json(tmp_path, "g.json",
                           {"mean": [0.0, 1.0],
                            "covariance": [[2.0, 0.5], [0.5, 1.0]]})
        out = str(tmp_path / "out.json")
        measures_ab = ["--a", path_a, "--b", path_b]
        for argv in ([],
                     ["sinkhorn", *measures_ab, "--epsilon", "0.5",
                      "--out", out],
                     ["gaussian", "--a", gauss, "--b", gauss, "--out", out],
                     ["divergence", *measures_ab, "--kernel", "gaussian:1",
                      "--out", out]):
            assert self.scipy_modules(argv) == [], argv

    def test_exact_loads_only_scipy_sparse(self, measure_files, tmp_path):
        path_a, path_b, _, _ = measure_files
        modules = self.scipy_modules(
            ["exact", "--a", path_a, "--b", path_b,
             "--out", str(tmp_path / "out.json")])
        assert "scipy.sparse.csgraph" in modules
        assert not [m for m in modules if m.startswith("scipy.spatial")]
