"""End-to-end checks of the ``ot`` command line front end.

Each test drives ``otkit.cli.main`` in process with argv lists and real
files under tmp_path, asserting on exit codes, canonical JSON output,
trace files, and the determinism / round-trip guarantees.
"""

import builtins
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

from otkit import cli, dynamics, entropic, exact, measures, semidiscrete, w1
from otkit.cli import canonical_json, main
from otkit.measures import (CostSpec, DiscreteMeasure, build_cost_matrix,
                            measure_from_dict)


def run_cli(argv, capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def fresh_process_env():
    """The environment for a fresh ``ot`` process that imports this tree's
    package, with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, OT_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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
    def test_cost_power_past_the_float_range_is_two(self, tmp_path):
        """|x - y|^p past the float range exits 2 naming p, and a fresh
        process writes nothing to stderr but the JSON error line (no numpy
        overflow warning)."""
        path_a = write_json(tmp_path, "a.json",
                            {"points": [[0.0]], "weights": [1.0]})
        path_b = write_json(tmp_path, "b.json",
                            {"points": [[10.0]], "weights": [1.0]})
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from otkit.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "exact", "--a", path_a,
             "--b", path_b, "--cost", "p:400"],
            capture_output=True, text=True, env=fresh_process_env())
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        error = json.loads(done.stderr)["error"]
        assert error["code"] == "validation"
        assert "at p 400.0" in error["message"]

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

    def test_deeply_nested_json_is_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run_cli(["flow", "gradient", "--config", str(deep)],
                                 capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert str(deep) in error["message"]

    @pytest.mark.parametrize("name, data", [
        ("bad.csv", b"a\xff,1\n"),
        ("bad.json", b'{"points": [[0.0]], "weights": [1.0], "\xff": 0}'),
    ], ids=["csv", "json"])
    def test_file_that_is_not_utf8_is_two(self, tmp_path, measure_files,
                                          capsys, name, data):
        path_a, _, _, _ = measure_files
        bad = tmp_path / name
        bad.write_bytes(data)
        code, out, err = run_cli(["exact", "--a", str(bad), "--b", path_a],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert error["message"].startswith(f"cannot read {bad}: ")

    @pytest.mark.parametrize("extra", [
        ["exact"], ["sinkhorn", "--epsilon", "1"],
        ["divergence", "--kernel", "energy:1"],
    ], ids=["exact", "sinkhorn", "divergence"])
    def test_cost_matrix_past_the_ceiling_is_two(self, tmp_path, capsys,
                                                 monkeypatch, extra):
        """Two 50,000-point inputs ask for 2.5e9 cost cells, past the
        2**31 ceiling.  Allocations that large fail the test instead of
        running, so a missing guard cannot exhaust memory."""
        real = {name: getattr(np, name) for name in ("empty", "zeros")}
        for name, alloc in real.items():
            def guarded(shape, *args, _alloc=alloc, **kwargs):
                assert np.prod(shape, dtype=float) <= 1e8, shape
                return _alloc(shape, *args, **kwargs)
            monkeypatch.setattr(np, name, guarded)
        n = 50_000
        measure = {"points": np.linspace(0.0, 1.0, n)[:, None].tolist(),
                   "weights": [1.0 / n] * n}
        path = write_json(tmp_path, "big.json", measure)
        argv = extra[:1] + ["--a", path, "--b", path] + extra[1:]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert "array elements, more than" in error["message"]

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
        (["exact", "--a", "BAD", "--b", "BAD"], [[0.0], [1.0]]),
        (["exact", "--a", "BAD", "--b", "BAD"], {"points": [[0.0]]}),
        (["w1", "graph", "--graph", "BAD"],
         {"nodes": 5, "edges": [], "imbalance": {}}),
        (["flow", "gradient", "--config", "BAD"],
         {"kind": "linear", "potential": {"name": "quadratic"},
          "x0": [[0.0, 1.0]], "T": 0.2}),
        (["flow", "mlp", "--config", "BAD"], [["seed", 0]]),
        (["flow", "transformer", "--config", "BAD"], 5),
    ], ids=["exact-string-point", "exact-ragged-points", "w1-kr-string-mass",
            "w1-graph-string-length", "gaussian-string-mean",
            "flow-string-x0", "flow-string-sigma", "transformer-string-q",
            "mlp-string-label", "transformer-string-depth",
            "mlp-string-n-neurons", "entropy1d-string-q",
            "flowmatch-string-bandwidth", "exact-measure-is-a-list",
            "exact-measure-without-weights", "w1-graph-nodes-a-number",
            "flow-without-dt", "mlp-config-is-a-list",
            "transformer-config-is-a-number"])
    def test_malformed_payload_is_two(self, tmp_path, capsys, argv, payload):
        bad = write_json(tmp_path, "bad.json", payload)
        code, out, err = run_cli([bad if tok == "BAD" else tok
                                  for tok in argv], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    def test_flow_dt_given_as_a_string_is_two(self, tmp_path, capsys):
        """numpy would parse "0.1" as a number; a JSON string is refused
        where a number is read, naming the setting."""
        cfg = write_json(tmp_path, "flow.json", {
            "kind": "linear", "potential": {"name": "quadratic"},
            "x0": [[1.0, 0.0], [0.0, 2.0]], "dt": "0.1", "T": 0.3})
        code, out, err = run_cli(["flow", "gradient", "--config", cfg],
                                 capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"]["message"] == (
            "dt must be numeric, got a string")

    @pytest.mark.parametrize("change, message", [
        ({"scheme": None, "sheme": "implicit"},
         "{path} has unknown key 'sheme'; the closest allowed key is "
         "'scheme'"),
        ({"kernel": {"name": "quadratic"}},
         "{path} has unknown key 'kernel'; the closest allowed key is "
         "'potential'"),
        ({"potential": {"name": "quadratic", "sigma": 1.0}},
         "potential has unknown key 'sigma'; the closest allowed key is "
         "'name'"),
        ({"kind": "interaction", "potential": None,
          "kernel": {"name": "quadratic", "sigma": 1.0}},
         "kernel has unknown key 'sigma'; the closest allowed key is "
         "'name'"),
    ], ids=["misspelled", "kernel-of-a-linear-flow",
            "sigma-of-a-quadratic-potential", "sigma-of-a-quadratic-kernel"])
    def test_a_key_the_flow_does_not_read_is_two(self, tmp_path, capsys,
                                                 change, message):
        """A gradient flow refuses a key it would not read: a misspelled
        one, and the spec or width its kind or name does not use."""
        config = {"kind": "linear", "potential": {"name": "quadratic"},
                  "x0": [[1.0, 0.0], [0.0, 2.0]], "dt": 0.1, "T": 0.3,
                  "scheme": "explicit"}
        config.update(change)
        cfg = write_json(tmp_path, "flow.json", {
            key: value for key, value in config.items() if value is not None})
        code, out, err = run_cli(["flow", "gradient", "--config", cfg],
                                 capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"]["message"] == message.format(path=cfg)

    @pytest.mark.parametrize("base, change, name", [
        ("exact", {"weights": ["0.5", "0.5"]}, "weights"),
        ("exact", {"weights": [0.5, "0.5"]}, "weights"),
        ("exact", {"points": [[0.0, "0"], [1.0, 0.0]]}, "points"),
        ("gradient", {"T": "0.2"}, "the time horizon"),
        ("transformer", {"depth": "2"}, "depth"),
        ("mlp", {"seed": "0"}, "seed"),
        ("graph", {"edges": [["a", "b", "1.0"]]}, "edge length"),
    ], ids=["weights", "mixed-weights", "points", "T", "depth", "seed",
            "edge-length"])
    def test_string_for_a_number_is_two(self, tmp_path, capsys, base,
                                        change, name):
        argv, config = _range_sweep_base(tmp_path, base)
        if config is None:
            measure = {"points": [[0.0, 0.0], [1.0, 0.0]],
                       "weights": [0.5, 0.5]}
            argv[argv.index("--a") + 1] = write_json(
                tmp_path, "text.json", dict(measure, **change))
        else:
            write_json(tmp_path, "config.json", dict(config, **change))
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"]["message"] == (
            f"{name} must be numeric, got a string")

    def test_text_settings_are_read_as_numbers(self, measure_files,
                                               capsys):
        """--schedule, --cost p:<x> and --kernel gaussian:<s> or energy:<p>
        are text on the command line; the CLI reads them as numbers, so
        the payloads are those of the solvers given the floats."""
        path_a, path_b, a, b = measure_files
        alpha, beta = measure_from_dict(a), measure_from_dict(b)
        ab = ["--a", path_a, "--b", path_b]

        code, out, _ = run_cli(["exact", *ab, "--cost", "p:3"], capsys)
        C = build_cost_matrix(alpha, beta, CostSpec.p_power(3.0))
        assert code == 0
        assert json.loads(out)["cost"] == exact.solve_kantorovich(
            alpha.weights, beta.weights, C).cost

        code, out, _ = run_cli(["sinkhorn", *ab, "--epsilon", "0.5",
                                "--schedule", "2,1,0.5"], capsys)
        C = build_cost_matrix(alpha, beta, CostSpec.sq_euclidean())
        res = entropic.sinkhorn(alpha.weights, beta.weights, C,
                                entropic.SinkhornConfig(
                                    epsilon=0.5,
                                    epsilon_schedule=(2.0, 1.0, 0.5)))
        payload = json.loads(out)
        assert code == 0
        assert (payload["f"], payload["g"], payload["cost_reg"]) == (
            res.state.f.tolist(), res.state.g.tolist(), res.cost_reg)

        from otkit import divergences
        for text, kernel in (("gaussian:0.5",
                              divergences.KernelSpec.gaussian(0.5)),
                             ("energy:1.5",
                              divergences.KernelSpec.energy(1.5))):
            code, out, _ = run_cli(["divergence", *ab, "--kernel", text],
                                   capsys)
            payload = json.loads(out)
            assert code == 0
            assert (payload["divergence"], payload["value"]) == (
                f"mmd2[{text}]", divergences.mmd_squared(alpha, beta, kernel))

    @pytest.mark.parametrize("base, change, name", [
        ("exact", {"weights": [True, False]}, "weights"),
        ("exact", {"weights": [0.5, True]}, "weights"),
        ("exact", {"points": [[0.0, False], [1.0, 0.0]]}, "points"),
        ("gradient", {"dt": True}, "dt"),
        ("gradient", {"T": False}, "the time horizon"),
        ("transformer", {"depth": True}, "depth"),
        ("mlp", {"n_neurons": True}, "n_neurons"),
        ("mlp", {"seed": False}, "seed"),
        ("graph", {"edges": [["a", "b", True]]}, "edge length"),
    ], ids=["weights", "mixed-weights", "points", "dt", "T", "depth",
            "n-neurons", "seed", "edge-length"])
    def test_boolean_for_a_number_is_two(self, tmp_path, capsys, base,
                                         change, name):
        """JSON true and false are refused where a number is read, also
        inside a list that numpy would upcast to floats."""
        argv, config = _range_sweep_base(tmp_path, base)
        if config is None:
            measure = {"points": [[0.0, 0.0], [1.0, 0.0]],
                       "weights": [0.5, 0.5]}
            argv[argv.index("--a") + 1] = write_json(
                tmp_path, "bool.json", dict(measure, **change))
        else:
            write_json(tmp_path, "config.json", dict(config, **change))
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"]["message"] == (
            f"{name} must be numeric, got a boolean")

    @pytest.mark.parametrize("base, change", [
        ("gradient", {"dt": 1e-15, "T": 1}),
        ("entropy1d", {"dt": 1e-15, "T": 1}),
        ("flowmatch", {"dt": 1e-15}),
        ("mlp", {"dt": 1e-15, "T": 1}),
    ], ids=["gradient", "entropy1d", "flowmatch", "mlp"])
    def test_tiny_step_is_two(self, tmp_path, capsys, monkeypatch, base,
                              change):
        """A step that would need 10^15 time slices is refused by the time
        grid before the grid or any state exists; the ceiling is lowered
        so that a missing check fails on a small allocation, not a huge
        one."""
        monkeypatch.setattr(measures, "MAX_ELEMENTS", 4096)
        argv, config = _range_sweep_base(tmp_path, base)
        write_json(tmp_path, "config.json", dict(config, **change))
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"]["message"].startswith(
            "dt asks for ")

    def test_mlp_flow_requires_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "mlp.json", {
            "features": [[0.5], [1.0]], "labels": [0.0, 1.0],
            "n_neurons": 2, "dt": 0.1, "T": 0.2})
        code, _, err = run_cli(["flow", "mlp", "--config", cfg], capsys)
        assert code == 2
        assert "seed" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("base, change", [
        ("sinkhorn", {"--epsilon": "0"}),
        ("sinkhorn", {"--tol": "0"}),
        ("sinkhorn", {"--max-iter": "0"}),
        ("sinkhorn", {"--schedule": "1,0,0.5"}),
        ("sinkhorn", {"--schedule": "1,x,0.5"}),
        ("exact", {"--cost": "p:0.5"}),
        ("exact", {"--cost": "p:x"}),
        ("semidiscrete", {"--iters": "0"}),
        ("semidiscrete", {"--seed": "-1"}),
        ("semidiscrete", {"--tau0": "0"}),
        ("semidiscrete", {"--ell0": "0.5"}),
        ("semidiscrete", {"--eval-every": "0"}),
        ("semidiscrete", {"--heldout-samples": "0"}),
        ("divergence", {"--kernel": "gaussian:0"}),
        ("divergence", {"--kernel": "gaussian:x"}),
        ("divergence", {"--kernel": "energy:2"}),
        ("graph", {"edges": [["a", "b", 0.0]]}),
        ("graph", {"edges": [["a", "b", -1.0]]}),
        ("gradient", {"dt": 0}),
        ("gradient", {"T": -0.2}),
        ("gradient", {"kernel": {"name": "gaussian", "sigma": 0}}),
        ("gradient", {"kind": "linear",
                      "potential": {"name": "gaussian_well", "sigma": -1}}),
        ("entropy1d", {"entropy": {"name": "power", "q": 1}}),
        ("entropy1d", {"dt": -0.01}),
        ("flowmatch", {"bandwidth": -1}),
        ("flowmatch", {"dt": 0}),
        ("transformer", {"depth": 0}),
        ("mlp", {"n_neurons": 0}),
        ("mlp", {"T": 0}),
        ("mlp", {"seed": -1}),
        ("mlp", {"seed": 2.5}),
        ("mlp", {"seed": "x"}),
        ("transformer", {"depth": 1e20}),
        ("mlp", {"n_neurons": 1e20}),
        ("semidiscrete", {"--heldout-samples": str(10 ** 20)}),
    ], ids=["epsilon", "tol", "max-iter", "schedule-zero", "schedule-text",
            "cost-p", "cost-p-text", "iters", "seed", "tau0", "ell0",
            "eval-every", "heldout-samples", "kernel-sigma",
            "kernel-sigma-text", "kernel-energy-p", "graph-length-zero",
            "graph-length-negative", "gradient-dt", "gradient-T",
            "gradient-kernel-sigma", "gradient-well-sigma", "entropy1d-q",
            "entropy1d-dt", "flowmatch-bandwidth", "flowmatch-dt",
            "transformer-depth", "mlp-n-neurons", "mlp-T",
            "mlp-seed-negative", "mlp-seed-fractional", "mlp-seed-string",
            "transformer-depth-past-ceiling", "mlp-n-neurons-past-ceiling",
            "heldout-samples-past-ceiling"])
    def test_out_of_range_setting_is_two(self, tmp_path, capsys, base,
                                         change):
        """Each run succeeds with its base settings and exits 2 with one
        JSON error line once one flag or config field is out of range."""
        argv, config = _range_sweep_base(tmp_path, base)
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        if config is None:
            argv = argv + [tok for pair in change.items() for tok in pair]
        else:
            write_json(tmp_path, "config.json", dict(config, **change))
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == "validation"


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]
_SWEEP_CONFIGS = {
    "graph": {"nodes": ["a", "b"], "edges": [["a", "b", 1.0]],
              "imbalance": {"a": 1.0, "b": -1.0}},
    "gradient": {"kind": "interaction",
                 "kernel": {"name": "gaussian", "sigma": 1.0},
                 "x0": [[0.0, 0.0], [1.0, 0.0]], "dt": 0.1, "T": 0.2},
    "entropy1d": {"grid": [-1.0, 0.0, 1.0], "density": [0.5, 1.0, 0.5],
                  "entropy": {"name": "power", "q": 2.0}, "dt": 0.01,
                  "T": 0.02},
    "flowmatch": {"source": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
                  "target": {"points": [[2.0], [3.0]], "weights": [0.5, 0.5]},
                  "coupling": "monge", "dt": 0.5, "bandwidth": 1.0},
    "transformer": {"tokens": [[0.0, 1.0], [1.0, 0.0]], "Q": _EYE2,
                    "K": _EYE2, "V": _EYE2, "depth": 2},
    "mlp": {"features": [[0.5], [1.0]], "labels": [0.0, 1.0],
            "n_neurons": 2, "dt": 0.1, "T": 0.2, "seed": 0},
}


def _range_sweep_base(tmp_path, base):
    """A tiny valid ``ot`` run, as (argv, JSON config or None).  Flags
    are appended after the base argv, so a later one overrides it; a
    config (a flow's or the w1 graph) is read from ``config.json``."""
    if base in _SWEEP_CONFIGS:
        config = _SWEEP_CONFIGS[base]
        path = write_json(tmp_path, "config.json", config)
        if base == "graph":
            return ["w1", "graph", "--graph", path], config
        return ["flow", base, "--config", path], config
    if base == "semidiscrete":
        return ["semidiscrete",
                "--targets", write_json(tmp_path, "t.json", [[0.0], [1.0]]),
                "--weights", write_json(tmp_path, "w.json", [0.5, 0.5]),
                "--sampler", "uniform_box", "--iters", "10", "--seed", "0",
                "--heldout-samples", "10"], None
    measure = {"points": [[0.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]}
    argv = [base, "--a", write_json(tmp_path, "a.json", measure),
            "--b", write_json(tmp_path, "b.json", measure)]
    extra = {"sinkhorn": ["--epsilon", "0.5"], "exact": [],
             "divergence": ["--kernel", "energy:1"]}[base]
    return argv + extra, None


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


# Floats with the edge cases of float formatting drawn often.
TRACE_FLOATS = st.one_of(
    FLOATS,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf,
                     np.nan]))
TRACE_VALUES = st.one_of(
    TRACE_FLOATS, st.integers(), st.integers(2**53, 2**70).map(lambda i: -i),
    st.integers(2**53, 2**70), st.booleans(), TRACE_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                            min_side=0, max_side=3),
               elements=TRACE_FLOATS),
)


@st.composite
def trace_columns(draw):
    """Equally long columns under distinct keys.  A column is a list of
    values or, like ``positions``, one array holding a row per line."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4,
                         unique=True))
    lines = draw(st.integers(0, 5))
    columns = {}
    for key in keys:
        if draw(st.booleans()):
            columns[key] = draw(st.lists(TRACE_VALUES, min_size=lines,
                                         max_size=lines))
        else:
            shape = draw(hnp.array_shapes(min_dims=0, max_dims=2,
                                          min_side=0, max_side=3))
            columns[key] = draw(hnp.arrays(np.float64, (lines,) + shape,
                                           elements=TRACE_FLOATS))
    return columns


def canonical_lines(records):
    """The lines of the reference trace file: `canonical_json` of each
    record dict.  (Comparing lists of lines keeps a failure's diff fast.)"""
    return [canonical_json(record) + "\n" for record in records]


class TestTraceWriter:
    """`cli._jsonl` writes each row as `canonical_json` writes it as a
    dict, without building the dicts."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(trace_columns())
    def test_same_bytes_as_canonical_json(self, columns):
        rows = zip(*columns.values())
        want = "".join(canonical_lines(dict(zip(columns, row))
                                       for row in rows))
        assert cli._jsonl(columns) == want

    def test_edge_values(self):
        columns = {"t": [0.5, -0.0], "n": [2**53 + 1, np.int64(-3)],
                   "v": [np.nan, np.float64(-np.inf)],
                   "positions": np.array([[[1e308, 5e-324]],
                                          [[np.inf, -1.0]]])}
        assert cli._jsonl(columns) == (
            '{"n":9007199254740993,"positions":[[1e+308,5e-324]],'
            '"t":0.5,"v":"nan"}\n'
            '{"n":-3,"positions":[["inf",-1.0]],"t":-0.0,"v":"-inf"}\n')


class TestTraceFilesMatchTheSolvers:
    """Each ``--trace`` file holds the canonical JSON lines of the records
    the solver returns, under the CLI's key names."""

    @pytest.fixture
    def measures(self, tmp_path):
        rng = np.random.default_rng(11)
        a = {"points": random_points(rng, 6, 2).tolist(),
             "weights": rational_simplex(rng, 6).tolist()}
        b = {"points": random_points(rng, 7, 2).tolist(),
             "weights": rational_simplex(rng, 7).tolist()}
        return a, b

    # (extra argv, SinkhornConfig settings, epsilon, exit code)
    SINKHORN_CASES = {
        "schedule": (["--schedule", "0.4,0.2,0.1,0.05"],
                     {"epsilon_schedule": (0.4, 0.2, 0.1, 0.05)}, 0.05, 0),
        # At this eps the scalings leave [1e-50, 1e50] three times.
        "absorptions": ([], {}, 0.01, 0),
        "scaling_domain": (["--scaling-domain"], {"log_domain": False},
                           0.05, 0),
        "zero_weight": ([], {}, 0.02, 0),
        "max_iter": (["--max-iter", "100"], {"max_iter": 100}, 0.05, 3),
    }

    @pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
    def test_sinkhorn(self, tmp_path, capsys, monkeypatch, measures, case):
        flags, config, epsilon, want_code = self.SINKHORN_CASES[case]
        a, b = measures
        if case == "zero_weight":
            a["weights"][1] += a["weights"][0]
            a["weights"][0] = 0.0
        trace = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            ["sinkhorn", "--a", write_json(tmp_path, "a.json", a),
             "--b", write_json(tmp_path, "b.json", b),
             "--epsilon", repr(epsilon), "--trace", str(trace), *flags],
            capsys)
        assert code == want_code

        absorptions = []
        absorbed = entropic._absorbed
        monkeypatch.setattr(entropic, "_absorbed",
                            lambda *args: absorptions.append(1) or
                            absorbed(*args))
        alpha, beta = measure_from_dict(a), measure_from_dict(b)
        C = build_cost_matrix(alpha, beta, CostSpec.sq_euclidean())
        state = entropic.sinkhorn(
            alpha.weights, beta.weights, C,
            entropic.SinkhornConfig(epsilon=epsilon, record_trace=True,
                                    **config)).state
        assert state.iteration > entropic._TRACE_BLOCK
        if case == "absorptions":
            # One kernel at the stage start and more where the scalings
            # left their bounds.
            assert len(absorptions) > 1
        assert trace.read_text().splitlines(True) == canonical_lines(
            {"iter": rec.iteration, "viol_a": rec.viol_a,
             "viol_b": rec.viol_b, "dual": rec.dual,
             "hilbert_step": rec.hilbert_step} for rec in state.trace)

    def test_semidiscrete(self, tmp_path, capsys):
        targets, weights = [[0.2, 0.1], [0.7, 0.4], [0.5, 0.9]], [0.5, 0.3, 0.2]
        trace = tmp_path / "sd.jsonl"
        code, _, _ = run_cli(
            ["semidiscrete", "--targets", write_json(tmp_path, "t.json",
                                                     targets),
             "--weights", write_json(tmp_path, "w.json", weights),
             "--sampler", "uniform_box", "--iters", "700", "--seed", "5",
             "--eval-every", "200", "--heldout-samples", "300",
             "--trace", str(trace)], capsys)
        assert code == 0
        problem = semidiscrete.SemiDiscreteProblem(
            semidiscrete.Sampler.uniform_box(np.zeros(2), np.ones(2)),
            np.array(targets), weights)
        _, records = semidiscrete.sgd_solve(problem, semidiscrete.SGDConfig(
            n_iter=700, seed=5, eval_every=200, heldout_samples=300))
        assert len(records) == 4
        assert trace.read_text().splitlines(True) == canonical_lines(
            {"iter": rec.iteration, "step_size": rec.step_size,
             "marginal_error": rec.marginal_error} for rec in records)

    def test_flow_gradient(self, tmp_path, capsys):
        x0 = [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5], [0.25, 0.5]]
        cfg = write_json(tmp_path, "flow.json", {
            "kind": "interaction", "kernel": {"name": "gaussian",
                                              "sigma": 0.7},
            "x0": x0, "dt": 0.05, "T": 0.5})
        trace = tmp_path / "traj.jsonl"
        code, _, _ = run_cli(
            ["flow", "gradient", "--config", cfg, "--trace", str(trace)],
            capsys)
        assert code == 0
        spec = cli._interaction_preset({"name": "gaussian", "sigma": 0.7}, 2)
        traj = dynamics.gradient_flow(spec, np.array(x0), dt=0.05, T=0.5)
        assert traj.n_times == 11
        assert trace.read_text().splitlines(True) == canonical_lines(
            {"t": float(t), "positions": state}
            for t, state in zip(traj.times, traj.states))


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
        assert ((canonical_json(payload) + "\n").splitlines(keepends=True)
                == plain.splitlines(keepends=True))
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


def jsonl_lines(payload):
    """``--format jsonl`` written key by key: one `canonical_json` line of
    ``{"key", "value"}`` for each key of the payload, in sorted order."""
    return "\n".join(canonical_json({"key": k, "value": payload[k]})
                     for k in sorted(payload)) + "\n"


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.dictionaries(st.text(max_size=3), PAYLOADS, min_size=1,
                           max_size=4))
    def test_jsonl_is_one_canonical_line_per_key(self, payload):
        assert cli._render(payload, "jsonl") == jsonl_lines(payload)

    @pytest.mark.parametrize("base", [
        "exact", "sinkhorn", "divergence", "semidiscrete",
        *sorted(_SWEEP_CONFIGS), "kr", "flat", "gaussian"])
    def test_jsonl_of_every_subcommand(self, tmp_path, capsys, monkeypatch,
                                       base):
        if base in ("kr", "flat"):
            signed = write_json(tmp_path, "m.json", {
                "points": [[0.0], [1.0], [3.0]], "masses": [0.5, 0.25, -0.75]})
            argv = ["w1", base, "--measure", signed]
        elif base == "gaussian":
            gauss = write_json(tmp_path, "g.json",
                               {"mean": [0.0], "covariance": [[1.0]]})
            argv = ["gaussian", "--a", gauss, "--b", gauss]
        else:
            argv = _range_sweep_base(tmp_path, base)[0]
        payloads = []
        render = cli._render
        monkeypatch.setattr(cli, "_render", lambda payload, fmt: (
            payloads.append(payload) or render(payload, fmt)))
        code, out, err = run_cli(argv + ["--format", "jsonl"], capsys)
        assert code == 0, err
        assert out == jsonl_lines(payloads[0])

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


@pytest.fixture
def open_flags(monkeypatch):
    """``(path, flags)`` of every file opened by name from here on.

    `open` is given an opener that goes through the spied `os.open`, so
    the flags its mode implies (``O_TRUNC`` for "w") are seen too.
    """
    calls = []
    real_os_open, real_open = os.open, builtins.open

    def spy_os_open(path, flags, mode=0o777, **kwargs):
        calls.append((os.fspath(path), flags))
        return real_os_open(path, flags, mode, **kwargs)

    def spy_open(file, *args, **kwargs):
        if not isinstance(file, int) and kwargs.get("opener") is None:
            kwargs["opener"] = lambda path, flags: spy_os_open(path, flags,
                                                                0o666)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    return calls


class TestOutputFiles:
    """``--out`` and ``--trace`` files are written in place: an existing
    file is never emptied first, keeps its inode and ends up holding
    exactly the new bytes."""

    @pytest.fixture
    def argv(self, measure_files):
        path_a, path_b, _, _ = measure_files
        return ["sinkhorn", "--a", path_a, "--b", path_b, "--epsilon", "0.5"]

    def test_existing_files_are_not_opened_with_o_trunc(
            self, tmp_path, argv, capsys, open_flags):
        paths = [tmp_path / "out.json", tmp_path / "trace.jsonl"]
        for path in paths:
            path.write_bytes(b"x" * 100_000)
        open_flags.clear()
        code, _, _ = run_cli(argv + ["--out", str(paths[0]),
                                     "--trace", str(paths[1])], capsys)
        assert code == 0
        for path in paths:
            flags = [f for p, f in open_flags if p == str(path)]
            assert flags, path
            assert not any(f & os.O_TRUNC for f in flags), path

    def test_rewrite_keeps_the_inode_and_holds_exactly_the_new_bytes(
            self, tmp_path, argv, capsys):
        paths = [tmp_path / "out.json", tmp_path / "trace.jsonl"]
        argv = argv + ["--out", str(paths[0]), "--trace", str(paths[1])]
        assert run_cli(argv, capsys)[0] == 0
        fresh = [path.read_bytes().splitlines(keepends=True)
                 for path in paths]
        inodes = []
        for path in paths:
            # longer than the new text, so a write in place leaves a tail
            # unless the file is cut to the new length
            path.write_bytes(b"x" * 100_000)
            os.link(path, path.with_suffix(".link"))
            inodes.append(path.stat().st_ino)
        assert run_cli(argv, capsys)[0] == 0
        for path, inode, lines in zip(paths, inodes, fresh):
            assert path.stat().st_ino == inode
            assert path.read_bytes().splitlines(keepends=True) == lines
            assert (path.with_suffix(".link").read_bytes()
                    .splitlines(keepends=True)) == lines

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_file_is_two(self, tmp_path, argv, capsys, flag,
                                    kind):
        target = (tmp_path if kind == "directory"
                  else tmp_path / "missing" / "out.json")
        code, out, err = run_cli(argv + [flag, str(target)], capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert error["message"].startswith(f"cannot write {target}: ")

    def test_out_to_an_appended_stdout_keeps_what_it_held(
            self, tmp_path, measure_files):
        """``ot ... --out /dev/stdout >> log`` adds the payload after the
        lines ``log`` already held."""
        path_a, path_b, _, _ = measure_files
        env = fresh_process_env()
        command = [sys.executable, "-c",
                   "import sys; from otkit.cli import main; "
                   "sys.exit(main(sys.argv[1:]))",
                   "exact", "--a", path_a, "--b", path_b,
                   "--out", "/dev/stdout"]
        payload = subprocess.run(command, capture_output=True, env=env,
                                 check=True).stdout
        assert payload.startswith(b"{")
        log = tmp_path / "log.txt"
        log.write_bytes(b"earlier line\n")
        with open(log, "ab") as fh:
            subprocess.run(command, stdout=fh, env=env, check=True)
        assert log.read_bytes() == b"earlier line\n" + payload


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
                # Lists of lines, so that a failure's report stays quick.
                seen.append((code, stdout.splitlines(keepends=True),
                             stderr.splitlines(keepends=True),
                             *(p.read_bytes().splitlines(keepends=True)
                               if p.exists() else None
                               for p in (out, trace))))
            return seen

        fresh = results(fresh=True)
        reused = results(fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert fresh[0][0] == 2
        assert json.loads("".join(fresh[0][2]))["error"]["code"] == "usage"
        assert [r[0] for r in fresh[1:]] == [0] * (len(argvs) - 1)
        assert fresh[2][1:] == fresh[-1][1:]
        for argv, a, b in zip(argvs, fresh, reused):
            assert a == b, argv


class TestColdStart:
    """What a fresh ``ot`` process imports: each solver module only in the
    subcommand that runs it, and scipy only where a solver calls it, so
    that a later top-level import cannot slow every run."""

    SCRIPT = (
        "import json, sys\n"
        "from otkit.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = main(argv) if argv else 0\n"
        "print(json.dumps([code, sorted(\n"
        "    m for m in sys.modules if m.startswith(('scipy', 'otkit')))]))\n"
    )
    BASE = ["otkit", "otkit.cli", "otkit.errors", "otkit.measures"]

    def loaded_modules(self, argv):
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
            capture_output=True, text=True, env=fresh_process_env(),
            check=True)
        code, modules = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, done.stderr
        return modules

    def scipy_modules(self, argv):
        return [m for m in self.loaded_modules(argv) if m.startswith("scipy")]

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

    @pytest.mark.parametrize("base, solvers", [
        (None, []),
        ("exact", ["_mincostflow", "duality", "exact"]),
        ("sinkhorn", ["entropic"]),
        ("graph", ["_mincostflow", "duality", "exact", "w1"]),
        ("semidiscrete", ["semidiscrete"]),
        ("gradient", ["dynamics"]),
        ("gaussian", ["gaussian"]),
        ("divergence", ["divergences"]),
    ], ids=["import", "exact", "sinkhorn", "w1-graph", "semidiscrete",
            "flow-gradient", "gaussian", "divergence"])
    def test_each_subcommand_loads_only_its_own_solver(self, tmp_path, base,
                                                       solvers):
        """``import otkit.cli`` loads four modules; a run adds the modules
        of its own solver and of nothing else."""
        if base is None:
            argv = []
        elif base == "gaussian":
            gauss = write_json(tmp_path, "g.json",
                               {"mean": [0.0], "covariance": [[1.0]]})
            argv = ["gaussian", "--a", gauss, "--b", gauss]
        else:
            argv = _range_sweep_base(tmp_path, base)[0]
        if argv:
            argv += ["--out", str(tmp_path / "out.json")]
        modules = [m for m in self.loaded_modules(argv)
                   if m.startswith("otkit")]
        assert modules == sorted(self.BASE + [f"otkit.{name}"
                                              for name in solvers])
