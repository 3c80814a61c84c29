"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps package functions by name, some of them
where another module imported them, and reads counters off their
results.  A rename, or a call that bypasses the name the tracer wraps,
would leave its per-layer metrics silently empty; these tests run one
tiny op of each traced kind through the wrapped names instead.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from otkit import cli, entropic
from otkit.entropic import SinkhornConfig
from otkit.measures import CostSpec, build_cost_matrix, measure_from_dict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _argvs(tmp_path):
    a = _write(tmp_path, "a.json", {"points": [[0.0, 0.0], [1.0, 0.0]],
                                    "weights": [0.5, 0.5]})
    b = _write(tmp_path, "b.json", {"points": [[0.0, 1.0], [2.0, 0.0],
                                               [1.0, 1.0]],
                                    "weights": [0.25, 0.25, 0.5]})
    graph = _write(tmp_path, "graph.json", {
        "nodes": ["0", "1", "2"],
        "edges": [["0", "1", 1.0], ["1", "2", 1.5]],
        "imbalance": {"0": 0.5, "1": -0.8, "2": 0.3}})
    flow = _write(tmp_path, "flow.json", {
        "kind": "interaction", "kernel": {"name": "quadratic"},
        "x0": [[1.0, 0.0], [0.0, 1.0]], "dt": 0.05, "T": 0.1})
    out = str(tmp_path / "out.json")
    return [
        ["exact", "--a", a, "--b", b, "--out", out],
        ["sinkhorn", "--a", a, "--b", b, "--epsilon", "0.5",
         "--schedule", "2,1,0.5", "--trace", str(tmp_path / "trace.jsonl"),
         "--out", out],
        ["w1", "graph", "--graph", graph, "--out", out],
        ["flow", "gradient", "--config", flow,
         "--trace", str(tmp_path / "traj.jsonl"), "--out", out],
    ]


def test_every_target_exists(tracing):
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr)), attr


def test_traced_ops_fill_the_counters(tracing, tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        codes = [cli.main(argv) for argv in _argvs(tmp_path)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    for (owner, attr, _, _), fn in zip(tracing.TARGETS, originals):
        assert getattr(owner, attr) is fn, attr

    spans = tracer.spans
    assert not any(span[tracing.ERROR] for span in spans)
    names = [span[tracing.NAME] for span in spans]
    assert names.count("cli.main") == 4

    def info(name):
        return [span[tracing.INFO] for span in spans
                if span[tracing.NAME] == name]

    def parents(name):
        return {names[span[tracing.PARENT]] for span in spans
                if span[tracing.NAME] == name}

    for counters in info("mincostflow.flow"):
        assert set(counters) == {"augmentations", "arcs"}
        assert counters["augmentations"] > 0 and counters["arcs"] > 0
    # The exact LP reaches the flow layer through `_mincostflow`'s own
    # global and the Beckmann flow through the name `w1` imported.
    assert parents("mincostflow.flow") == {"mincostflow.transportation",
                                           "w1.beckmann"}
    (sinkhorn,) = info("entropic.sinkhorn")
    assert sinkhorn["iterations"] > 0
    assert 0 < sinkhorn["final_stage_iterations"] < sinkhorn["iterations"]
    # The tracer counts the records at the final eps of the traced solve.
    alpha, beta = (measure_from_dict(json.loads((tmp_path / name).read_text()))
                   for name in ("a.json", "b.json"))
    C = build_cost_matrix(alpha, beta, CostSpec.sq_euclidean())
    trace = entropic.sinkhorn(alpha.weights, beta.weights, C, SinkhornConfig(
        epsilon=0.5, epsilon_schedule=(2.0, 1.0, 0.5),
        record_trace=True)).state.trace
    assert len(trace) == sinkhorn["iterations"]
    assert sinkhorn["final_stage_iterations"] == sum(
        rec.epsilon == 0.5 for rec in trace)
    assert info("dynamics.velocity")
    rows = {name: value for name, value, _ in
            tracing.module_metrics(spans, 4, {0}, 0)}
    assert rows["mincostflow.augmentations"] > 0
    assert rows["entropic.iterations"] > 0
