"""Malformed input files never end in a traceback.

One hypothesis fuzz drives every file loader of the ``ot`` command line
in process: measure JSON and CSV, the signed measure of ``w1 kr``, the
``w1 graph`` file, the semidiscrete targets and weights, the mixture
sampler file, the Gaussian file and each ``ot flow`` config.  A file is
raw bytes, a valid file in another encoding, a valid file with one or two
entries scaled toward the ends of the float range, replaced, removed or
wrapped in a list, or any JSON value.
Every run must exit 0, 2 or 3, raise nothing out of ``main`` and write
nothing to stderr but at most one JSON error line.

The size ceiling ``measures.MAX_ELEMENTS`` is lowered for every run, so
no drawn size allocates much or runs long.  The cases the fuzz found are
pinned in `FOUND`.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import measures
from otkit.cli import main

# Every state stack, sample and cost matrix a run builds holds at most this
# many elements.
CEILING = 4096

_EYE = [[1.0, 0.0], [0.0, 1.0]]
_MEASURE = {"points": [[0.0, 0.0], [1.0, 0.5]], "weights": [0.25, 0.75]}
_GAUSSIAN = {"mean": [0.0, 1.0], "covariance": [[2.0, 0.5], [0.5, 1.0]]}

# name: (argv with FILE for the fuzzed file, a valid file's JSON value)
LOADERS = {
    "measure-json": (["exact", "--a", "FILE", "--b", "GOOD_MEASURE"],
                     _MEASURE),
    "measure-csv": (["exact", "--a", "FILE.csv", "--b", "GOOD_MEASURE"],
                    None),
    "signed-measure": (["w1", "kr", "--measure", "FILE"],
                       {"points": [[0.0], [1.0], [3.0]],
                        "masses": [0.5, -0.25, -0.25]}),
    "graph": (["w1", "graph", "--graph", "FILE"],
              {"nodes": ["a", "b", "c"],
               "edges": [["a", "b", 1.0], ["b", "c", 2.0]],
               "imbalance": {"a": 1.0, "c": -1.0}}),
    "targets": (["semidiscrete", "--targets", "FILE",
                 "--weights", "GOOD_WEIGHTS", "--sampler", "uniform_box",
                 "--iters", "10", "--seed", "0", "--heldout-samples", "10"],
                [[0.25], [0.75]]),
    "weights": (["semidiscrete", "--targets", "GOOD_TARGETS",
                 "--weights", "FILE", "--sampler", "uniform_box",
                 "--iters", "10", "--seed", "0", "--heldout-samples", "10"],
                [0.5, 0.5]),
    "mixture": (["semidiscrete", "--targets", "GOOD_TARGETS",
                 "--weights", "GOOD_WEIGHTS", "--sampler", "mixture:FILE",
                 "--iters", "10", "--seed", "0", "--heldout-samples", "10"],
                {"weights": [0.5, 0.5], "means": [[0.0], [1.0]],
                 "covariances": [[[1.0]], [[0.5]]]}),
    "gaussian": (["gaussian", "--a", "FILE", "--b", "GOOD_GAUSSIAN"],
                 _GAUSSIAN),
    "flow-gradient": (["flow", "gradient", "--config", "FILE"],
                      {"kind": "interaction",
                       "kernel": {"name": "gaussian", "sigma": 1.0},
                       "x0": [[0.0, 0.0], [1.0, 0.0]], "dt": 0.1, "T": 0.2}),
    "flow-potential": (["flow", "gradient", "--config", "FILE"],
                       {"kind": "linear",
                        "potential": {"name": "gaussian_well", "sigma": 1.0,
                                      "center": [0.5]},
                        "x0": [[0.0], [1.0]], "dt": 0.25, "T": 0.5}),
    "flow-entropy1d": (["flow", "entropy1d", "--config", "FILE"],
                       {"grid": [-1.0, 0.0, 1.0], "density": [0.5, 1.0, 0.5],
                        "entropy": {"name": "power", "q": 2.0}, "dt": 0.01,
                        "T": 0.02}),
    "flow-flowmatch": (["flow", "flowmatch", "--config", "FILE"],
                       {"source": {"points": [[0.0], [1.0]],
                                   "weights": [0.5, 0.5]},
                        "target": {"points": [[2.0], [3.0]],
                                   "weights": [0.5, 0.5]},
                        "coupling": "optimal", "dt": 0.5, "bandwidth": 1.0}),
    "flow-transformer": (["flow", "transformer", "--config", "FILE"],
                         {"tokens": [[0.0, 1.0], [1.0, 0.0]], "Q": _EYE,
                          "K": _EYE, "V": _EYE, "depth": 2}),
    "flow-mlp": (["flow", "mlp", "--config", "FILE"],
                 {"features": [[0.5], [1.0]], "labels": [0.0, 1.0],
                  "n_neurons": 2, "dt": 0.1, "T": 0.2, "seed": 0,
                  "activation": "tanh"}),
}
_CSV = "0.0,0.0,0.25\n1.0,0.5,0.75\n"
_GOOD = {"GOOD_MEASURE": _MEASURE, "GOOD_TARGETS": [[0.25], [0.75]],
         "GOOD_WEIGHTS": [0.5, 0.5], "GOOD_GAUSSIAN": _GAUSSIAN}

# Numbers at and past the edges of the float range, and the JSON values
# that are not numbers.
_SPECIAL = [0, -1, 1, 2 ** 31, 2 ** 70, 1e-15, 1e-300, 5e-324, 1e15, 1e300,
            -1e300, 1.7e308, float("inf"), float("-inf"), float("nan"),
            True, False, None, "", "0.5", "x", [], {}]
_LEAVES = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(-2 ** 70, 2 ** 70), st.text(max_size=4))
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)
_ENCODINGS = ["utf-8-sig", "utf-16", "utf-32", "latin-1", "cp1252"]


def _nodes(value, path=()):
    """The path of ``value`` and of every entry nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from _nodes(value[key], path + (key,))


def _mutate(data, template):
    """``template`` with one or two nodes scaled, replaced, removed or
    wrapped in a list; most draws change one number or entry, so that
    the run gets past the loader's first checks."""
    value = copy.deepcopy(template)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_nodes(value))))
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else value
        how = data.draw(st.sampled_from(["scale", "scale", "leaf", "value",
                                         "delete", "wrap"]))
        if how == "scale" and type(old) in (int, float):
            new = old * data.draw(st.sampled_from([1e-15, 1e-300, 1e15,
                                                   1e300, -1.0]))
        elif how == "wrap":
            new = [old]
        else:
            new = data.draw(_LEAVES if how == "leaf" else _VALUES)
        if not path:
            value = new
        elif how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return value


def _csv_contents(data):
    """Valid measure CSV rows with one cell replaced, or drawn rows."""
    if data.draw(st.booleans()):
        rows = [row.split(",") for row in _CSV.splitlines()]
        row = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(rows[row])))
        cell = data.draw(st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "1e999", "1e-320",
                             "true", "", " ", "x", "0x10", "1_0"]),
            st.text(max_size=4)))
        rows[row][col:col + data.draw(st.integers(0, 1))] = [cell]
        return "\n".join(",".join(row) for row in rows) + "\n"
    return data.draw(st.text(max_size=40))


def _contents(data, template):
    """The bytes of one drawn file for a loader with a valid ``template``."""
    kind = data.draw(st.sampled_from(["mutated", "mutated", "mutated",
                                      "encoded", "value", "bytes"]))
    if kind == "bytes":
        return data.draw(st.binary(max_size=48))
    if kind == "encoded":
        text = _CSV if template is None else json.dumps(template)
        return text.encode(data.draw(st.sampled_from(_ENCODINGS)))
    if template is None:
        return _csv_contents(data).encode()
    return json.dumps(_mutate(data, template) if kind == "mutated"
                      else data.draw(_VALUES)).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("loaders")
    for name, value in _GOOD.items():
        (root / name).write_text(json.dumps(value))
    return root


def run_loader(workdir, loader, contents, monkeypatch):
    """Write ``contents`` as the fuzzed file of ``loader``, run its argv
    with the ceiling lowered, and check the exit rule."""
    argv = [str(workdir / tok) if tok in _GOOD
            else tok.replace("FILE", str(workdir / "FILE"))
            for tok in LOADERS[loader][0]]
    fuzzed = next(tok for tok in argv if "FILE" in tok)
    with open(fuzzed.removeprefix("mixture:"), "wb") as fh:
        fh.write(contents)
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(measures, "MAX_ELEMENTS", CEILING)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, lines
    if lines or code:
        assert code in (2, 3) and "error" in json.loads(lines[0]), lines
    return code


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_file_content_reaches_a_traceback(workdir, loader, data):
    contents = _contents(data, LOADERS[loader][1])
    with pytest.MonkeyPatch.context() as mp:
        run_loader(workdir, loader, contents, mp)


def _changed(loader, **change):
    """The bytes of the valid file of ``loader`` with entries replaced."""
    return json.dumps(dict(LOADERS[loader][1], **change)).encode()


def _well(**change):
    return dict(LOADERS["flow-potential"][1]["potential"], **change)


# Cases the fuzz found, each once a traceback or a warning on stderr;
# each is malformed input, so it must exit 2.
FOUND = {
    # A step so small that the time grid alone passes any memory.
    "gradient-tiny-dt": ("flow-gradient",
                         _changed("flow-gradient", dt=1e-15, T=1)),
    "entropy1d-tiny-dt": ("flow-entropy1d",
                          _changed("flow-entropy1d", dt=1e-15, T=1)),
    "flowmatch-tiny-dt": ("flow-flowmatch",
                          _changed("flow-flowmatch", dt=1e-15)),
    "mlp-tiny-dt": ("flow-mlp", _changed("flow-mlp", dt=1e-15, T=1)),
    # horizon / dt past the float range.
    "gradient-denormal-dt": ("flow-gradient",
                             _changed("flow-gradient", dt=5e-324, T=1)),
    # Values that take a computation past the float range.
    "gradient-huge-x0": ("flow-gradient",
                         _changed("flow-gradient", x0=[[0.0, 0.0],
                                                       [1e300, 0.0]])),
    "well-huge-sigma": ("flow-potential",
                        _changed("flow-potential", potential=_well(
                            sigma=1e300))),
    "well-tiny-sigma": ("flow-potential",
                        _changed("flow-potential", potential=_well(
                            sigma=1e-300))),
    "well-huge-center": ("flow-potential",
                         _changed("flow-potential", potential=_well(
                             center=[1e300]))),
    "entropy1d-huge-q": ("flow-entropy1d",
                         _changed("flow-entropy1d",
                                  entropy={"name": "power", "q": 2e300})),
    "flowmatch-huge-point": ("flow-flowmatch", _changed(
        "flow-flowmatch", source={"points": [[0.0], [1e300]],
                                  "weights": [0.5, 0.5]})),
    "transformer-huge-token": ("flow-transformer", _changed(
        "flow-transformer", tokens=[[0.0, 1e300], [1.0, 0.0]],
        K=[[1.0, 0.0], [0.0, 1e15]])),
    "mlp-huge-label": ("flow-mlp", _changed("flow-mlp", labels=[0.0, 1e300])),
    "gaussian-huge-mean": ("gaussian", _changed("gaussian",
                                                mean=[1e300, 1.0])),
    "mixture-huge-mean": ("mixture", _changed(
        "mixture", means=[[1.3407807929942597e154], [1.0]])),
    "measure-huge-point": ("measure-json", _changed(
        "measure-json", points=[[0.0, 0.0], [1e300, 0.5]])),
    "targets-huge": ("targets", json.dumps([[2.5e299], [0.75]]).encode()),
}


@pytest.mark.parametrize("loader, contents", list(FOUND.values()),
                         ids=list(FOUND))
def test_found_case_exits_two(workdir, loader, contents, monkeypatch):
    assert run_loader(workdir, loader, contents, monkeypatch) == 2
