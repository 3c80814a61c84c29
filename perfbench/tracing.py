"""Spans around the calls into otkit's modules, and the per-module metrics.

The tracer replaces a public function with a timing wrapper at the place
its caller looks it up: a function imported by name into another module
(``build_cost_matrix`` in ``otkit.cli``, ``solve_min_cost_flow`` in
``otkit.w1``) is wrapped in that module's namespace, and a method on its
class. Wrappers are installed only around traced ops and removed after
them, so untraced ops run the unmodified code.

Spans are kept in memory, one list per run: name, start, end, parent span
and op id. A span's self time is its duration minus the durations of its
children; the calls are single-threaded, so children never overlap.
"""

import functools
import json
from time import perf_counter

from otkit import (_mincostflow, cli, dynamics, entropic, exact, measures,
                   semidiscrete, w1)

# Fields of a span record.
OP, NAME, START, END, PARENT, INFO, ERROR = range(7)

MODULES = ("cli", "measures", "exact", "mincostflow", "entropic", "w1",
           "dynamics", "semidiscrete")


def _cells(args, kwargs, C):
    return {"cells": C.shape[0] * C.shape[1]}


def _flow_info(args, kwargs, res):
    return {"augmentations": res.augmentations, "arcs": len(args[1])}


def _sinkhorn_info(args, kwargs, res):
    state = res.state
    n, m = res.coupling.plan.shape
    final = sum(1 for rec in state.trace if rec.epsilon == state.epsilon)
    return {"iterations": state.iteration, "cells": n * m * state.iteration,
            "final_stage_iterations": final}


def _velocity_info(args, kwargs, result):
    return {"pairs": result.shape[0] ** 2}


def _sgd_info(args, kwargs, result):
    return {"steps": args[1].n_iter}


# (owner, attribute, span name, info) for every traced call.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "canonical_json", "cli.serialize", None),
    (cli, "measure_from_dict", "measures.parse", None),
    (cli, "build_cost_matrix", "measures.cost", _cells),
    (measures.Coupling, "__init__", "measures.coupling", None),
    (exact, "solve_kantorovich", "exact.solve_kantorovich", None),
    (_mincostflow, "solve_transportation", "mincostflow.transportation",
     None),
    (_mincostflow, "solve_min_cost_flow", "mincostflow.flow",
     _flow_info),
    (w1, "solve_min_cost_flow", "mincostflow.flow", _flow_info),
    (entropic, "sinkhorn", "entropic.sinkhorn", _sinkhorn_info),
    (w1, "flow_graph_from_dict", "w1.parse", None),
    (w1, "w1_graph_beckmann", "w1.beckmann", None),
    (dynamics.FunctionalSpec, "velocity", "dynamics.velocity",
     _velocity_info),
    (dynamics.FunctionalSpec, "value", "dynamics.value", None),
    (semidiscrete, "sgd_solve", "semidiscrete.sgd", _sgd_info),
]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op_id = -1

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op_id, name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result
        return traced

    def install(self, op_id):
        self.op_id = op_id
        for owner, attr, name, info in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, info))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """Write the spans as JSON lines."""
        keys = ("op", "name", "start", "end", "parent", "info", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def module_metrics(spans, traced_ops, counted_ops, out_bytes):
    """Per-module metrics, as (name, value, unit) triples.

    Times and rates are averaged over all ``traced_ops``; counts are
    averaged over the ops whose id is in ``counted_ops``, one full pass
    over the workload's inputs, so they repeat exactly for a seed.
    """
    self_time = _self_times(spans)
    total, selft, calls, info = {}, {}, {}, {}
    for span, own in zip(spans, self_time):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        selft[name] = selft.get(name, 0.0) + own
        if span[OP] in counted_ops:
            calls[name] = calls.get(name, 0) + 1
        for key, value in (span[INFO] or {}).items():
            sums = info.setdefault(name, {})
            both = sums.setdefault(key, [0, 0])
            both[0] += value
            if span[OP] in counted_ops:
                both[1] += value

    n_ops, n_counted = max(traced_ops, 1), max(len(counted_ops), 1)

    def ms(table, name):
        return 1e3 * table.get(name, 0.0) / n_ops

    def count(name, key=None):
        if key is None:
            return calls.get(name, 0) / n_counted
        return info.get(name, {}).get(key, [0, 0])[1] / n_counted

    def rate(name, key, seconds):
        work = info.get(name, {}).get(key, [0, 0])[0]
        return work / seconds if seconds > 0 else 0.0

    flow_s = total.get("mincostflow.flow", 0.0)
    sink_s = selft.get("entropic.sinkhorn", 0.0)
    augs = info.get("mincostflow.flow", {}).get("augmentations", [0, 0])[0]
    iters = info.get("entropic.sinkhorn", {}).get("iterations", [0, 0])[0]
    final = info.get("entropic.sinkhorn", {}).get(
        "final_stage_iterations", [0, 0])[0]
    errors = {module: 0 for module in MODULES}
    for span in spans:
        if span[ERROR]:
            errors[span[NAME].split(".")[0]] += 1
    rows = [
        ("cli.self_ms", ms(selft, "cli.main"), "ms"),
        ("cli.serialize_ms", ms(total, "cli.serialize"), "ms"),
        ("cli.serialize_calls", count("cli.serialize"), "count"),
        ("cli.out_bytes", out_bytes / n_counted, "B"),
        ("measures.parse_ms", ms(total, "measures.parse"), "ms"),
        ("measures.cost_ms", ms(total, "measures.cost"), "ms"),
        ("measures.coupling_ms", ms(total, "measures.coupling"), "ms"),
        ("measures.cost_cells", count("measures.cost", "cells"), "count"),
        ("exact.self_ms", ms(selft, "exact.solve_kantorovich"), "ms"),
        ("mincostflow.transport_ms",
         ms(selft, "mincostflow.transportation"), "ms"),
        ("mincostflow.flow_ms", ms(total, "mincostflow.flow"), "ms"),
        ("mincostflow.augmentations",
         count("mincostflow.flow", "augmentations"), "count"),
        ("mincostflow.arcs", count("mincostflow.flow", "arcs"), "count"),
        ("mincostflow.us_per_augmentation",
         1e6 * flow_s / augs if augs else 0.0, "us"),
        ("entropic.sinkhorn_ms", ms(selft, "entropic.sinkhorn"), "ms"),
        ("entropic.iterations", count("entropic.sinkhorn", "iterations"),
         "count"),
        ("entropic.iter_us", 1e6 * sink_s / iters if iters else 0.0, "us"),
        ("entropic.cells_per_s", rate("entropic.sinkhorn", "cells", sink_s),
         "1/s"),
        ("entropic.computed_bytes",
         8 * count("entropic.sinkhorn", "cells"), "B"),
        ("entropic.final_stage_iter_share", final / iters if iters else 0.0,
         "ratio"),
        ("w1.parse_ms", ms(total, "w1.parse"), "ms"),
        ("w1.beckmann_self_ms", ms(selft, "w1.beckmann"), "ms"),
        ("dynamics.velocity_ms", ms(total, "dynamics.velocity"), "ms"),
        ("dynamics.velocity_calls", count("dynamics.velocity"), "count"),
        ("dynamics.pair_evals_per_s",
         rate("dynamics.velocity", "pairs",
              total.get("dynamics.velocity", 0.0)), "1/s"),
        ("dynamics.value_ms", ms(total, "dynamics.value"), "ms"),
        ("semidiscrete.sgd_ms", ms(total, "semidiscrete.sgd"), "ms"),
        ("semidiscrete.steps_per_s",
         rate("semidiscrete.sgd", "steps",
              total.get("semidiscrete.sgd", 0.0)), "1/s"),
    ]
    rows += [(f"{module}.errors", errors[module], "count")
             for module in MODULES]
    return rows
