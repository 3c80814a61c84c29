"""The measurement loop: ops, checks, timing and the metrics of a run.

Import this only after otkit: ``run.py`` sets ``OT_THREADS`` and imports
otkit first, so that the BLAS pools are pinned before numpy loads.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy
from otkit import cli

import calibration
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7


def _env():
    env = dict(os.environ, OT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_import():
    """Wall time of a fresh interpreter that imports otkit.cli and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import otkit.cli"], env=_env(),
                   cwd=ROOT, check=True)
    return perf_counter() - start


def metadata(args):
    try:
        # The ceiling keeps git from reading a repository above ROOT.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "OT_THREADS": os.environ["OT_THREADS"],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "src_lines": src_lines}


class Runner:
    """Runs ops, checks them and remembers every argv's output bytes."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def call(self, op):
        """Run one op; return its wall time, exit code and output bytes."""
        out = Path(op.argv[-1])
        out.unlink(missing_ok=True)
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that crashes is counted, not fatal
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
        payload = out.read_bytes() if code == 0 and out.exists() else None
        return elapsed, code, payload

    def verify(self, op, code, payload):
        """Problems with one op's result; an empty list when it passes."""
        if code != 0:
            return [f"exit code {code}"]
        if payload is None:
            return ["no output file"]
        key = tuple(op.argv)
        if key in self.seen:
            if payload != self.seen[key]:
                return ["rerun of the same argv gave different bytes"]
            return []
        problems = checks.check(op, payload)
        if not problems:
            self.seen[key] = payload
        return problems

    def timed(self, op):
        """Run, time and verify one op; return its time or None."""
        elapsed, code, payload = self.call(op)
        problems = self.verify(op, code, payload)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {op.label}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return elapsed


def schedule(slots):
    """Ops in run order: cycle p runs instance p % pool of every slot."""
    p = 0
    while True:
        for slot in slots:
            yield slot[p % len(slot)]
        p += 1


def warm_up(runner, slots):
    """Run one op of every slot untimed, check it, and check its check."""
    problems = []
    for slot in slots:
        op = slot[0]
        _, code, payload = runner.call(op)
        found = runner.verify(op, code, payload)
        if not found:
            found = [f"its check missed a {name}" for name in
                     checks.check_the_check(op, payload)]
        problems += [f"warm-up {op.label}: {p}" for p in found]
    return problems


def tail(times):
    """Highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    beyond = len(ordered) - 1 - k
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def run_plain(runner, slots, seconds):
    """Timed ops for ``seconds``, with the set-up spawns spread among them.

    The calibration kernel runs before the first and after every op or
    spawn. Returns (op, wall time, scale) for every op that passed and
    (wall time, scale) for every spawn. The scale converts the wall time
    to the reference machine speed; it uses the median of the six kernel
    runs nearest to the op, so that one slow kernel run does not count.
    """
    events, kernel = [], [calibration.kernel_time()]
    ops = schedule(slots)
    spawns = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if spawns < SETUP_SPAWNS and \
                elapsed >= spawns * seconds / SETUP_SPAWNS:
            events.append((None, time_import()))
            spawns += 1
        elif elapsed < seconds or runner.attempted < 11:
            op = next(ops)
            events.append((op, runner.timed(op)))
        else:
            break
        kernel.append(calibration.kernel_time())
    done, setup = [], []
    for i, (op, wall) in enumerate(events):
        # Event i ran between kernel runs i and i + 1.
        scale = calibration.REFERENCE_S / statistics.median(
            kernel[max(0, i - 2):i + 4])
        if op is None:
            setup.append((wall, scale))
        elif wall is not None:
            done.append((op, wall, scale))
    return done, setup


def run_traced(runner, slots, seconds, tracer):
    """Untraced and traced runs of each op, in whole passes over the pool.

    The two runs of an op alternate in order. Passes continue while one
    more fits in ``seconds``; the first always runs. Returns the number of
    traced ops, the ops in a pass, the bytes the first pass wrote, and the
    traced over the untraced wall time.
    """
    per_pass = len(slots) * len(slots[0])
    ops = schedule(slots)
    plain = traced = pass_time = 0.0
    out_bytes = op_id = 0
    start = perf_counter()
    while op_id == 0 or perf_counter() - start + pass_time <= seconds:
        pass_start = perf_counter()
        for _ in range(per_pass):
            op = next(ops)
            for traced_turn in ((False, True) if op_id % 2 else (True, False)):
                if traced_turn:
                    tracer.install(op_id)
                try:
                    elapsed = runner.timed(op)
                finally:
                    tracer.uninstall()
                if elapsed is None:
                    continue
                if not traced_turn:
                    plain += elapsed
                    continue
                traced += elapsed
                if op_id < per_pass:
                    out_bytes += sum(Path(p).stat().st_size for p in
                                     (op.argv[-1],) + op.extra_outputs)
            op_id += 1
        pass_time = perf_counter() - pass_start
    return op_id, per_pass, out_bytes, traced / plain if plain else 0.0


def _summary(times):
    value, pct, beyond = tail(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_ms_p50": 1e3 * statistics.median(times),
            "op_ms_tail": 1e3 * value, "tail_percentile": pct,
            "tail_ops_beyond": beyond}


def end_to_end(runner, slots, seconds):
    """The end-to-end metrics as (name, value, unit, samples, extra).

    Wall times are scaled to the reference machine speed (see
    calibration.py). Every argv runs several times in a run, and an op's
    time is the fastest scaled run of its argv, as ``timeit`` reports the
    best of its repeats: that keeps the mix of inputs and their cost but
    drops slowdowns shorter than an op. The raw wall times are summarised
    in the record.
    """
    done, setup = run_plain(runner, slots, seconds)
    if not done:
        raise SystemExit("every timed op failed")
    best = {}
    for op, wall, scale in done:
        key = tuple(op.argv)
        best[key] = min(best.get(key, wall * scale), wall * scale)
    times = [best[tuple(op.argv)] for op, _, _ in done]
    stats = _summary(times)
    by_label = {}
    for (op, _, _), op_time in zip(done, times):
        by_label.setdefault(op.label, []).append(op_time)
    kinds = {label: {"ops": len(ts), "ms_median": 1e3 * statistics.median(ts),
                     "time_share": sum(ts) / sum(times)}
             for label, ts in by_label.items()}
    raw = _summary([wall for _, wall, _ in done])
    raw["setup_s"] = statistics.median(wall for wall, _ in setup)
    raw["scale"] = statistics.median(scale for _, _, scale in done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n, argvs = len(times), {"argvs": len(best)}
    return [
        ("ops_per_s", stats["ops_per_s"], "1/s", n, argvs),
        ("op_ms_p50", stats["op_ms_p50"], "ms", n, argvs),
        ("op_ms_tail", stats["op_ms_tail"], "ms", n,
         {**argvs, "percentile": stats["tail_percentile"],
          "ops_beyond": stats["tail_ops_beyond"]}),
        ("ok_ratio", n / runner.attempted, "ratio", runner.attempted, {}),
        ("setup_s", statistics.median(wall * scale for wall, scale in setup),
         "s", len(setup), {}),
        ("peak_rss_mb", rss_mb, "MB", 1, {}),
    ], {"op_kinds": kinds, "raw": raw}


def per_module(runner, slots, seconds, spans_path):
    """The per-module metrics as (name, value, unit, samples, extra)."""
    tracer = tracing.Tracer()
    n_ops, per_pass, out_bytes, ratio = run_traced(runner, slots, seconds,
                                                   tracer)
    if spans_path:
        tracer.write(spans_path)
    rows = tracing.module_metrics(tracer.spans, n_ops, set(range(per_pass)),
                                  out_bytes)
    rows.append(("trace.overhead_ratio", ratio, "ratio"))
    # Times and rates come from every traced op, counts from the first pass.
    return [(name, value, unit,
             n_ops if unit in ("ms", "us", "1/s", "ratio") else per_pass, {})
            for name, value, unit in rows], {}


def measure(args):
    """Run one workload as ``args`` says, print the result; return 0."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        slots = workloads.build(args.workload, args.seed, workdir)
        runner = Runner()
        problems = warm_up(runner, slots)
        for problem in problems:
            print(problem, file=sys.stderr)
        if args.trace:
            rows, extra = per_module(runner, slots, args.seconds, args.spans)
        else:
            rows, extra = end_to_end(runner, slots, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems and runner.failed == 0
    record = {"meta": metadata(args), "problems": problems,
              "correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit,
                                 "samples": samples, **more}
                          for name, value, unit, samples, more in rows},
              **extra}
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["meta"]))
    for name, value, unit, samples, more in rows:
        notes = "".join(f" {k}={v:g}" for k, v in more.items())
        print(f"{name:36s} {value:14.6g} {unit:6s} samples={samples}{notes}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in rows}}))
    return 0
