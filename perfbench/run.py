"""Closed-loop benchmark of the ``ot`` command line, run in process.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 30 \
        --trace 0 [--results results.jsonl]
    python3 perfbench/run.py --compare base.jsonl new.jsonl

One client: each op calls ``otkit.cli.main(argv)`` with ``--out`` to a
file in a scratch directory, and the next op starts when the previous one
has finished and been checked. An op is timed from argv to the written
payload, scaled to a reference machine speed by a calibration kernel,
and reported as the best run of its argv (``harness.py``). Its output is
checked against an independent numpy/scipy computation (``checks.py``)
and, when its argv ran before, against the earlier bytes. ``--trace 1``
runs every op once untraced and once traced instead and reports
per-module metrics from spans (``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the
workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def measure(args):
    if not (SRC / "otkit" / "cli.py").is_file():
        print(f"no otkit sources under {SRC}", file=sys.stderr)
        return 2
    # OT_THREADS pins the BLAS pools only if it is set before numpy loads,
    # so otkit is imported before the modules that import numpy.
    os.environ["OT_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import otkit  # noqa: F401

    import harness
    return harness.measure(args)


def compare(base_path, new_path):
    """Print new/base ratios of each metric's median, per workload."""
    def load(path):
        groups = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                workload = record["meta"]["workload"]
                for name, m in record["metrics"].items():
                    groups.setdefault(workload, {}).setdefault(
                        name, (m["unit"], []))[1].append(m["value"])
        return groups

    base, new = load(base_path), load(new_path)
    print(f"{'workload':16s} {'metric':36s} {'unit':6s} "
          f"{'base (runs)':>18s} {'new (runs)':>18s} {'new/base':>9s}")
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            unit, b = base[workload][name]
            n = new[workload][name][1]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9s}"
            print(f"{workload:16s} {name:36s} {unit:6s} "
                  f"{mb:12.6g} ({len(b):3d}) {mn:12.6g} ({len(n):3d}) {ratio}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the run's record (JSON "
                        "line with metadata and sample counts) here")
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print metric ratios of two --results files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
