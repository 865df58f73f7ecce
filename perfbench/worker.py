"""One measured process of the lqstack benchmark.

    python3 worker.py --plan PLAN --result RESULT --spawned T [--seconds S] [--trace] [--setup-only]

Imports lqstack, loads and validates the plan's problem files (set-up),
then repeats the plan's operations through ``lqstack.cli.main`` for about
S seconds (at least once) and writes a JSON result: set-up time measured
from T (the parent's ``time.monotonic()`` just before it started this
process) to the first pipeline call, the wall time of each repetition, the
gate outcome of each operation and the peak RSS.  With --trace it runs the
operations once under the tracer and adds the per-layer metrics; with
--setup-only it stops after set-up.  Thread variables and PYTHONPATH come
from the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import lqstack
import numpy
from lqstack import cli, model

import tracer as tracing
import workloads


def run(plan: dict, seconds: float, spawned: float, trace: bool, setup_only: bool, log_path: Path) -> dict:
    tr = tracing.Tracer() if trace else None
    if tr is not None:
        tr.run = f"{plan['workload']}:{plan['seed']}:setup"
        tr.install()
    for path in plan["models"]:
        model.validate_model(model.load_model(path))
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "lqstack": lqstack.__file__, "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    if setup_only:
        return result

    walls, failures, attempted = [], [], 0
    start = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        while True:
            codes = []
            t0 = time.perf_counter()
            for i, op in enumerate(plan["ops"]):
                if tr is not None:
                    tr.run = f"{plan['workload']}:{plan['seed']}:op{i}"
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    try:
                        codes.append(cli.main(op["argv"]))
                    except Exception:  # a crash fails this operation, not the run
                        traceback.print_exc()
                        codes.append(-1)
            walls.append(time.perf_counter() - t0)
            for op, code in zip(plan["ops"], codes):
                attempted += 1
                try:
                    reason = workloads.gate(op, code)
                except (OSError, ValueError, KeyError) as exc:
                    reason = f"unreadable output: {exc!r}"
                if reason is not None:
                    failures.append(f"{' '.join(op['argv'][:3])}: {reason}")
            elapsed = time.perf_counter() - start
            if trace or elapsed + walls[-1] > seconds:
                break
    result.update(walls=walls, attempted=attempted, failures=failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tr is not None:
        tr.uninstall()
        tr.write(log_path.with_name("spans.jsonl"))
        result["layers"] = {k: list(v) for k, v in tracing.layer_metrics(tr.spans, tr.counts).items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(args.plan.read_text())
    result = run(plan, args.seconds, args.spawned, args.trace, args.setup_only,
                 args.result.with_suffix(".log"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
