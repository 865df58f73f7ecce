"""lqstack benchmark: run one workload at one seed.

    python3 perfbench/run.py --workload verify-std --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it measures the package under
``src/`` there and exits with code 2 when there is none.  Workloads are
``verify-std``, ``solve-sweep`` and ``simulate-wide`` (see workloads.py and
README.md).  Everything it writes goes under ``.perfbench_work/`` in the
checkout.

With --trace 0 it reports the end-to-end metrics: ``wall_s`` (median wall
time of the timed section over the repetitions that fit in --seconds, at
least one), ``peak_rss_mb`` (peak RSS of the measured process) and
``setup_s`` (process start to first pipeline call, median over fresh
processes started before and after the measured one).  With --trace 1 it runs the timed section once untraced
and once traced, in two fresh processes, and reports the per-layer metrics
plus the tracing overhead.  Either way the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported here or in a worker
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # fresh processes whose set-up times give the setup_s median
DEADLINE_S = 170.0  # whole run, so it ends within the 180 s a run may take


class RunError(Exception):
    """The benchmark could not measure: no result is printed."""


def git_revision(root: Path) -> str:
    """HEAD commit read from .git without running git (which may search parent dirs)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(workdir: Path, tag: str, deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh process and return its result."""
    result = workdir / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for {tag}")
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--plan", str(workdir / "plan.json"),
            "--result", str(result), "--spawned", repr(spawned), *flags]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{tag} did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{tag} exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    if Path(out["lqstack"]).resolve().parent != (ROOT / "src" / "lqstack").resolve():
        raise RunError(f"{tag} imported lqstack from {out['lqstack']}, not from this checkout")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "lqstack" / "__init__.py").is_file():
        raise RunError(f"no lqstack source under {ROOT / 'src'}: run from a source checkout")
    workdir = ROOT / ".perfbench_work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.make_plan(workload, seed, workdir)
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1))

    if trace:
        base = spawn_worker(workdir, "untraced", deadline)
        traced = spawn_worker(workdir, "traced", deadline, "--trace")
        runs = [base, traced]
        metrics = {name: tuple(m) for name, m in traced["layers"].items()}
        metrics["trace.wall_s"] = (traced["walls"][0], "s")
        metrics["trace.overhead_s"] = (traced["walls"][0] - base["walls"][0], "s")
    else:
        # Set-up samples are taken before and after the measured process, so
        # their median spans the whole run rather than a few seconds of it.
        setups = [spawn_worker(workdir, f"setup{i}", deadline, "--setup-only")["setup_s"]
                  for i in range(SETUP_SAMPLES // 2)]
        base = spawn_worker(workdir, "measured", deadline, "--seconds", repr(seconds))
        setups.append(base["setup_s"])
        setups += [spawn_worker(workdir, f"setup{i}", deadline, "--setup-only")["setup_s"]
                   for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
        runs = [base]
        metrics = {
            "wall_s": (statistics.median(base["walls"]), "s"),
            "peak_rss_mb": (base["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    env = {"python": base["python"], "numpy": base["numpy"], "nproc": os.cpu_count(),
           "threads": {v: os.environ[v] for v in THREAD_VARS}, "git": git_revision(ROOT)}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "repetitions": len(base["walls"]), "walls": base["walls"], "failures": failures,
              "correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (workdir / "run.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(f"lqstack benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {int(record['trace'])}, {record['repetitions']} repetition(s)")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{' '.join(f'{k}={v}' for k, v in env['threads'].items())}, git {env['git']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_ratio {record['failed'] / record['attempted']!r} "
          f"({record['failed']} of {record['attempted']} operations)")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if record["trace"]:
        inclusive = {k: m["value"] for k, m in record["metrics"].items()
                     if k.endswith(".inclusive_s") and not k.startswith("cli.")}
        print(f"largest inclusive layer below cli: {max(inclusive, key=inclusive.get)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
