"""Tests of the benchmark itself, at reduced sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "verify-std": {"steps": 40, "paths": 400},
    "solve-sweep": {"steps": 40, "models": 2},
    "simulate-wide": {"steps": 40, "paths": 500},
}


def _traced(tmp_path, workload, seed, tag):
    workdir = tmp_path / tag
    workdir.mkdir()
    plan = workloads.make_plan(workload, seed, workdir, SMALL[workload])
    (workdir / "plan.json").write_text(json.dumps(plan))
    return run.spawn_worker(workdir, tag, time.monotonic() + 120, "--trace")


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_exact_counts_repeat_at_one_seed(tmp_path, workload):
    first = _traced(tmp_path, workload, 5, "a")
    second = _traced(tmp_path, workload, 5, "b")
    assert first["failures"] == [] and second["failures"] == []
    for name in tracer.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_seed_drives_inputs(tmp_path):
    a = workloads.make_plan("solve-sweep", 1, tmp_path / "a", SMALL["solve-sweep"])
    b = workloads.make_plan("solve-sweep", 1, tmp_path / "b", SMALL["solve-sweep"])
    c = workloads.make_plan("solve-sweep", 2, tmp_path / "c", SMALL["solve-sweep"])
    read = lambda plan: [Path(p).read_text() for p in plan["models"]]  # noqa: E731
    assert read(a) == read(b) != read(c)
    assert workloads.make_plan("verify-std", 1, tmp_path / "d")["mc_seed"] != \
        workloads.make_plan("verify-std", 2, tmp_path / "e")["mc_seed"]


def test_gates_reject_bad_outputs(tmp_path):
    from lqstack import cli
    plan = workloads.make_plan("solve-sweep", 3, tmp_path, SMALL["solve-sweep"])
    op = plan["ops"][1]
    assert cli.main(op["argv"]) == 0
    assert workloads.gate(op, 0) is None
    assert workloads.gate(op, 3) == "exit code 3"
    riccati = Path(op["out"]) / "riccati.csv"
    lines = riccati.read_text().splitlines()
    last = lines[-1].split(",")
    riccati.write_text("\n".join(lines[:-1] + [",".join(last[:1] + ["1.5"] + last[2:])]) + "\n")
    assert workloads.gate(op, 0).startswith("not bit-exact: P(T)")
    row = lines[2].split(",")
    riccati.write_text("\n".join(lines[:2] + [",".join(row[:1] + ["nan"] + row[2:])]) + "\n")
    assert workloads.gate(op, 0) == "non-finite value in riccati.csv"

    out = tmp_path / "sim"
    out.mkdir()
    (out / "costs.csv").write_text("which,mean,stderr,paths\nJ1,1.0,0.1,499\nJ2,1.0,0.1,500\n")
    assert "expected 500" in workloads.gate({"gate": "simulate", "out": str(out), "expect": {"paths": 500}}, 0)
    (out / "verify_report.csv").write_text("check,kind,residual,tolerance,pass,note\n"
                                           "a,algebraic,0.0,1.0,true,\nb,order,2.0,1.0,false,\n")
    assert workloads.gate({"gate": "verify", "out": str(out), "expect": {}}, 0) == "failing checks: b"


def test_layer_metrics_self_time_and_distinct_paths():
    grid = [1, 10, 1.0]
    spans = [
        tracer.Span(0, "costs.grid_search", "r", None, 0, 100, {"points": 2}),
        tracer.Span(1, "simulate.noise", "r", 0, 10, 20, {"key": grid, "first": 0, "paths": 8}),
        tracer.Span(2, "simulate.euler", "r", 0, 30, 60, {"path_steps": 80, "bytes": 8}),
        tracer.Span(3, "simulate.euler", "r", 0, 60, 70, {"path_steps": 80, "bytes": 8}),
        tracer.Span(4, "simulate.noise", "r", None, 200, 210, {"key": grid, "first": 4, "paths": 8}),
    ]
    m = tracer.layer_metrics(spans, {"riccati.rhs_p1": 3, "riccati.rhs_p2": 1, "riccati.gain_inverses": 6})
    assert m["costs.inclusive_s"][0] == pytest.approx(100e-9)
    assert m["costs.self_s"][0] == pytest.approx(50e-9)
    assert m["simulate.inclusive_s"][0] == pytest.approx(60e-9)
    assert m["costs.resims"][0] == 2 and m["costs.resims_per_point"][0] == 1.0
    assert m["simulate.noise_useful_ratio"][0] == 12 / 16
    assert m["riccati.inverses_per_rhs"][0] == 1.5


def test_install_wraps_every_binding_and_uninstall_restores():
    import lqstack
    from lqstack import cli, costs, riccati, simulate
    originals = (riccati.solve_follower_P, cli.solve_follower_P, costs.simulate_open_loop)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.solve_follower_P is riccati.solve_follower_P is lqstack.solve_follower_P
        assert cli.solve_follower_P is not originals[0]
        assert costs.simulate_open_loop is simulate.simulate_open_loop
    finally:
        tr.uninstall()
    assert (riccati.solve_follower_P, cli.solve_follower_P, costs.simulate_open_loop) == originals


def test_run_without_source_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
