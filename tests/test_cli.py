import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lqstack import equilibrium as eq_mod
from lqstack import simulate
from lqstack.cli import main
from lqstack.model import model_to_dict

from conftest import make_model


def write_model(tmp_path, name="model.json", **overrides):
    m = make_model(steps=overrides.pop("steps", 100), **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(model_to_dict(m)))
    return str(path)


def read_all(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def read_report(outdir: Path) -> list[dict]:
    """Rows of verify_report.csv, each parsed to exactly the six header fields."""
    with open(outdir / "verify_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert list(row) == ["check", "kind", "residual", "tolerance", "pass", "note"], row
        assert None not in row.values(), row
    return rows


def test_validate_ok(tmp_path, capsys):
    path = write_model(tmp_path)
    assert main(["validate", "--model", path]) == 0
    out = capsys.readouterr().out
    for tag in ("(H1) PASS", "(H2) PASS", "(H4) PASS", "(H3) PASS", "(H5) PASS", "(H6) PASS"):
        assert tag in out


def test_validate_names_failed_gain_inverse(tmp_path, capsys):
    # the model of test_riccati.py::test_leader_blow_up_instance
    path = write_model(tmp_path, steps=400, A=3.0, B1=0.5, B2=2.0, C=2.0, D1=0.0,
                       D2=4.0, Q1=1.0, R1=1.0, G1=2.0, Q2=8.0, R2=0.01, G2=8.0,
                       horizon=6.0)
    assert main(["validate", "--model", path]) == 1
    out = capsys.readouterr().out
    assert "(H3) PASS" in out
    assert "(H5) FAIL (gain matrix inverse does not exist (at t=" in out


def test_validate_agrees_with_solve_on_non_finite_filter(tmp_path, capsys):
    # the model of test_non_finite_filter_exit_3: solve exits 3, validate 1
    path = write_model(tmp_path, steps=200, A=800.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    assert main(["validate", "--model", path]) == 1
    out = capsys.readouterr().out
    assert "(H6) PASS" in out
    assert "(solve) FAIL (filtered leader state is not finite (at t=" in out


def test_validate_names_failed_hypothesis(tmp_path, capsys):
    path = write_model(tmp_path, R1=0.0)
    assert main(["validate", "--model", path]) == 1
    out = capsys.readouterr().out
    assert "(H2) FAIL" in out
    assert "NonPositiveWeight" in out


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--model", str(bad)]) == 2


def test_missing_key_exit_2(tmp_path):
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps({"A": 1.0}))
    assert main(["solve", "--model", str(bad)]) == 2


def parse_fails(tmp_path, monkeypatch, *flags) -> bool:
    """verify with these flags exits 2 before the solve and writes nothing."""
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(eq_mod, "solve_equilibrium", no_solve)
    out = tmp_path / "out"
    code = main(["verify", "--model", write_model(tmp_path), "--out", str(out), *flags])
    return code == 2 and not out.exists()


def test_bad_eps_exit_2(tmp_path, monkeypatch):
    for eps in ("0.1,zero", "0.0", "0.1,nan", "inf", ",", ""):
        assert parse_fails(tmp_path, monkeypatch, "--eps", eps), eps


def test_negative_seed_exit_2(tmp_path, monkeypatch):
    assert parse_fails(tmp_path, monkeypatch, "--seed", "-1")


def test_solve_writes_artifacts(tmp_path):
    path = write_model(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--model", path, "--out", str(out)]) == 0
    for name in ("riccati.csv", "gains.csv", "xhat.csv"):
        assert (out / name).exists()
    header = (out / "riccati.csv").read_text().splitlines()[0]
    assert header.startswith("t,P,PI1_11")


def test_solve_message_prints_plain_floats(tmp_path, capsys):
    path = write_model(tmp_path)
    assert main(["solve", "--model", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "solved: P(0)=" in out
    assert "np.float64" not in out


def test_solve_oracle_column(tmp_path):
    # the rational closed-form case: the P column of riccati.csv starts at 1/2
    path = write_model(tmp_path, steps=1000, A=0.0, C=0.0, Q1=0.0, G1=1.0)
    out = tmp_path / "out"
    assert main(["solve", "--model", path, "--out", str(out)]) == 0
    first = (out / "riccati.csv").read_text().splitlines()[1].split(",")
    assert abs(float(first[1]) - 0.5) < 1e-8


def test_solve_zero_weight_model_zero_outputs(tmp_path):
    path = write_model(tmp_path, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    out = tmp_path / "out"
    assert main(["solve", "--model", path, "--out", str(out)]) == 0
    rows = (out / "gains.csv").read_text().splitlines()[1:]
    values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
    assert np.all(values == 0.0)


def test_solve_explosive_model_exit_3(tmp_path, capsys):
    path = write_model(tmp_path, steps=400, A=3.0, B1=0.5, B2=2.0, C=2.0, D1=0.0,
                       D2=4.0, Q1=1.0, R1=1.0, G1=2.0, Q2=8.0, R2=0.01, G2=8.0,
                       horizon=6.0)
    assert main(["solve", "--model", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "at t=" in err



def test_non_finite_filter_exit_3(tmp_path, capsys):
    # P = 0 and A = 800: the filtered state overflows before T
    path = write_model(tmp_path, steps=200, A=800.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    for command in ("solve", "simulate"):
        out = tmp_path / command
        assert main([command, "--model", path, "--out", str(out), "--paths", "100"]) == 3
        assert "at t=" in capsys.readouterr().err
        assert not out.exists()


def test_euler_overflow_exit_3(tmp_path, capsys):
    # C = 1000 with zero weights: solve passes, the closed-loop
    # Euler state overflows before T
    path = write_model(tmp_path, steps=200, C=1000.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    assert main(["solve", "--model", path, "--out", str(tmp_path / "solve")]) == 0
    for command in ("simulate", "verify"):
        out = tmp_path / command
        assert main([command, "--model", path, "--out", str(out), "--paths", "100"]) == 3
        err = capsys.readouterr().err
        assert "non-finite state on path" in err and "(at t=" in err
        assert not out.exists()


def test_paths_below_two_exit_2(tmp_path, capsys):
    path = write_model(tmp_path)
    assert main(["verify", "--model", path, "--out", str(tmp_path / "o"), "--paths", "1"]) == 2
    assert "paths must be >= 2" in capsys.readouterr().err

def test_simulate_writes_costs(tmp_path):
    path = write_model(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--model", path, "--out", str(out), "--paths", "500"]) == 0
    lines = (out / "costs.csv").read_text().splitlines()
    assert lines[0] == "which,mean,stderr,paths"
    assert lines[1].startswith("J1,") and lines[2].startswith("J2,")
    assert (out / "trajectories.csv").exists()


def test_verify_benchmark_passes(tmp_path):
    path = write_model(tmp_path, steps=100)
    out = tmp_path / "out"
    code = main(["verify", "--model", path, "--out", str(out), "--paths", "3000", "--seed", "11"])
    assert code == 0
    rows = read_report(out)
    assert any(r["check"] == "tower_property" for r in rows)
    assert all(r["pass"] == "true" for r in rows)
    for name in ("perturbations.csv", "grid_search.csv"):
        assert (out / name).exists()


def test_run_benchmark_script(tmp_path):
    # scripts/run_benchmark.py with its default arguments: validate, solve,
    # simulate and verify the standard model, every artifact written
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_benchmark.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name in ("riccati.csv", "gains.csv", "xhat.csv", "trajectories.csv", "costs.csv",
                 "verify_report.csv", "perturbations.csv", "grid_search.csv"):
        assert (tmp_path / name).exists(), name


def test_perturbation_pass_uses_stderr_mult(tmp_path):
    path = write_model(tmp_path)
    out = tmp_path / "out"
    assert main(["verify", "--model", path, "--out", str(out), "--steps", "40", "--paths", "500",
                 "--eps", "1e-6", "--tol", "stderr_mult=0"]) == 4
    with open(out / "perturbations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert any(r["pass"] == "false" for r in rows)
    for r in rows:
        ok = float(r["delta_mean"]) + 0.0 * float(r["delta_stderr"]) >= 0.0
        assert r["pass"] == ("true" if ok else "false")
    notes = {r["check"]: r["note"] for r in read_report(out)}
    stderr_rows = [name for name in notes if name in ("follower_stationarity", "tower_property")
                   or "_optimality_" in name or "_slope_" in name]
    assert len(stderr_rows) == 14
    for name in stderr_rows:
        assert "0 stderr" in notes[name] and "3 stderr" not in notes[name], name


def test_verify_zero_weight_model(tmp_path):
    path = write_model(tmp_path, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    out = tmp_path / "out"
    assert main(["verify", "--model", path, "--out", str(out), "--paths", "500"]) == 0


def test_verify_report_written_on_failure(tmp_path, capsys):
    # an absurdly tight tolerance forces a verification failure; the report
    # must still be produced and exit code 4 returned
    path = write_model(tmp_path, steps=100)
    out = tmp_path / "out"
    code = main(["verify", "--model", path, "--out", str(out), "--paths", "500",
                 "--tol", "drift_coeff=1e-12"])
    assert code == 4
    assert (out / "verify_report.csv").exists()


def test_unknown_tolerance_exit_2(tmp_path, monkeypatch):
    # an unknown name, or a value that is negative or not finite; 0 is valid
    for tol in ("nope=1", "det_tol=-1", "stderr_mult=nan", "dt_coeff=inf"):
        assert parse_fails(tmp_path, monkeypatch, "--tol", tol), tol


def test_reruns_byte_identical(tmp_path):
    path = write_model(tmp_path, steps=80)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["--model", path, "--paths", "800", "--seed", "5"]
    assert main(["verify", *args, "--out", str(out1)]) == 0
    assert main(["verify", *args, "--out", str(out2)]) == 0
    assert read_all(out1) == read_all(out2)


def test_verify_report_independent_of_chunking(tmp_path, monkeypatch):
    # Chunks of 1500 paths: the third straddles the grid search's first 4000
    # paths and the last holds one path.  Against one chunk of all paths,
    # only the two rows of merged per-node moments may move, by rounding.
    path = write_model(tmp_path, steps=40)
    args = ["verify", "--model", path, "--paths", "4501", "--seed", "6"]
    reports = {}
    for chunk in (4501, 1500):
        monkeypatch.setattr(simulate, "CHUNK_PATHS", chunk)
        out = tmp_path / str(chunk)
        assert main([*args, "--out", str(out)]) == 0
        reports[chunk] = read_report(out)
    for one, many in zip(reports[4501], reports[1500], strict=True):
        if one["check"] in ("follower_stationarity", "tower_property"):
            assert (one["check"], one["kind"], one["pass"], one["note"]) == \
                (many["check"], many["kind"], many["pass"], many["note"])
            for col in ("residual", "tolerance"):
                assert float(many[col]) == pytest.approx(float(one[col]), rel=1e-10, abs=0.0)
        else:
            assert one == many
    for name in ("perturbations.csv", "grid_search.csv"):
        assert (tmp_path / "4501" / name).read_bytes() == (tmp_path / "1500" / name).read_bytes()


def test_simulate_independent_of_chunking(tmp_path, monkeypatch):
    # one chunk of 4501 paths against chunks of 1500, the last holding one path
    path = write_model(tmp_path, steps=40, D1=0.3, D2=0.2)
    outs = []
    for chunk in (4501, 1500):
        monkeypatch.setattr(simulate, "CHUNK_PATHS", chunk)
        outs.append(tmp_path / str(chunk))
        assert main(["simulate", "--model", path, "--out", str(outs[-1]), "--paths", "4501", "--seed", "6"]) == 0
    assert read_all(outs[0]) == read_all(outs[1])
    assert len((outs[0] / "trajectories.csv").read_text().splitlines()) == 1 + 10 * 41


def test_verify_memory_does_not_grow_with_paths(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "CHUNK_PATHS", 500)
    path = write_model(tmp_path, steps=40)
    for command in ("verify", "simulate"):
        peaks = []
        for paths in (1000, 1000, 4000):  # a warm-up run, then 2 and 8 chunks
            tracemalloc.start()
            try:
                main([command, "--model", path, "--out", str(tmp_path / f"{command}{paths}"), "--paths", str(paths)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.25 * peaks[1], (command, peaks)


def chunk_peaks(tmp_path, monkeypatch, command):
    """tracemalloc peaks of a command over a warm-up chunk, then 1 and 2 chunks of 500 paths."""
    monkeypatch.setattr(simulate, "CHUNK_PATHS", 500)
    path = write_model(tmp_path, steps=200)
    peaks = []
    for paths in (500, 500, 1000):
        tracemalloc.start()
        try:
            main([command, "--model", path, "--out", str(tmp_path / f"out{len(peaks)}"), "--paths", str(paths)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_simulate_holds_one_chunk_at_a_time(tmp_path, monkeypatch):
    # a chunk is released before the next one is simulated, so a run over
    # two chunks peaks where a run over one does
    peaks = chunk_peaks(tmp_path, monkeypatch, "simulate")
    assert peaks[2] < 1.25 * peaks[1], peaks


def test_verify_holds_one_chunk_at_a_time(tmp_path, monkeypatch):
    # the same for verify, whose chunk also carries its offset and adjoints:
    # 2 chunks peak within 1% of 1 chunk, 26% above it when the previous
    # chunk is still held while the next one is simulated
    peaks = chunk_peaks(tmp_path, monkeypatch, "verify")
    assert peaks[2] < 1.1 * peaks[1], peaks


def test_steps_override_flag(tmp_path):
    path = write_model(tmp_path, steps=100)
    out = tmp_path / "o"
    assert main(["solve", "--model", path, "--out", str(out), "--steps", "64"]) == 0
    assert len((out / "riccati.csv").read_text().splitlines()) == 66  # header + 65 nodes
