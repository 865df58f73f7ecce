import json
from pathlib import Path

import numpy as np

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


def test_validate_ok(tmp_path, capsys):
    path = write_model(tmp_path)
    assert main(["validate", "--model", path]) == 0
    out = capsys.readouterr().out
    for tag in ("(H1) PASS", "(H2) PASS", "(H4) PASS", "(H3) PASS"):
        assert tag in out


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


def test_bad_eps_exit_2(tmp_path):
    path = write_model(tmp_path)
    assert main(["verify", "--model", path, "--eps", "0.1,zero"]) == 2
    assert main(["verify", "--model", path, "--eps", "0.0"]) == 2


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
    lines = (out / "verify_report.csv").read_text().splitlines()
    header = lines[0].split(",")
    pass_col = header.index("pass")
    rows = [line.split(",") for line in lines[1:]]
    assert any(r[0] == "tower_property" for r in rows)
    assert all(r[pass_col] == "true" for r in rows)
    for name in ("perturbations.csv", "grid_search.csv"):
        assert (out / name).exists()


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


def test_unknown_tolerance_exit_2(tmp_path):
    path = write_model(tmp_path)
    assert main(["verify", "--model", path, "--tol", "nope=1"]) == 2


def test_reruns_byte_identical(tmp_path):
    path = write_model(tmp_path, steps=80)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["--model", path, "--paths", "800", "--seed", "5"]
    assert main(["verify", *args, "--out", str(out1)]) == 0
    assert main(["verify", *args, "--out", str(out2)]) == 0
    assert read_all(out1) == read_all(out2)


def test_steps_override_flag(tmp_path):
    path = write_model(tmp_path, steps=100)
    out = tmp_path / "o"
    assert main(["solve", "--model", path, "--out", str(out), "--steps", "64"]) == 0
    assert len((out / "riccati.csv").read_text().splitlines()) == 66  # header + 65 nodes
