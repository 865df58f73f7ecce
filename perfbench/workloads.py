"""Workload inputs and correctness gates of the lqstack benchmark.

A workload turns a seed into problem files plus the CLI argument lists that
run them.  One *operation* is one CLI command; the operations of a workload
together form its timed section.  Each operation has a gate that decides
from the command's exit code and its output files whether it succeeded.

Sizes are fixed per workload (``SIZES``); tests pass smaller ones.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Standard model of scripts/run_benchmark.py (the ROADMAP's headline model).
STANDARD = {
    "A": 0.1, "B1": 1.0, "B2": 1.0, "C": 0.2, "D1": 0.0, "D2": 0.0, "h": 1.0,
    "Q1": 1.0, "R1": 1.0, "Q2": 1.0, "R2": 1.0, "G1": 1.0, "G2": 1.0,
    "x0": 1.0, "T": 1.0, "steps": 200,
}

SIZES = {
    "verify-std": {"steps": 200, "paths": 20000},
    "solve-sweep": {"steps": 1600, "models": 8},
    "simulate-wide": {"steps": 1600, "paths": 20000},
}

# Array coefficients of the time-varying solve-sweep models.
MODULATED = ("A", "R2", "B1", "D2")


def random_model(rng: np.random.Generator, steps: int, time_varying: bool) -> dict:
    """Problem dict drawn within the ranges of tests/conftest.random_admissible_model.

    D1 and D2 get a magnitude of at least 0.1, so the diffusion-control
    terms are always active.  With time_varying, A, R2, B1 and D2 become
    node arrays multiplied by 1 + 0.3 sin(2 pi t).
    """
    def signed(lo, hi):
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))

    model = {
        "A": float(rng.uniform(-1.0, 1.0)),
        "B1": float(rng.uniform(0.3, 1.5)),
        "B2": float(rng.uniform(0.3, 1.5)),
        "C": float(rng.uniform(-0.8, 0.8)),
        "D1": signed(0.1, 0.6),
        "D2": signed(0.1, 0.6),
        "h": 1.0,
        "Q1": float(rng.uniform(0.0, 2.0)),
        "R1": float(rng.uniform(0.3, 2.0)),
        "Q2": float(rng.uniform(0.0, 2.0)),
        "R2": float(rng.uniform(0.3, 2.0)),
        "G1": float(rng.uniform(0.0, 2.0)),
        "G2": float(rng.uniform(0.0, 2.0)),
        "x0": float(rng.uniform(-1.5, 1.5)),
        "T": 1.0,
        "steps": steps,
    }
    if time_varying:
        t = np.linspace(0.0, model["T"], steps + 1)
        factor = 1.0 + 0.3 * np.sin(2.0 * np.pi * t)
        for key in MODULATED:
            model[key] = (model[key] * factor).tolist()
    return model


def make_plan(workload: str, seed: int, workdir: Path, sizes: dict | None = None) -> dict:
    """Write the workload's problem files under workdir and return its plan.

    The plan is JSON-serialisable: the problem files to load in set-up and
    one entry per operation with its CLI argv and the gate to apply.  The
    seed is the only source of randomness: it draws the solve-sweep models
    and the Monte-Carlo --seed handed to the CLI.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(SIZES)}")
    sizes = {**SIZES[workload], **(sizes or {})}
    rng = np.random.default_rng(seed)
    mc_seed = int(rng.integers(0, 2**31 - 1))
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def write(name: str, model: dict) -> str:
        path = inputs / name
        path.write_text(json.dumps(model))
        return str(path)

    ops = []
    if workload == "solve-sweep":
        for i in range(sizes["models"]):
            model = random_model(rng, sizes["steps"], time_varying=(i % 2 == 1))
            path = write(f"model_{i}.json", model)
            out = str(workdir / f"out_{i}")
            ops.append({"argv": ["solve", "--model", path, "--out", out], "model": path, "gate": "solve",
                        "out": out, "expect": {k: model[k] for k in ("G1", "G2", "x0")}})
    else:
        model = dict(STANDARD, steps=sizes["steps"])
        if workload == "simulate-wide":
            model.update(D1=0.3, D2=0.2)
        path = write("model.json", model)
        out = str(workdir / "out")
        command = "verify" if workload == "verify-std" else "simulate"
        ops.append({"argv": [command, "--model", path, "--out", out, "--paths", str(sizes["paths"]),
                             "--seed", str(mc_seed)],
                    "model": path, "gate": command, "out": out, "expect": {"paths": sizes["paths"]}})
    return {"workload": workload, "seed": seed, "mc_seed": mc_seed, "sizes": sizes,
            "models": [op["model"] for op in ops], "ops": ops}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _all_finite(rows: list[dict]) -> bool:
    return all(math.isfinite(float(v)) for row in rows for v in row.values())


def gate(op: dict, code: int) -> str | None:
    """None when the operation succeeded, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    out = Path(op["out"])
    expect = op["expect"]
    if op["gate"] == "verify":
        failing = [r["check"] for r in _rows(out / "verify_report.csv") if r["pass"] != "true"]
        return f"failing checks: {', '.join(failing)}" if failing else None
    if op["gate"] == "simulate":
        for row in _rows(out / "costs.csv"):
            if not (math.isfinite(float(row["mean"])) and math.isfinite(float(row["stderr"]))):
                return f"non-finite {row['which']}"
            if int(row["paths"]) != expect["paths"]:
                return f"{row['which']} over {row['paths']} paths, expected {expect['paths']}"
        return None
    # solve: finite artifacts and bit-exact terminal / initial data.
    tables = {name: _rows(out / f"{name}.csv") for name in ("riccati", "gains", "xhat")}
    for name, rows in tables.items():
        if not _all_finite(rows):
            return f"non-finite value in {name}.csv"
    last = {k: float(v) for k, v in tables["riccati"][-1].items()}
    first = {k: float(v) for k, v in tables["xhat"][0].items()}
    exact = {
        "P(T)": (last["P"], expect["G1"]),
        "PI1_11(T)": (last["PI1_11"], expect["G2"]),
        **{f"{k}(T)": (last[k], 0.0) for k in ("PI1_12", "PI1_21", "PI1_22",
                                               "PI2_11", "PI2_12", "PI2_21", "PI2_22")},
        "xhat(0)": (first["xhat"], expect["x0"]),
        "XHAT_1(0)": (first["XHAT_1"], expect["x0"]),
        "XHAT_2(0)": (first["XHAT_2"], 0.0),
    }
    wrong = [name for name, (got, want) in exact.items() if got != want]
    return f"not bit-exact: {', '.join(wrong)}" if wrong else None
