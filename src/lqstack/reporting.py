"""Deterministic CSV writers for solver output and verification reports.

Floats are written with shortest round-trip formatting (repr), newlines are
always LF, and a field is quoted only when it holds a comma, a quote or a
line break, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


TRAJECTORY_PATHS = 10  # paths exported to trajectories.csv


def _column(values) -> list[str]:
    """The fields of one column; a float or integer array is formatted in one
    tolist() pass (repr of a Python float is that of the numpy float)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fi":
        return list(map(repr, values.tolist()))
    return [_fmt(v) for v in values]


def write_csv(path, header: list[str], columns) -> None:
    """Write the header, then one row per index of the equally long columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_column, columns)))


def write_riccati_csv(path, times, P, p1, p2) -> None:
    """One row per node: t, P, then both 2x2 leader solutions row-major."""
    header = ["t", "P",
              "PI1_11", "PI1_12", "PI1_21", "PI1_22",
              "PI2_11", "PI2_12", "PI2_21", "PI2_22"]
    pi = [p[:, i, j] for p in (p1, p2) for i in (0, 1) for j in (0, 1)]
    write_csv(path, header, [times, P, *pi])


def write_gains_csv(path, times, lx, lxhat, lhat, f) -> None:
    """One row per node: t, then the two entries of each gain row."""
    header = ["t", "LX_1", "LX_2", "LXHAT_1", "LXHAT_2", "LHAT_1", "LHAT_2", "F_1", "F_2"]
    write_csv(path, header, [times, *(g[:, i] for g in (lx, lxhat, lhat, f) for i in (0, 1))])


def write_xhat_csv(path, times, filter_path, leader_path) -> None:
    header = ["t", "xhat", "theta_hat", "XHAT_1", "XHAT_2"]
    write_csv(path, header, [times, filter_path.xhat[::2], filter_path.theta_hat[::2],
                             leader_path[::2, 0], leader_path[::2, 1]])


def write_trajectories_csv(path, ens, max_paths: int = TRAJECTORY_PATHS) -> None:
    """Node samples of the first max_paths paths of a closed-loop ensemble (subsampled export)."""
    header = ["path_id", "t", "X_1", "X_2", "u1", "u2"]
    nodes = ens.grid.steps + 1
    m = min(ens.m, max_paths)

    def per_path(a):
        """Path 0's nodes, then path 1's, ...; a shared (1-d) control repeats."""
        return np.tile(a, m) if a.ndim == 1 else a[:, :m].T.ravel()

    write_csv(path, header, [np.repeat(np.arange(m), nodes), per_path(ens.grid.times()), per_path(ens.x),
                             per_path(ens.q), per_path(ens.u1), per_path(ens.u2)])


def write_costs_csv(path, estimates) -> None:
    header = ["which", "mean", "stderr", "paths"]
    write_csv(path, header, zip(*([e.which, e.mean, e.stderr, e.paths] for e in estimates)))


@dataclass(frozen=True)
class CheckRow:
    """One line of the verification report."""

    name: str
    kind: str  # "algebraic" | "statistical" | "order"
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def check_row(name: str, kind: str, residual, tolerance, note: str = "") -> CheckRow:
    """A report row that passes when residual <= tolerance; a NaN residual fails."""
    return CheckRow(name=name, kind=kind, residual=float(residual), tolerance=float(tolerance),
                    passed=bool(residual <= tolerance), note=note)


def write_verify_csv(path, rows: list[CheckRow]) -> None:
    header = ["check", "kind", "residual", "tolerance", "pass", "note"]
    write_csv(path, header, zip(*([r.name, r.kind, r.residual, r.tolerance, r.passed, r.note] for r in rows)))


def write_perturbation_csv(path, sweeps, stderr_mult: float) -> None:
    """One row per optimality sweep, direction and eps; pass means delta_mean + stderr_mult * delta_stderr >= 0."""
    header = ["which", "direction", "eps", "delta_mean", "delta_stderr", "pass", "scope"]

    def rows():
        for sweep in sweeps:
            scope = "proven" if sweep.proven_scope else "outside proven scope"
            for c in sweep.curves:
                for i, e in enumerate(c.eps):
                    ok = c.delta_mean[i] + stderr_mult * c.delta_stderr[i] >= 0.0
                    yield [sweep.which, c.name, e, c.delta_mean[i], c.delta_stderr[i], ok, scope]

    write_csv(path, header, zip(*rows()))


def write_grid_csv(path, grid_result) -> None:
    header = ["alpha", "beta", "J1_mean", "J1_stderr"]
    alphas, betas = grid_result.alphas, grid_result.betas
    write_csv(path, header, [np.repeat(alphas, len(betas)), np.tile(betas, len(alphas)),
                             grid_result.cost_mean.ravel(), grid_result.cost_stderr.ravel()])


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
