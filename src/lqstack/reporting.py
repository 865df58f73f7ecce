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


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_riccati_csv(path, times, P, p1, p2) -> None:
    """One row per node: t, P, then both 2x2 leader solutions row-major."""
    header = ["t", "P",
              "PI1_11", "PI1_12", "PI1_21", "PI1_22",
              "PI2_11", "PI2_12", "PI2_21", "PI2_22"]
    rows = (
        [times[k], P[k],
         p1[k, 0, 0], p1[k, 0, 1], p1[k, 1, 0], p1[k, 1, 1],
         p2[k, 0, 0], p2[k, 0, 1], p2[k, 1, 0], p2[k, 1, 1]]
        for k in range(len(times))
    )
    write_csv(path, header, rows)


def write_gains_csv(path, times, gains) -> None:
    header = ["t", "LX_1", "LX_2", "LXHAT_1", "LXHAT_2", "LHAT_1", "LHAT_2", "F_1", "F_2"]
    lx = gains.lx_nodes
    lxh = gains.lxhat_nodes
    lh = gains.lhat_nodes
    f = gains.f_nodes
    rows = (
        [times[k], lx[k, 0], lx[k, 1], lxh[k, 0], lxh[k, 1], lh[k, 0], lh[k, 1], f[k, 0], f[k, 1]]
        for k in range(len(times))
    )
    write_csv(path, header, rows)


def write_xhat_csv(path, times, filter_path, leader_path) -> None:
    header = ["t", "xhat", "theta_hat", "XHAT_1", "XHAT_2"]
    rows = (
        [times[k], filter_path.xhat.nodes[k], filter_path.theta_hat.nodes[k],
         leader_path.nodes[k, 0], leader_path.nodes[k, 1]]
        for k in range(len(times))
    )
    write_csv(path, header, rows)


def write_trajectories_csv(path, ens, max_paths: int = TRAJECTORY_PATHS) -> None:
    """Node samples of the first max_paths paths (subsampled export)."""
    header = ["path_id", "t", "X_1", "X_2", "u1", "u2"]
    times = ens.grid.times()
    n = ens.grid.steps
    m = min(ens.m, max_paths)

    def rows():
        for i in range(m):
            for k in range(n + 1):
                u1 = ens.u1[k] if ens.u1.ndim == 1 else ens.u1[i, k]
                u2 = ens.u2[k] if ens.u2.ndim == 1 else ens.u2[i, k]
                q = ens.q[i, k] if ens.q is not None else 0.0
                yield [i, times[k], ens.x[i, k], q, u1, u2]

    write_csv(path, header, rows())


def write_costs_csv(path, estimates) -> None:
    header = ["which", "mean", "stderr", "paths"]
    rows = ([e.which, e.mean, e.stderr, e.paths] for e in estimates)
    write_csv(path, header, rows)


@dataclass(frozen=True)
class CheckRow:
    """One line of the verification report."""

    name: str
    kind: str  # "algebraic" | "statistical" | "order"
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def write_verify_csv(path, rows: list[CheckRow]) -> None:
    header = ["check", "kind", "residual", "tolerance", "pass", "note"]
    write_csv(path, header, ([r.name, r.kind, r.residual, r.tolerance, r.passed, r.note] for r in rows))


def write_perturbation_csv(path, reports, stderr_mult: float) -> None:
    """One row per direction and eps; pass means delta_mean + stderr_mult * delta_stderr >= 0."""
    header = ["which", "direction", "eps", "delta_mean", "delta_stderr", "pass", "scope"]

    def rows():
        for rep in reports:
            scope = "proven" if rep.proven_scope else "outside proven scope"
            for c in rep.curves:
                for i, e in enumerate(c.eps):
                    ok = c.delta_mean[i] + stderr_mult * c.delta_stderr[i] >= 0.0
                    yield [rep.which, c.name, e, c.delta_mean[i], c.delta_stderr[i], ok, scope]

    write_csv(path, header, rows())


def write_grid_csv(path, grid_result) -> None:
    header = ["alpha", "beta", "J1_mean", "J1_stderr"]

    def rows():
        for i, a in enumerate(grid_result.alphas):
            for j, b in enumerate(grid_result.betas):
                yield [a, b, grid_result.cost_mean[i, j], grid_result.cost_stderr[i, j]]

    write_csv(path, header, rows())


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
