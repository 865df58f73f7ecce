"""Deterministic filtering ODEs.

With a deterministic observation drift the observation carries no information
about the state noise, so the conditional expectations solve plain ODEs:

  * the follower's filtered pair: the offset estimate integrates backward
    from 0 and does not involve the filtered state, so the system is
    triangular and is solved sequentially (offset first, state second);
  * the leader's filtered augmented state solves a linear 2-dimensional ODE
    forward from (x0, 0).

Each is solved by riccati.rk4_half_grid, the integrator every deterministic
ODE of the equilibrium goes through: RK4 on the node grid with stages at
half-grid points, so a step never crosses a kink of a piecewise-linear input,
returning node values with cubic-Hermite midpoints, which keeps every
consumer of off-node values at the integrator's accuracy.  The follower's
pair reads its coefficients from riccati.follower_coefficients.  The pathwise
offset reconstruction (simulate.backfill_theta) starts from the filtered
offset solved here and keeps its own RK4 loop for the deviation from it, as
that state is a whole ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SolverError
from .model import LQModel
from .riccati import (DeterministicPath, FollowerRiccati, LeaderBlocks, LeaderRiccati, Sigmas,
                      follower_coefficients, rk4_half_grid)


def as_path(u) -> DeterministicPath:
    if isinstance(u, DeterministicPath):
        return u
    return DeterministicPath(nodes=np.asarray(u, dtype=float))


@dataclass(frozen=True)
class FilterPath:
    """Follower's filtered state and filtered offset.

    xhat(0) = x0 exactly; theta_hat(T) = 0 exactly.
    """

    xhat: DeterministicPath
    theta_hat: DeterministicPath


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guards report overflow
def solve_follower_filter(model: LQModel, P: FollowerRiccati, u2hat) -> FilterPath:
    """Solve the follower's filtering pair for a given filtered leader control.

    u2hat is a deterministic time function: a (N+1,) array of node samples
    (piecewise linear off-node) or a DeterministicPath carrying midpoints.
    The offset integrates backward from 0 using only (u2hat, itself); the
    filtered state then integrates forward from x0 using (offset, u2hat).
    Raises SolverError at the first node where either solution is not finite.
    """
    grid = model.grid
    u2_half = as_path(u2hat).half_values()
    fol = follower_coefficients(model, P)
    theta_self, theta_u2 = fol.theta_self, fol.theta_u2

    def dtheta_dtau(j, val):
        return theta_self[j] * val + theta_u2[j] * u2_half[j]

    theta = rk4_half_grid(dtheta_dtau, 0.0, grid.dt, grid.steps, backward=True,
                          fail=partial(SolverError, "follower's filtered offset is not finite"))
    theta_half = theta.half_values()

    # The follower's control enters the state drift as B1 u1.
    drift_x = model.nodes("A", 2) - fol.drift[0]
    drift_th = -fol.drift[1]
    drift_u2 = model.nodes("B2", 2) - fol.drift[2]

    def dxhat_dt(j, val):
        return drift_x[j] * val + drift_th[j] * theta_half[j] + drift_u2[j] * u2_half[j]

    xhat = rk4_half_grid(dxhat_dt, float(model.x0), grid.dt, grid.steps,
                         fail=partial(SolverError, "follower's filtered state is not finite"))
    return FilterPath(xhat=xhat, theta_hat=theta)


def leader_xhat_matrix(blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas) -> np.ndarray:
    """(2N+1, 2, 2) drift matrix of the filtered augmented state ODE."""
    out = blocks.a1 + blocks.a2e
    out += blocks.bb12 @ (leader.p1_fine + leader.p2_fine)
    out += blocks.cc @ (sigmas.s2 + sigmas.s3)
    out -= blocks.e13 @ sigmas.s1
    return out


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guards report overflow
def solve_leader_xhat(model: LQModel, blocks: LeaderBlocks, leader: LeaderRiccati,
                      sigmas: Sigmas) -> DeterministicPath:
    """Integrate the filtered augmented state forward from (x0, 0) by RK4.

    The path's values are 2-vectors (filtered state, filtered
    adjoint-forward component); nodes[0] = (x0, 0) exactly.  Raises
    SolverError at the first node where the state is not finite.
    """
    K = leader_xhat_matrix(blocks, leader, sigmas)
    return rk4_half_grid(lambda j, y: K[j] @ y, np.array([model.x0, 0.0]), model.grid.dt,
                         model.grid.steps, fail=partial(SolverError, "filtered leader state is not finite"))
