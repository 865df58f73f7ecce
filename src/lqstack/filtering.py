"""Deterministic filtering ODEs.

With a deterministic observation drift the observation carries no information
about the state noise, so the conditional expectations solve plain ODEs:

  * the follower's filtered pair: the offset estimate integrates backward
    from 0 and does not involve the filtered state, so the system is
    triangular and is solved sequentially (offset first, state second);
  * the leader's filtered augmented state solves a linear 2-dimensional ODE
    forward from (x0, 0).

All solves are classical RK4 on the node grid with stages at half-grid
points, so a step never crosses a kink of a piecewise-linear input, and all
solutions record cubic-Hermite midpoint values (from node values and node
slopes), which keeps every consumer of off-node values at the integrator's
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .model import LQModel
from .riccati import FollowerRiccati, LeaderBlocks, LeaderRiccati, Sigmas


@dataclass(frozen=True)
class DeterministicPath:
    """Scalar time path on the node grid with optional midpoint samples."""

    nodes: np.ndarray
    mids: np.ndarray | None = None

    def at_half(self, j: int) -> float:
        """Value at half-grid point j (t = j * dt/2)."""
        if j % 2 == 0:
            return float(self.nodes[j // 2])
        k = (j - 1) // 2
        if self.mids is not None:
            return float(self.mids[k])
        return 0.5 * float(self.nodes[k] + self.nodes[k + 1])

    def half_values(self) -> np.ndarray:
        """Dense (2N+1,) array of node and midpoint values."""
        n = len(self.nodes) - 1
        out = np.empty(2 * n + 1)
        out[::2] = self.nodes
        out[1::2] = self.mids if self.mids is not None else 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return out


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
    Both are node-grid RK4 with stages at half points, so a step never
    crosses a kink of the piecewise-linear input.  Raises SolverError at the
    first node where either solution is not finite.
    """
    grid = model.grid
    n = grid.steps
    dt = grid.dt
    u2h = as_path(u2hat)

    # Coefficient scalars on the half grid, where P is stored.
    A = model.nodes("A", 2)
    B1 = model.nodes("B1", 2)
    B2 = model.nodes("B2", 2)
    C = model.nodes("C", 2)
    D1 = model.nodes("D1", 2)
    D2 = model.nodes("D2", 2)
    p = P.fine
    si = 1.0 / (D1 * D1 * p + model.nodes("R1", 2))
    bc = B1 + D1 * C

    # theta_hat drift pieces: d(theta)/dt = decay * theta + force * u2hat.
    decay = bc * si * B1 * p - A
    force = bc * si * D1 * D2 * p * p - (B2 + D2 * C) * p
    u2_half = u2h.half_values()

    def dtheta_dtau(j, val):
        # Reversed time: d/dtau = -d/dt.
        return -(decay[j] * val + force[j] * u2_half[j])

    theta = np.empty(n + 1)
    theta_slope = np.empty(n + 1)  # d(theta)/dtau at the nodes
    theta[n] = 0.0
    th = 0.0
    for i in range(n):
        j0 = 2 * (n - i)
        k1 = dtheta_dtau(j0, th)
        theta_slope[n - i] = k1
        k2 = dtheta_dtau(j0 - 1, th + 0.5 * dt * k1)
        k3 = dtheta_dtau(j0 - 1, th + 0.5 * dt * k2)
        k4 = dtheta_dtau(j0 - 2, th + dt * k3)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(th):
            raise SolverError("follower's filtered offset is not finite", (n - 1 - i) * dt)
        theta[n - 1 - i] = th
    theta_slope[0] = dtheta_dtau(0, th)
    # Hermite midpoints; forward slope is -d/dtau.
    theta_mids = 0.5 * (theta[:-1] + theta[1:]) - (dt / 8.0) * (theta_slope[:-1] - theta_slope[1:])
    theta_path = DeterministicPath(nodes=theta, mids=theta_mids)
    theta_half = theta_path.half_values()

    # Forward RK4 for xhat on the node grid (stages at half points).
    drift_x = A - B1 * si * bc * p
    drift_th = -si * B1 * B1
    drift_u2 = B2 - B1 * si * D1 * D2 * p

    def dxhat_dt(j, val):
        return drift_x[j] * val + drift_th[j] * theta_half[j] + drift_u2[j] * u2_half[j]

    xhat = np.empty(n + 1)
    xhat[0] = model.x0
    f_nodes = np.empty(n + 1)
    x = float(model.x0)
    for k in range(n):
        j0 = 2 * k
        k1 = dxhat_dt(j0, x)
        f_nodes[k] = k1
        k2 = dxhat_dt(j0 + 1, x + 0.5 * dt * k1)
        k3 = dxhat_dt(j0 + 1, x + 0.5 * dt * k2)
        k4 = dxhat_dt(j0 + 2, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x):
            raise SolverError("follower's filtered state is not finite", (k + 1) * dt)
        xhat[k + 1] = x
    f_nodes[n] = dxhat_dt(2 * n, x)
    mids = 0.5 * (xhat[:-1] + xhat[1:]) + (dt / 8.0) * (f_nodes[:-1] - f_nodes[1:])
    return FilterPath(xhat=DeterministicPath(nodes=xhat, mids=mids), theta_hat=theta_path)


@dataclass(frozen=True)
class FilteredLeaderPath:
    """Filtered augmented leader state on the node grid, with midpoints.

    nodes[k] is the 2-vector (filtered state, filtered adjoint-forward
    component) at t_k; nodes[0] = (x0, 0) exactly.
    """

    nodes: np.ndarray
    mids: np.ndarray


def leader_xhat_matrix(blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas) -> np.ndarray:
    """(2N+1, 2, 2) drift matrix of the filtered augmented state ODE."""
    q = blocks.half_points
    out = blocks.a1[q] + blocks.a2e[q]
    out += blocks.bb12[q] @ (leader.p1_fine + leader.p2_fine)
    out += blocks.cc[q] @ (sigmas.s2 + sigmas.s3)
    out -= blocks.e13[q] @ sigmas.s1
    return out


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guards report overflow
def solve_leader_xhat(model: LQModel, blocks: LeaderBlocks, leader: LeaderRiccati,
                      sigmas: Sigmas) -> FilteredLeaderPath:
    """Integrate the filtered augmented state forward from (x0, 0) by RK4.

    Raises SolverError at the first node where the state is not finite.
    """
    grid = model.grid
    n = grid.steps
    dt = grid.dt
    K = leader_xhat_matrix(blocks, leader, sigmas)

    nodes = np.empty((n + 1, 2))
    nodes[0] = (model.x0, 0.0)
    f_nodes = np.empty((n + 1, 2))
    y = nodes[0].copy()
    for k in range(n):
        j0 = 2 * k
        k1 = K[j0] @ y
        f_nodes[k] = k1
        k2 = K[j0 + 1] @ (y + 0.5 * dt * k1)
        k3 = K[j0 + 1] @ (y + 0.5 * dt * k2)
        k4 = K[j0 + 2] @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise SolverError("filtered leader state is not finite", (k + 1) * dt)
        nodes[k + 1] = y
    f_nodes[n] = K[2 * n] @ y
    mids = 0.5 * (nodes[:-1] + nodes[1:]) + (dt / 8.0) * (f_nodes[:-1] - f_nodes[1:])
    return FilteredLeaderPath(nodes=nodes, mids=mids)
