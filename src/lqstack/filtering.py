"""Deterministic filtering ODEs.

With a deterministic observation drift the observation carries no information
about the state noise, so the conditional expectations solve plain ODEs:

  * the follower's filtered pair: the offset estimate integrates backward
    from 0 and does not involve the filtered state, so the system is
    triangular and is solved sequentially (offset first, state second);
  * the leader's filtered augmented state, the closed loop's conditional
    mean, solves a linear 2-dimensional ODE forward from (x0, 0) whose drift
    is the closed loop's drift_x + drift_xhat.

equilibrium.solve_equilibrium solves both once per equilibrium; the
follower's pair is solved again only for another filtered leader control.

Each is solved by riccati.rk4_half_grid, the integrator every deterministic
ODE of the equilibrium goes through: RK4 on the node grid with stages at
half-grid points, so a step never crosses a kink of a piecewise-linear input.
Each state is stepped in float arithmetic, a scalar as a float and the
leader's 2-vector as a tuple of two floats, its drift read as float lists.
Each path is a (2N+1,) or (2N+1, 2) half-grid array of node values and
cubic-Hermite midpoints, which keeps every consumer of off-node values at
the integrator's accuracy; a path input given at the nodes only is read
linearly between them (model.lift).  The follower's pair reads its
coefficients from the follower's solve (riccati.FollowerRiccati), where
they are evaluated once.
The follower's adapted offset is the filtered offset solved here plus
lambda . (X - Xhat), whose gain lambda (simulate.backfill_theta) is one more
backward ODE through the same integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SolverError
from .model import LQModel, lift
from .riccati import FollowerRiccati, rk4_half_grid


@dataclass(frozen=True)
class FilterPath:
    """Follower's filtered state and filtered offset, (2N+1,) half-grid arrays.

    xhat(0) = x0 exactly; theta_hat(T) = 0 exactly.
    """

    xhat: np.ndarray
    theta_hat: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guards report overflow
def solve_follower_filter(model: LQModel, P: FollowerRiccati, u2hat) -> FilterPath:
    """Solve the follower's filtering pair for a given filtered leader control.

    u2hat is a deterministic time function: (N+1,) node samples (read
    linearly between nodes) or (2N+1,) half-grid samples.
    The offset integrates backward from 0 using only (u2hat, itself); the
    filtered state then integrates forward from x0 using (offset, u2hat).
    Raises SolverError at the first node where either solution is not finite.
    """
    grid = model.grid
    u2_half = lift(u2hat, grid.steps).tolist()
    theta_self, theta_u2 = P.theta_self.tolist(), P.theta_u2.tolist()

    def dtheta_dtau(j, val):
        return theta_self[j] * val + theta_u2[j] * u2_half[j]

    theta = rk4_half_grid(dtheta_dtau, 0.0, grid.dt, grid.steps, backward=True,
                          fail=partial(SolverError, "follower's filtered offset is not finite"))
    theta_half = theta.tolist()

    # The follower's control enters the state drift as B1 u1.
    drift_x = (model.nodes("A", 2) - P.drift[0]).tolist()
    drift_th = (-P.drift[1]).tolist()
    drift_u2 = (model.nodes("B2", 2) - P.drift[2]).tolist()

    def dxhat_dt(j, val):
        return drift_x[j] * val + drift_th[j] * theta_half[j] + drift_u2[j] * u2_half[j]

    xhat = rk4_half_grid(dxhat_dt, float(model.x0), grid.dt, grid.steps,
                         fail=partial(SolverError, "follower's filtered state is not finite"))
    return FilterPath(xhat=xhat, theta_hat=theta)


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guards report overflow
def solve_leader_xhat(model: LQModel, drift: np.ndarray) -> np.ndarray:
    """Integrate the filtered augmented state forward from (x0, 0) by RK4.

    drift is the (2N+1, 2, 2) half-grid drift matrix of the state's ODE, the
    closed loop's drift_x + drift_xhat.  Returns the (2N+1, 2) half-grid
    path of 2-vectors (filtered state, filtered adjoint-forward component);
    its row 0 is (x0, 0) exactly.  Raises SolverError at the first node
    where the state is not finite.
    """
    d00, d01, d10, d11 = drift.reshape(-1, 4).T.tolist()
    return rk4_half_grid(lambda j, y: (d00[j] * y[0] + d01[j] * y[1], d10[j] * y[0] + d11[j] * y[1]),
                         (float(model.x0), 0.0), model.grid.dt, model.grid.steps,
                         fail=partial(SolverError, "filtered leader state is not finite"))
