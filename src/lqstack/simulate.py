"""Monte-Carlo layer: noise streams, Euler-Maruyama, pathwise backward offset,
and the exponential observation-density process.

Reproducibility contract: every sampled quantity is a pure function of
(master seed, path index, step), independent of path batching or execution
order.  Each path owns a counter-based stream (Philox keyed by a seed
sequence spawned from (seed, path)); within a stream the state increments are
drawn first, then the observation increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .filtering import as_path
from .model import LQModel, TimeGrid
from .riccati import DeterministicPath, FollowerRiccati


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments for m paths: dw drives the state, dwbar the observation.

    Both arrays have shape (m, steps) with Normal(0, dt) entries.
    """

    seed: int
    grid: TimeGrid
    dw: np.ndarray
    dwbar: np.ndarray

    @property
    def m(self) -> int:
        return self.dw.shape[0]


def path_stream(seed: int, path: int) -> np.random.Generator:
    """The RNG stream owned by one path: a pure function of (seed, path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(path,))))


def generate_noise(seed: int, m: int, grid: TimeGrid, first_path: int = 0) -> NoiseBundle:
    """Draw the increment table for paths first_path .. first_path + m - 1.

    Identical (seed, grid, path index) always reproduce the same rows, so a
    smaller bundle is a prefix of a larger one and chunked runs reproduce
    monolithic ones exactly (streams are keyed per path, not per batch).
    """
    if m < 1:
        raise ValueError(f"path count must be >= 1, got {m}")
    n = grid.steps
    root = np.sqrt(grid.dt)
    dw = np.empty((m, n))
    dwbar = np.empty((m, n))
    for i in range(m):
        gen = path_stream(seed, first_path + i)
        dw[i] = gen.standard_normal(n)
        dwbar[i] = gen.standard_normal(n)
    dw *= root
    dwbar *= root
    return NoiseBundle(seed=seed, grid=grid, dw=dw, dwbar=dwbar)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulated paths at the grid nodes.

    x holds the scalar game state (closed loop: first augmented component);
    q holds the second augmented component for closed-loop runs, else None.
    Controls are node-sampled, either shared across paths (1-d) or per path
    (2-d).  The shared filtered path is identical for every path.
    """

    grid: TimeGrid
    x: np.ndarray
    q: np.ndarray | None
    u1: np.ndarray
    u2: np.ndarray
    noise: NoiseBundle
    xhat: DeterministicPath | None = None

    @property
    def m(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Node-sampled coefficient data of the equilibrium closed-loop dynamics.

    dX = [drift_x X + drift_xhat Xhat] dt + [diff_x X + diff_xhat Xhat] dW,
    with the leader control  u2 = lx . X + lxhat . Xhat  and the follower
    control  u1 = f . Xhat  recorded along the way.
    """

    grid: TimeGrid
    drift_x: np.ndarray
    drift_xhat: np.ndarray
    diff_x: np.ndarray
    diff_xhat: np.ndarray
    lx: np.ndarray
    lxhat: np.ndarray
    f: np.ndarray
    xhat: DeterministicPath


def _check_finite(states: np.ndarray) -> None:
    if np.all(np.isfinite(states)):
        return
    flat = ~np.isfinite(states)
    while flat.ndim > 2:
        flat = flat.any(axis=-1)
    path, step = np.argwhere(flat)[0]
    raise NonFiniteState(int(path), int(step))


def simulate_closed_loop(system: ClosedLoopSystem, noise: NoiseBundle) -> TrajectoryEnsemble:
    """Euler-Maruyama on the augmented closed-loop dynamics.

    Left-point coefficients; per step k:
    X_{k+1} = X_k + [drift_x(t_k) X_k + drift_xhat(t_k) Xhat_k] dt + [...] dW_k.
    """
    grid = system.grid
    n = grid.steps
    dt = grid.dt
    m = noise.m
    xh = system.xhat.nodes

    states = np.empty((m, n + 1, 2))
    u2 = np.empty((m, n + 1))
    u1 = np.empty(n + 1)
    X = np.broadcast_to(xh[0], (m, 2)).copy()
    states[:, 0] = X
    for k in range(n):
        u1[k] = system.f[k] @ xh[k]
        u2[:, k] = X @ system.lx[k] + system.lxhat[k] @ xh[k]
        drift = X @ system.drift_x[k].T + system.drift_xhat[k] @ xh[k]
        diff = X @ system.diff_x[k].T + system.diff_xhat[k] @ xh[k]
        X = X + dt * drift + diff * noise.dw[:, k, None]
        states[:, k + 1] = X
    u1[n] = system.f[n] @ xh[n]
    u2[:, n] = X @ system.lx[n] + system.lxhat[n] @ xh[n]
    _check_finite(states)
    return TrajectoryEnsemble(
        grid=grid, x=states[:, :, 0].copy(), q=states[:, :, 1].copy(),
        u1=u1, u2=u2, noise=noise, xhat=system.xhat,
    )


def _control_at(u: np.ndarray, k: int):
    return u[:, k] if u.ndim == 2 else u[k]


def simulate_open_loop(model: LQModel, u1, u2, noise: NoiseBundle) -> TrajectoryEnsemble:
    """Euler-Maruyama on the raw scalar state equation for given controls.

    Controls are node-sampled arrays, either deterministic (N+1,) or per-path
    (m, N+1) aligned with the noise bundle.
    """
    grid = model.grid
    n = grid.steps
    dt = grid.dt
    m = noise.m
    u1 = u1.nodes if isinstance(u1, DeterministicPath) else np.asarray(u1, dtype=float)
    u2 = u2.nodes if isinstance(u2, DeterministicPath) else np.asarray(u2, dtype=float)

    A = model.nodes("A")
    B1 = model.nodes("B1")
    B2 = model.nodes("B2")
    C = model.nodes("C")
    D1 = model.nodes("D1")
    D2 = model.nodes("D2")

    x = np.empty((m, n + 1))
    x[:, 0] = model.x0
    xk = x[:, 0].copy()
    for k in range(n):
        u1k = _control_at(u1, k)
        u2k = _control_at(u2, k)
        drift = A[k] * xk + B1[k] * u1k + B2[k] * u2k
        diff = C[k] * xk + D1[k] * u1k + D2[k] * u2k
        xk = xk + dt * drift + diff * noise.dw[:, k]
        x[:, k + 1] = xk
    _check_finite(x)
    return TrajectoryEnsemble(grid=grid, x=x, q=None, u1=u1, u2=u2, noise=noise)


def backfill_theta(model: LQModel, P: FollowerRiccati, x: np.ndarray, u2,
                   xhat: DeterministicPath, u2hat) -> np.ndarray:
    """Pathwise backward reconstruction of the follower's adjoint offset.

    Integrates the offset ODE backward from 0 by RK4 along each realized
    path, reading the path and controls piecewise-linearly between nodes.  A
    filtered companion offset is advanced jointly with the same stage
    structure, so a path that coincides with its filter reproduces the
    filtered offset to rounding.  Used for residual verification only; the
    reconstruction anticipates the path and is never fed back into controls.
    """
    grid = model.grid
    n = grid.steps
    dt = grid.dt

    def half_rows(arr, rows):
        """(rows, 2N+1) node+midpoint samples; paths interpolate linearly,
        deterministic inputs carry their own midpoints."""
        if isinstance(arr, DeterministicPath):
            return np.broadcast_to(arr.half_values(), (rows, 2 * n + 1))
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        out = np.empty((arr.shape[0], 2 * n + 1))
        out[:, ::2] = arr
        out[:, 1::2] = 0.5 * (arr[:, :-1] + arr[:, 1:])
        if arr.shape[0] != rows:
            out = np.broadcast_to(out, (rows, 2 * n + 1))
        return out

    if isinstance(x, DeterministicPath):
        m = 1
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        m = x.shape[0]
    u2hat = as_path(u2hat)

    # Coefficients on the half grid, where P is stored.
    A = model.nodes("A", 2)
    B1 = model.nodes("B1", 2)
    B2 = model.nodes("B2", 2)
    C = model.nodes("C", 2)
    D1 = model.nodes("D1", 2)
    D2 = model.nodes("D2", 2)
    p = P.fine
    si = 1.0 / (D1 * D1 * p + model.nodes("R1", 2))
    bc = B1 + D1 * C

    coef_gap = bc * bc * si * p * p
    coef_u2 = (B2 + D2 * C) * p
    coef_u2h = -bc * si * D1 * D2 * p * p
    coef_th = -bc * si * B1 * p
    coef_self = A

    # Path and control samples on the half grid j = 0..2N, matching the RK4
    # stages of a dt step.
    gap = half_rows(x, m) - xhat.half_values()[None, :]
    u2_h = half_rows(u2, m)
    u2hat_h = u2hat.half_values()

    theta = np.empty((m, n + 1))
    theta[:, n] = 0.0
    th = np.zeros(m)
    aux = 0.0  # filtered companion offset

    def rhs(j, th_val, aux_val):
        d_th = (coef_gap[j] * gap[:, j] + coef_u2[j] * u2_h[:, j] + coef_u2h[j] * u2hat_h[j]
                + coef_th[j] * aux_val + coef_self[j] * th_val)
        d_aux = (coef_u2[j] * u2hat_h[j] + coef_u2h[j] * u2hat_h[j]
                 + coef_th[j] * aux_val + coef_self[j] * aux_val)
        return d_th, d_aux

    for i in range(n):
        j0 = 2 * (n - i)
        k1, a1 = rhs(j0, th, aux)
        k2, a2 = rhs(j0 - 1, th + 0.5 * dt * k1, aux + 0.5 * dt * a1)
        k3, a3 = rhs(j0 - 1, th + 0.5 * dt * k2, aux + 0.5 * dt * a2)
        k4, a4 = rhs(j0 - 2, th + dt * k3, aux + dt * a3)
        th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        aux = aux + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        theta[:, n - 1 - i] = th
    return theta


@dataclass(frozen=True)
class DensityPath:
    """Exponential observation-density process, one positive path per row.

    z[:, 0] = 1 exactly; every entry is strictly positive by construction.
    """

    grid: TimeGrid
    z: np.ndarray


def density_process(model: LQModel, noise: NoiseBundle) -> DensityPath:
    """Exact exponential-martingale discretization of the density process.

    z_k = exp(sum_{j<k} h(t_j) dwbar_j - 1/2 sum_{j<k} h(t_j)^2 dt), the
    left-point (Ito) quadrature in the exponent; with Gaussian increments the
    discrete mean is exactly one at every node.
    """
    grid = model.grid
    h = model.nodes("h")[:-1]
    increments = h[None, :] * noise.dwbar - 0.5 * (h * h)[None, :] * grid.dt
    log_z = np.concatenate([np.zeros((noise.m, 1)), np.cumsum(increments, axis=1)], axis=1)
    z = np.exp(log_z)
    z[:, 0] = 1.0
    return DensityPath(grid=grid, z=z)
