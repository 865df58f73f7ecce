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
from functools import partial

import numpy as np

from .errors import NonFiniteState, SolverError
from .filtering import as_path
from .model import LQModel, TimeGrid
from .riccati import DeterministicPath, FollowerRiccati, follower_coefficients, rk4_half_grid


CHUNK_PATHS = 2000  # paths per chunk of a streamed pass; bounds its memory whatever the path count


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments of paths first_path .. first_path + m - 1.

    dw drives the state, dwbar the observation; both are (m, steps), Normal(0, dt).
    """

    seed: int
    grid: TimeGrid
    dw: np.ndarray
    dwbar: np.ndarray
    first_path: int = 0

    @property
    def m(self) -> int:
        return self.dw.shape[0]


def path_stream(seed: int, path: int) -> np.random.Generator:
    """The RNG stream owned by one path: a pure function of (seed, path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(path,))))


def generate_noise(seed: int, m: int, grid: TimeGrid, first_path: int = 0) -> NoiseBundle:
    """Draw the increment table for paths first_path .. first_path + m - 1.

    Identical (seed, grid, path index) always reproduce the same rows, so a
    smaller bundle is a prefix of a larger one and chunked runs draw the
    same rows as monolithic ones (streams are keyed per path, not per batch).
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
    return NoiseBundle(seed=seed, grid=grid, dw=dw, dwbar=dwbar, first_path=first_path)


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


def _check_finite(states: np.ndarray, noise: NoiseBundle) -> None:
    if np.all(np.isfinite(states)):
        return
    flat = ~np.isfinite(states)
    while flat.ndim > 2:
        flat = flat.any(axis=-1)
    path, step = np.argwhere(flat)[0]
    raise NonFiniteState(noise.first_path + int(path), int(step), int(step) * noise.grid.dt)


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guard reports overflow
def simulate_closed_loop(system: ClosedLoopSystem, noise: NoiseBundle) -> TrajectoryEnsemble:
    """Euler-Maruyama on the augmented closed-loop dynamics.

    Left-point coefficients; per step k:
    X_{k+1} = X_k + [drift_x(t_k) X_k + drift_xhat(t_k) Xhat_k] dt + [...] dW_k.
    Raises NonFiniteState at the first path and node that is not finite.
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
    _check_finite(states, noise)
    return TrajectoryEnsemble(
        grid=grid, x=states[:, :, 0].copy(), q=states[:, :, 1].copy(),
        u1=u1, u2=u2, noise=noise, xhat=system.xhat,
    )


def closed_loop_chunks(system: ClosedLoopSystem, seed: int, m: int):
    """Closed-loop ensembles of paths 0 .. m-1 in path order, CHUNK_PATHS at a time."""
    for first in range(0, m, CHUNK_PATHS):
        yield simulate_closed_loop(system, generate_noise(seed, min(CHUNK_PATHS, m - first), system.grid,
                                                          first_path=first))


def _control_at(u: np.ndarray, k: int):
    return u[:, k] if u.ndim == 2 else u[k]


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guard reports overflow
def simulate_open_loop(model: LQModel, u1, u2, noise: NoiseBundle) -> TrajectoryEnsemble:
    """Euler-Maruyama on the raw scalar state equation for given controls.

    Controls are node-sampled arrays, either deterministic (N+1,) or per-path
    (m, N+1) aligned with the noise bundle.  Raises NonFiniteState at the
    first path and node that is not finite.
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
    _check_finite(x, noise)
    return TrajectoryEnsemble(grid=grid, x=x, q=None, u1=u1, u2=u2, noise=noise)


def backfill_theta(model: LQModel, P: FollowerRiccati, x: np.ndarray, u2,
                   xhat: DeterministicPath, u2hat, theta_hat) -> np.ndarray:
    """Pathwise backward reconstruction of the follower's adjoint offset.

    theta = theta_hat + e along each realized path, where theta_hat (a
    DeterministicPath or node array) is the filtered offset that
    solve_follower_filter gives for u2hat.  The deviation e integrates
    backward from e(T) = 0 by rk4_half_grid,
        de/dtau = bc^2 s_inv P^2 (x - xhat) + (B2 + D2 C) P (u2 - u2hat) + A e,
    reading the path and controls piecewise-linearly between nodes.  RK4 is
    linear, so this equals integrating the offset and its filtered value
    jointly, and a path that coincides with its filter gives theta_hat
    exactly.  Used for residual verification only; the reconstruction
    anticipates the path and is never fed back into controls.
    """
    grid = model.grid
    n = grid.steps

    def half_gap(arr, filtered) -> np.ndarray:
        """arr - filtered on the half grid, one row per path (or one shared
        row); paths interpolate linearly, deterministic paths carry their
        own midpoints."""
        if isinstance(arr, DeterministicPath):
            return (arr.half_values() - filtered.half_values())[None, :]
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        out = np.empty((arr.shape[0], 2 * n + 1))
        out[:, ::2] = arr
        out[:, 1::2] = 0.5 * (arr[:, :-1] + arr[:, 1:])
        out -= filtered.half_values()
        return out

    fol = follower_coefficients(model, P)
    A = model.nodes("A", 2)
    # The deviation's forcing on the half grid j = 0..2N, one column per path.
    forcing = (half_gap(x, xhat) * fol.offset[0] + half_gap(u2, as_path(u2hat)) * fol.offset_u2).T
    e = rk4_half_grid(lambda j, e: forcing[j] + A[j] * e, np.zeros(forcing.shape[1]), grid.dt, n,
                      backward=True, fail=partial(SolverError, "pathwise offset is not finite"))
    return np.ascontiguousarray(e.nodes.T) + as_path(theta_hat).nodes


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
