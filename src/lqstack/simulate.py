"""Monte-Carlo layer: noise streams, Euler-Maruyama, pathwise backward offset,
and the exponential observation-density process.

Reproducibility contract: every sampled quantity is a pure function of
(master seed, path index, step), independent of path batching or execution
order.  Each path owns a counter-based stream (Philox keyed by a seed
sequence spawned from (seed, path)); within a stream the state increments are
drawn first, then the observation increments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NonFiniteState, SolverError
from .filtering import as_path
from .model import LQModel, TimeGrid
from .riccati import DeterministicPath, FollowerRiccati, follower_coefficients, rk4_half_grid


CHUNK_PATHS = 2000  # paths per chunk of a streamed pass; bounds its memory whatever the path count
BLOCK_STEPS = 64  # Euler steps per time-major block of a kernel; bounds its (b, m) buffers


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
    """Simulated paths at the grid nodes, one path per row.

    x holds the scalar game state (closed loop: first augmented component);
    q holds the second augmented component for closed-loop runs, else None.
    Controls are node-sampled, either shared across paths (1-d) or per path
    (2-d).
    """

    grid: TimeGrid
    x: np.ndarray
    q: np.ndarray | None
    u1: np.ndarray
    u2: np.ndarray
    noise: NoiseBundle

    @property
    def m(self) -> int:
        return self.x.shape[0]

    def head(self, m: int) -> "TrajectoryEnsemble":
        """Copies of the first m paths, holding no reference to this ensemble's arrays."""
        def rows(a):
            return None if a is None else (a.copy() if a.ndim == 1 else a[:m].copy())

        noise = replace(self.noise, dw=self.noise.dw[:m].copy(), dwbar=self.noise.dwbar[:m].copy())
        return replace(self, x=rows(self.x), q=rows(self.q), u1=rows(self.u1), u2=rows(self.u2), noise=noise)


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


# The Euler kernels keep a path-major (m, .) interface but step time-major:
# each block of BLOCK_STEPS steps copies its slice of the noise (and of any
# per-path control) to a contiguous (b, m) buffer, steps over its rows with
# elementwise arithmetic and writes the states back with one transposed
# store.  Every path sees the same operations in the same order whatever the
# block length, so the block length changes no bit of the result.


def _step_blocks(n: int):
    """(first, stop) step ranges of the time-major blocks covering steps 0 .. n-1."""
    return ((k0, min(k0 + BLOCK_STEPS, n)) for k0 in range(0, n, BLOCK_STEPS))


def _time_major(a: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """Columns k0 .. k1-1 of a path-major (m, .) table as a contiguous (b, m)
    buffer; a node array shared by every path becomes a (b, 1) column."""
    return a[k0:k1, None] if a.ndim == 1 else np.ascontiguousarray(a[:, k0:k1].T)


def _node_products(coef: np.ndarray, xh: np.ndarray) -> np.ndarray:
    """coef[k] @ xh[k] at every node k, as one batched matmul (the same
    products, summed as the per-node matrix-vector product sums them)."""
    if coef.ndim == 2:
        return np.matmul(coef[:, None, :], xh[:, :, None])[:, 0, 0]
    return np.matmul(coef, xh[:, :, None])[:, :, 0]


def _check_finite(noise: NoiseBundle, *states: np.ndarray) -> None:
    """Raise NonFiniteState at the lowest path, then the lowest step, at which
    any of the (m, N+1) state arrays is not finite."""
    finite = np.isfinite(states[0])
    for s in states[1:]:
        finite &= np.isfinite(s)
    if finite.all():
        return
    path, step = np.argwhere(~finite)[0]
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
    # The terms every path shares, once per node.
    u1 = _node_products(system.f, xh)
    u2_shared = _node_products(system.lxhat, xh).tolist()
    drift_shared = _node_products(system.drift_xhat, xh).tolist()
    diff_shared = _node_products(system.diff_xhat, xh).tolist()
    fx, gx, lx = system.drift_x.tolist(), system.diff_x.tolist(), system.lx.tolist()

    x = np.empty((m, n + 1))
    q = np.empty((m, n + 1))
    u2 = np.empty((m, n + 1))
    xk = np.full(m, xh[0, 0])
    qk = np.full(m, xh[0, 1])
    x[:, 0] = xk
    q[:, 0] = qk
    for k0, k1 in _step_blocks(n):
        dw = _time_major(noise.dw, k0, k1)
        xs, qs, us = np.empty_like(dw), np.empty_like(dw), np.empty_like(dw)
        for j, k in enumerate(range(k0, k1)):
            (a11, a12), (a21, a22) = fx[k]
            (g11, g12), (g21, g22) = gx[k]
            l1, l2 = lx[k]
            (c1, c2), (e1, e2) = drift_shared[k], diff_shared[k]
            us[j] = xk * l1 + qk * l2 + u2_shared[k]
            xs[j] = xk + dt * (xk * a11 + qk * a12 + c1) + (xk * g11 + qk * g12 + e1) * dw[j]
            qs[j] = qk + dt * (xk * a21 + qk * a22 + c2) + (xk * g21 + qk * g22 + e2) * dw[j]
            xk, qk = xs[j], qs[j]
        x[:, k0 + 1:k1 + 1] = xs.T
        q[:, k0 + 1:k1 + 1] = qs.T
        u2[:, k0:k1] = us.T
    l1, l2 = lx[n]
    u2[:, n] = xk * l1 + qk * l2 + u2_shared[n]
    _check_finite(noise, x, q)
    return TrajectoryEnsemble(grid=grid, x=x, q=q, u1=u1, u2=u2, noise=noise)


def closed_loop_chunks(system: ClosedLoopSystem, seed: int, m: int):
    """Closed-loop ensembles of paths 0 .. m-1 in path order, CHUNK_PATHS at a time."""
    for first in range(0, m, CHUNK_PATHS):
        yield simulate_closed_loop(system, generate_noise(seed, min(CHUNK_PATHS, m - first), system.grid,
                                                          first_path=first))


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
    A, B1, B2, C, D1, D2 = (model.nodes(name) for name in ("A", "B1", "B2", "C", "D1", "D2"))
    a, c = A.tolist(), C.tolist()

    x = np.empty((m, n + 1))
    x[:, 0] = model.x0
    xk = x[:, 0].copy()
    for k0, k1 in _step_blocks(n):
        dw = _time_major(noise.dw, k0, k1)
        u1b, u2b = _time_major(u1, k0, k1), _time_major(u2, k0, k1)
        b1u1, b2u2 = B1[k0:k1, None] * u1b, B2[k0:k1, None] * u2b
        d1u1, d2u2 = D1[k0:k1, None] * u1b, D2[k0:k1, None] * u2b
        xs = np.empty_like(dw)
        for j, k in enumerate(range(k0, k1)):
            xs[j] = xk + dt * (a[k] * xk + b1u1[j] + b2u2[j]) + (c[k] * xk + d1u1[j] + d2u2[j]) * dw[j]
            xk = xs[j]
        x[:, k0 + 1:k1 + 1] = xs.T
    _check_finite(noise, x)
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
