"""Monte-Carlo layer: noise streams, Euler-Maruyama, the exponential
observation-density process, and the gain that reads the follower's adapted
offset off a simulated state.

Reproducibility contract: every sampled quantity is a pure function of
(master seed, path index, step), independent of path batching or execution
order.  Noise is counter-based (Salmon et al., SC'11): SeedSequence(seed)
keys one Philox, and path i reads its N + 1 normals from counter
(0, 0, 0, i): the first N are its state increments, the last its
observation noise, which the density process reads as one draw, since the
observation drift h is deterministic.

Every per-path array is node-major, paths along the last axis: (N+1, m)
states and controls, (N, m) noise.  The Euler kernels write row k+1 from row
k, so a path takes the same operations whatever paths run beside it.  Time
sums of such data fold in node order (costs, the backward-step residual):
numpy sums a contiguous axis pairwise but a strided one row by row, so its
sum over the time axis rounds a 1-path chunk differently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NonFiniteState, SolverError
from .model import LQModel, TimeGrid
from .riccati import FollowerRiccati, rk4_half_grid


CHUNK_PATHS = 2000  # paths per chunk of a streamed pass; bounds its memory whatever the path count
NOISE_ROWS = 64  # paths drawn path-major into one buffer before it is stored into the node-major table


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments of paths first_path .. first_path + m - 1.

    dw, (steps, m), drives the state; dwbar, (m,), is each path's observation
    noise, one Normal(0, dt) draw that the density process scales.
    """

    grid: TimeGrid
    dw: np.ndarray
    dwbar: np.ndarray
    first_path: int = 0

    @property
    def m(self) -> int:
        return self.dw.shape[1]


def _increments(seed: int, m: int, grid: TimeGrid, first_path: int) -> np.ndarray:
    """The (steps + 1, m) normals of paths first_path .. first_path + m - 1,
    each path's read from counter (0, 0, 0, path), times sqrt(dt)."""
    n = grid.steps + 1
    bits = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty output buffer
    table = np.empty((n, m))
    rows = np.empty((min(m, NOISE_ROWS), n))
    for first in range(0, m, NOISE_ROWS):
        block = rows[:min(NOISE_ROWS, m - first)]
        for i, row in enumerate(block):
            state["state"]["counter"][3] = first_path + first + i
            bits.state = state
            gen.standard_normal(out=row)
        table[:, first:first + len(block)] = block.T
    table *= np.sqrt(grid.dt)
    return table


def generate_noise(seed: int, m: int, grid: TimeGrid, first_path: int = 0) -> NoiseBundle:
    """Draw the noise of paths first_path .. first_path + m - 1.

    Identical (seed, grid, path index) always reproduce the same column, so
    a smaller bundle is the leading columns of a larger one and chunked runs
    draw the same columns as monolithic ones (each path restarts the seed's
    stream at its own counter, whatever was drawn before it).
    """
    if m < 1:
        raise ValueError(f"path count must be >= 1, got {m}")
    if first_path < 0 or first_path + m > 2**64:
        raise ValueError(f"path indices {first_path} .. {first_path + m - 1} must lie in [0, 2**64)")
    table = _increments(seed, m, grid, first_path)
    return NoiseBundle(grid=grid, dw=table[:-1], dwbar=table[-1], first_path=first_path)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulated paths at the grid nodes, (N+1, m): one node per row, one path per column.

    x holds the scalar game state (closed loop: first augmented component);
    q holds the second augmented component for closed-loop runs, else None.
    Controls are node-sampled, either shared across paths (N+1,) or per path
    (N+1, m).
    """

    grid: TimeGrid
    x: np.ndarray
    q: np.ndarray | None
    u1: np.ndarray
    u2: np.ndarray
    noise: NoiseBundle

    @property
    def m(self) -> int:
        return self.x.shape[1]

    def head(self, m: int) -> "TrajectoryEnsemble":
        """Copies of the first m paths, holding no reference to this ensemble's arrays."""
        def paths(a):
            return None if a is None else (a.copy() if a.ndim == 1 else a[:, :m].copy())

        noise = replace(self.noise, dw=paths(self.noise.dw), dwbar=self.noise.dwbar[:m].copy())
        return replace(self, x=paths(self.x), q=paths(self.q), u1=paths(self.u1), u2=paths(self.u2), noise=noise)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """The equilibrium closed loop on the half grid, the one owner of its arrays.

    dX = [drift_x X + drift_xhat Xhat] dt + [diff_x X + diff_xhat Xhat] dW,
    with the leader control  u2 = lx . X + lxhat . Xhat, its filtered value
    u2hat = lhat . Xhat (lhat = lx + lxhat), and the follower control
    u1 = f . Xhat recorded along the way; xhat is Xhat, the filtered
    augmented state.  Each is a (2N+1, ...) half-grid path; the Euler kernel
    reads its node rows, [::2].
    """

    grid: TimeGrid
    drift_x: np.ndarray
    drift_xhat: np.ndarray
    diff_x: np.ndarray
    diff_xhat: np.ndarray
    lx: np.ndarray
    lxhat: np.ndarray
    f: np.ndarray
    xhat: np.ndarray

    @property
    def lhat(self) -> np.ndarray:
        return self.lx + self.lxhat


def _node_products(coef: np.ndarray, xh: np.ndarray) -> np.ndarray:
    """coef[k] @ xh[k] at every node k, as one batched matmul (the same
    products, summed as the per-node matrix-vector product sums them)."""
    if coef.ndim == 2:
        return np.matmul(coef[:, None, :], xh[:, :, None])[:, 0, 0]
    return np.matmul(coef, xh[:, :, None])[:, :, 0]


def _check_finite(noise: NoiseBundle, *states: np.ndarray) -> None:
    """Raise NonFiniteState at the lowest path, then the lowest step, at which
    any of the (N+1, m) state arrays is not finite."""
    finite = np.isfinite(states[0])
    for s in states[1:]:
        finite &= np.isfinite(s)
    if finite.all():
        return
    path = int(np.argmin(finite.all(axis=0)))
    step = int(np.argmin(finite[:, path]))
    raise NonFiniteState(noise.first_path + path, step, step * noise.grid.dt)


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
    xh = system.xhat[::2]
    # The terms every path shares, once per node.
    u1 = _node_products(system.f[::2], xh)
    u2_shared = _node_products(system.lxhat[::2], xh).tolist()
    drift_shared = _node_products(system.drift_xhat[::2], xh).tolist()
    diff_shared = _node_products(system.diff_xhat[::2], xh).tolist()
    fx, gx, lx = (a[::2].tolist() for a in (system.drift_x, system.diff_x, system.lx))

    dw = noise.dw
    x = np.empty((n + 1, m))
    q = np.empty((n + 1, m))
    u2 = np.empty((n + 1, m))
    x[0] = xh[0, 0]
    q[0] = xh[0, 1]
    for k in range(n):
        xk, qk = x[k], q[k]
        (a11, a12), (a21, a22) = fx[k]
        (g11, g12), (g21, g22) = gx[k]
        l1, l2 = lx[k]
        (c1, c2), (e1, e2) = drift_shared[k], diff_shared[k]
        u2[k] = xk * l1 + qk * l2 + u2_shared[k]
        x[k + 1] = xk + dt * (xk * a11 + qk * a12 + c1) + (xk * g11 + qk * g12 + e1) * dw[k]
        q[k + 1] = qk + dt * (xk * a21 + qk * a22 + c2) + (xk * g21 + qk * g22 + e2) * dw[k]
    l1, l2 = lx[n]
    u2[n] = x[n] * l1 + q[n] * l2 + u2_shared[n]
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
    (N+1, m) aligned with the noise bundle; node k of either is u[k].  Any
    other length, a (2N+1,) half-grid path among them, raises ValueError.
    Raises NonFiniteState at the first path and node that is not finite.
    """
    grid = model.grid
    n = grid.steps
    dt = grid.dt
    m = noise.m
    u1, u2 = (np.asarray(u, dtype=float) for u in (u1, u2))
    if len(u1) != n + 1 or len(u2) != n + 1:
        raise ValueError(f"controls need {n + 1} node rows, got {len(u1)} and {len(u2)}")
    A, B1, B2, C, D1, D2 = (model.nodes(name) for name in ("A", "B1", "B2", "C", "D1", "D2"))
    a, c = A.tolist(), C.tolist()
    dw = noise.dw
    x = np.empty((n + 1, m))
    x[0] = model.x0
    for k in range(n):
        xk = x[k]
        x[k + 1] = (xk + dt * (a[k] * xk + B1[k] * u1[k] + B2[k] * u2[k])
                    + (c[k] * xk + D1[k] * u1[k] + D2[k] * u2[k]) * dw[k])
    _check_finite(noise, x)
    return TrajectoryEnsemble(grid=grid, x=x, q=None, u1=u1, u2=u2, noise=noise)


def sensitivity_nodes(model: LQModel, v1: np.ndarray, v2: np.ndarray, noise: NoiseBundle):
    """Zero-start responses of the Euler state to K deterministic control shifts.

    The Euler map is affine in a deterministic shift (v1, v2) of the two
    controls, each (K, N+1), so under the same noise the state moves by dx,
        dx_{k+1} = dx_k (1 + A_k dt + C_k dW_k) + (B1_k v1_k + B2_k v2_k) dt
                   + (D1_k v1_k + D2_k v2_k) dW_k,   dx_0 = 0,
    whatever the baseline controls: no baseline run is needed.  The K
    recursions step together, reading each noise row once.  Yields the
    (K, m) responses at nodes 0 .. N in node order, in one reused buffer: a
    node's responses are valid only until the next node is requested.
    Raises NonFiniteState at the first step at which a response is not
    finite (its lowest path).
    """
    dt = model.grid.dt
    A, B1, B2, C, D1, D2 = (model.nodes(name) for name in ("A", "B1", "B2", "C", "D1", "D2"))
    drift = ((B1 * v1 + B2 * v2) * dt).T  # (N+1, K): node-major, as the steps read it
    diff = (D1 * v1 + D2 * v2).T
    dx = np.zeros((drift.shape[1], noise.m))
    growth, step = np.empty(noise.m), np.empty_like(dx)
    yield dx
    for k, dw in enumerate(noise.dw):
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness guard reports overflow
            np.multiply(C[k], dw, out=growth)
            growth += 1.0 + A[k] * dt
            np.multiply(diff[k, :, None], dw, out=step)
            step += drift[k, :, None]
            dx *= growth
            dx += step
        if not np.isfinite(dx).all():  # a non-finite response stays non-finite
            path = np.argwhere(~np.isfinite(dx).all(axis=0))[0, 0]
            raise NonFiniteState(noise.first_path + int(path), k + 1, (k + 1) * dt)
        yield dx


@np.errstate(over="ignore", invalid="ignore")  # the finiteness guard reports overflow
def backfill_theta(model: LQModel, P: FollowerRiccati, drift_x: np.ndarray, lx: np.ndarray) -> np.ndarray:
    """lambda, the follower's offset gain on D = X - Xhat: (2N+1, 2) on the half grid.

    Along a path the offset's deviation from its filtered value solves
    de/dt = -A e - f . D, e(T) = 0, with f = c e1 + c2 lx (c = P.offset[0],
    c2 = P.offset_u2, lx the leader's gain on X, so u2 - u2hat = lx . D).
    D solves dD = fx D dt + G dW (fx = drift_x, the closed loop's half-grid
    drift on X, and G its diffusion), so E_t[D_s] = Phi(s, t) D_t with Phi
    the flow of fx, and the adapted deviation is
        E_t[int_t^T exp(int_t^s A) f(s) . D_s ds] = lambda(t) . D_t,
        d(lambda)/dtau = (A + fx^T) lambda + f,  lambda(T) = 0,  tau = T - t.
    By Clark-Ocone its martingale integrand is beta = lambda . G.  Zero
    forcing gives exact zeros; a non-finite node raises SolverError.
    """
    gain = model.nodes("A", 2)[:, None, None] * np.eye(2) + drift_x.swapaxes(-1, -2)
    forcing = P.offset_u2[:, None] * lx
    forcing[:, 0] += P.offset[0]
    g00, g01, g10, g11 = gain.reshape(-1, 4).T.tolist()
    f0, f1 = forcing.T.tolist()
    return rk4_half_grid(lambda j, y: (g00[j] * y[0] + g01[j] * y[1] + f0[j], g10[j] * y[0] + g11[j] * y[1] + f1[j]),
                         (0.0, 0.0), model.grid.dt, model.grid.steps, backward=True,
                         fail=partial(SolverError, "follower's offset gain is not finite"))


def density_process(model: LQModel, noise: NoiseBundle) -> np.ndarray:
    """Terminal value z_T of the exponential-martingale discretization of the
    density process, one per path.

    The left-point (Ito) exponent sum_j h(t_j) dWbar_j - 1/2 sum_j h(t_j)^2 dt
    of a deterministic h is Normal(-s dt / 2, s dt) with s = sum_j h(t_j)^2,
    so z_T = exp(sqrt(s) dwbar - s dt / 2) has its law from one draw per path;
    its mean is exactly one.  Every z_T is strictly positive.
    """
    h = model.nodes("h")[:-1]
    s = np.sum(h * h)
    return np.exp(np.sqrt(s) * noise.dwbar - 0.5 * model.grid.dt * s)
