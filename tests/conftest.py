import dataclasses
from functools import partial

import numpy as np
import pytest

from lqstack.errors import LQStackError, SolverError
from lqstack.model import _MODEL_KEYS, Coefficient, LQModel, TimeGrid, lift
from lqstack.riccati import rk4_half_grid


class OutOfRange(LQStackError):
    """Time argument outside [0, T] beyond tolerance."""


def make_model(steps=200, horizon=1.0, **overrides):
    """Constant-coefficient model with benchmark defaults."""
    params = dict(A=0.1, B1=1.0, B2=1.0, C=0.2, D1=0.0, D2=0.0, h=1.0,
                  Q1=1.0, R1=1.0, Q2=1.0, R2=1.0, G1=1.0, G2=1.0, x0=1.0)
    params.update(overrides)
    return LQModel(grid=TimeGrid(horizon, steps), **params)


def sample_at(fn: Coefficient, t: float, grid: TimeGrid) -> float:
    """Evaluate a coefficient at time t.

    Constants evaluate to themselves; arrays are interpolated linearly
    between the bracketing grid nodes and are exact at nodes.
    """
    tol = 1e-12 * grid.horizon
    if t < -tol or t > grid.horizon + tol:
        raise OutOfRange(f"t={t} outside [0, {grid.horizon}]")
    if np.isscalar(fn) or np.ndim(fn) == 0:
        return float(fn)
    values = np.asarray(fn, dtype=float)
    t = min(max(t, 0.0), grid.horizon)
    pos = t / grid.dt
    # Snap to the node when t is a node time up to rounding, so node values
    # are returned exactly.
    nearest = round(pos)
    if 0 <= nearest <= grid.steps and abs(pos - nearest) <= 1e-9 * max(1.0, nearest):
        return float(values[nearest])
    k = min(int(pos), grid.steps - 1)
    frac = pos - k
    return float((1.0 - frac) * values[k] + frac * values[k + 1])


def model_to_dict(model: LQModel) -> dict:
    """Inverse of lqstack.model.model_from_dict (arrays become lists)."""
    out = {}
    for key in _MODEL_KEYS:
        v = getattr(model, key)
        out[key] = v.tolist() if isinstance(v, np.ndarray) else v
    out.update(G1=model.G1, G2=model.G2, x0=model.x0, T=model.grid.horizon, steps=model.grid.steps)
    return out


# The constant-coefficient draw of perfbench/workloads.random_model(np.random.default_rng(91), N,
# time_varying=False), to six digits: D1 and D2 are large enough that the
# follower's offset gain lambda is far from zero.
RNG91 = dict(A=-0.433834, B1=1.392301, B2=1.283178, C=-0.331959, D1=0.552308, D2=0.242119, h=1.0,
             Q1=1.786074, R1=0.977239, Q2=1.1476, R2=0.625546, G1=1.672381, G2=1.770467, x0=-0.069928)


def random_admissible_model(rng, steps=200):
    """Draw a bounded model satisfying the weight hypotheses, D1/D2 included."""
    return make_model(
        steps=steps,
        A=float(rng.uniform(-1.0, 1.0)),
        B1=float(rng.uniform(0.3, 1.5)),
        B2=float(rng.uniform(0.3, 1.5)),
        C=float(rng.uniform(-0.8, 0.8)),
        D1=float(rng.uniform(-0.6, 0.6)),
        D2=float(rng.uniform(-0.6, 0.6)),
        Q1=float(rng.uniform(0.0, 2.0)),
        R1=float(rng.uniform(0.3, 2.0)),
        Q2=float(rng.uniform(0.0, 2.0)),
        R2=float(rng.uniform(0.3, 2.0)),
        G1=float(rng.uniform(0.0, 2.0)),
        G2=float(rng.uniform(0.0, 2.0)),
        x0=float(rng.uniform(-1.5, 1.5)),
    )


def time_varying(model):
    """The model with A, R2, B1 and D2 as node arrays times 1 + 0.3 sin(2 pi t / T)."""
    factor = 1.0 + 0.3 * np.sin(2.0 * np.pi * model.grid.times() / model.grid.horizon)
    return dataclasses.replace(model, **{k: getattr(model, k) * factor for k in ("A", "R2", "B1", "D2")})


def pathwise_theta(model, P, x, u2, xhat, u2hat, theta_hat):
    """Pathwise backward solve of the follower's offset along realized paths: the
    oracle of the adapted offset theta_hat + lambda . (X - Xhat).

    theta = theta_hat + e along each path, where theta_hat is the filtered
    offset that solve_follower_filter gives for u2hat.  The deviation e
    integrates backward from e(T) = 0 by rk4_half_grid,
        de/dtau = bc^2 s_inv P^2 (x - xhat) + (B2 + D2 C) P (u2 - u2hat) + A e,
    with its forcing formed on the half grid.  Every input is lifted there
    (model.lift): the deterministic paths xhat, u2hat and theta_hat are
    (2N+1,) half-grid or (N+1,) node arrays, and x and a per-path u2 are
    (N+1, m) node arrays, or (N+1,) or (2N+1,) for one path, read linearly
    between nodes.  RK4 is linear, so this equals integrating the offset and
    its filtered value jointly, and a path that coincides with its filter
    gives theta_hat exactly.  The result is (N+1, m), one column per path.
    It reads each path's future; its conditional mean given X(t_k) is the
    adapted offset.
    """
    n = model.grid.steps

    def gap(arr, filtered, coef):
        """coef (arr - filtered) on the half grid, one column per path (or one shared column)."""
        out = lift(arr, n).reshape(2 * n + 1, -1) - lift(filtered, n)[:, None]
        out *= coef[:, None]
        return out

    A = model.nodes("A", 2).tolist()
    forcing = (gap(x, xhat, P.offset[0]) + gap(u2, u2hat, P.offset_u2)).tolist()

    def de_dtau(j, e):
        return [f + A[j] * v for f, v in zip(forcing[j], e)]

    e = rk4_half_grid(de_dtau, (0.0,) * len(forcing[0]), model.grid.dt, n,
                      backward=True, fail=partial(SolverError, "pathwise offset is not finite"))
    return e[::2] + lift(theta_hat, n)[::2, None]


def backfill(eq, ens):
    """The pathwise offset oracle along a closed-loop ensemble."""
    return pathwise_theta(eq.model, eq.P, ens.x, ens.u2, eq.closed_loop.xhat[:, 0], eq.u2hat,
                          eq.follower_filter.theta_hat)


@pytest.fixture(scope="session")
def eq_b200():
    from lqstack.equilibrium import solve_equilibrium
    return solve_equilibrium(make_model(200))


@pytest.fixture(scope="session")
def eq_b400():
    from lqstack.equilibrium import solve_equilibrium
    return solve_equilibrium(make_model(400))


@pytest.fixture(scope="session")
def ens_b200(eq_b200):
    """Closed-loop benchmark ensemble, modest size, shared across tests."""
    from lqstack.simulate import generate_noise, simulate_closed_loop
    noise = generate_noise(2024, 20000, eq_b200.model.grid)
    return simulate_closed_loop(eq_b200.closed_loop, noise)
