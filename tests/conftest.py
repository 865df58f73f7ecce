import dataclasses

import numpy as np
import pytest

from lqstack.errors import LQStackError
from lqstack.model import _MODEL_KEYS, Coefficient, LQModel, TimeGrid


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


def backfill(eq, ens):
    """Pathwise offset along a closed-loop ensemble, built as lqstack verify builds it."""
    from lqstack.simulate import backfill_theta
    return backfill_theta(eq.model, eq.P, ens.x, ens.u2, eq.xhat[:, 0], eq.u2hat,
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
