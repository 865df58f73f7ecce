import pytest

from lqstack.model import LQModel, TimeGrid


def make_model(steps=200, horizon=1.0, **overrides):
    """Constant-coefficient model with benchmark defaults."""
    params = dict(A=0.1, B1=1.0, B2=1.0, C=0.2, D1=0.0, D2=0.0, h=1.0,
                  Q1=1.0, R1=1.0, Q2=1.0, R2=1.0, G1=1.0, G2=1.0, x0=1.0)
    params.update(overrides)
    return LQModel(grid=TimeGrid(horizon, steps), **params)


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


def backfill(eq, ens):
    """Pathwise offset along a closed-loop ensemble, built as lqstack verify builds it."""
    from lqstack.filtering import solve_follower_filter
    from lqstack.simulate import backfill_theta
    u2hat = eq.u2hat_path()
    theta_hat = solve_follower_filter(eq.model, eq.P, u2hat).theta_hat
    return backfill_theta(eq.model, eq.P, ens.x, ens.u2, eq.xhat_scalar_path(), u2hat, theta_hat)


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
    return simulate_closed_loop(eq_b200.closed_loop(), noise)
