import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lqstack.equilibrium import solve_equilibrium
from lqstack.errors import SolverError
from lqstack.filtering import solve_follower_filter
from lqstack.model import TimeGrid, lift, sample_on_grid
from lqstack.riccati import solve_follower_P

from conftest import make_model, pathwise_theta, random_admissible_model

# Frozen 100000-step self-reference for the filter state at t=T
# (regenerate with scripts/make_reference.py; cross-checked there against an
# adaptive integrator to 2.1e-13).
XHAT_T_REF = 1.4096484296196565


def filter_model(steps):
    return make_model(steps=steps, A=0.0, C=0.0, Q1=1.0, G1=0.0)


def test_zero_control_zero_offset_and_exponential_state():
    # Q1 = G1 = 0 forces P = 0; with zero filtered control the state estimate
    # is the plain exponential flow of the drift coefficient.
    m = make_model(steps=400, A=0.7, Q1=0.0, G1=0.0)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.zeros(401))
    assert np.all(fp.theta_hat[::2] == 0.0)
    times = m.grid.times()
    assert np.max(np.abs(fp.xhat[::2] - np.exp(0.7 * times))) < 1e-10


def test_zero_control_zero_offset_any_model():
    m = make_model(steps=300, D1=0.4, D2=0.2, C=0.5)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.zeros(301))
    assert np.all(fp.theta_hat[::2] == 0.0)
    assert np.all(fp.theta_hat[1::2] == 0.0)


def test_terminal_offset_and_initial_state_exact():
    m = make_model(steps=100)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.linspace(0.5, -0.5, 101))
    assert fp.theta_hat[-1] == 0.0
    assert fp.xhat[0] == m.x0


def test_filter_self_convergence():
    m = filter_model(1000)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.ones(1001))
    assert abs(fp.xhat[-1] - XHAT_T_REF) < 1e-8


def test_filter_against_adaptive_integrator():
    # Independent oracle for the same pair (unit filtered control).
    m = filter_model(800)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.ones(801))

    def theta_rhs(t, y):
        p = np.tanh(1.0 - t)
        return [p * y[0] - p]

    th = solve_ivp(theta_rhs, (1.0, 0.0), [0.0], rtol=1e-12, atol=1e-14, dense_output=True)

    def xhat_rhs(t, y):
        p = np.tanh(1.0 - t)
        return [-p * y[0] - th.sol(t)[0] + 1.0]

    xh = solve_ivp(xhat_rhs, (0.0, 1.0), [1.0], rtol=1e-12, atol=1e-14)
    assert abs(fp.xhat[-1] - xh.y[0, -1]) < 1e-9


def test_filter_substitution_residual_second_order():
    def residual(steps):
        m = filter_model(steps)
        P = solve_follower_P(m)
        u2 = np.sin(m.grid.times())
        fp = solve_follower_filter(m, P, u2)
        dt = m.grid.dt
        pn = P.p[::2]
        x = fp.xhat[::2]
        th = fp.theta_hat[::2]
        dx = (x[2:] - x[:-2]) / (2.0 * dt)
        dth = (th[2:] - th[:-2]) / (2.0 * dt)
        inner = slice(1, steps)
        rx = dx - (-pn[inner] * x[inner] - th[inner] + u2[inner])
        rt = dth - (pn[inner] * th[inner] - pn[inner] * u2[inner])
        return max(np.max(np.abs(rx)), np.max(np.abs(rt)))

    r1, r2 = residual(200), residual(400)
    assert 3.5 < r1 / r2 < 4.5


def test_leader_xhat_trivial_cases(eq_b200):
    # all cost weights zero: gains vanish, the estimate is the exponential flow
    m = make_model(steps=200, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    from lqstack.equilibrium import solve_equilibrium
    eq = solve_equilibrium(m)
    times = m.grid.times()
    assert np.max(np.abs(eq.closed_loop.xhat[::2, 0] - np.exp(0.1 * times))) < 1e-10
    assert np.all(eq.closed_loop.xhat[::2, 1] == 0.0)

    # zero initial state: homogeneous linear ODE stays at zero
    m0 = make_model(steps=200, x0=0.0)
    eq0 = solve_equilibrium(m0)
    assert np.all(eq0.closed_loop.xhat[::2] == 0.0)


def test_leader_xhat_initial_exact(eq_b200):
    assert np.array_equal(eq_b200.closed_loop.xhat[0], [1.0, 0.0])


def test_two_xhat_routes_agree(eq_b400):
    # The first component of the augmented estimate and the follower filter
    # driven by the leader's filtered feedback discretize the same ODE.
    eq = eq_b400
    fp = eq.follower_filter
    scale = np.max(np.abs(eq.closed_loop.xhat[::2, 0]))
    assert np.max(np.abs(fp.xhat[::2] - eq.closed_loop.xhat[::2, 0])) <= 1e-9 * scale



def test_filters_raise_on_non_finite_state():
    # Zero weights leave P = 0 and both estimates grow like exp(A t), which
    # overflows well before T at A = 800.
    from lqstack.equilibrium import solve_equilibrium
    m = make_model(steps=200, A=800.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    with pytest.raises(SolverError) as info:
        solve_equilibrium(m)
    assert 0.0 < info.value.time <= 1.0
    with pytest.raises(SolverError) as info:
        solve_follower_filter(m, solve_follower_P(m), np.zeros(201))
    assert 0.0 < info.value.time <= 1.0

def test_linearity_in_initial_state():
    m1 = make_model(steps=150, x0=1.25)
    m2 = make_model(steps=150, x0=2.5)
    from lqstack.equilibrium import solve_equilibrium
    a = solve_equilibrium(m1).closed_loop.xhat[::2]
    b = solve_equilibrium(m2).closed_loop.xhat[::2]
    # doubling x0 doubles the whole path (exact: scaling by 2 is lossless)
    assert np.array_equal(2.0 * a, b)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([-4.0, 0.5, 2.0]))
def test_linearity_in_initial_state_random_models(seed, c):
    # x0 enters only as the initial value of linear ODEs, so scaling it by a
    # power of two scales both filters exactly and leaves the rest untouched.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    a = solve_equilibrium(m)
    b = solve_equilibrium(dataclasses.replace(m, x0=c * m.x0))
    for x, y in ((a.P.p, b.P.p), (a.leader.p1, b.leader.p1),
                 (a.leader.p2, b.leader.p2), (a.sigmas.s1, b.sigmas.s1),
                 (a.sigmas.s2, b.sigmas.s2), (a.sigmas.s3, b.sigmas.s3), (a.closed_loop.lx, b.closed_loop.lx),
                 (a.closed_loop.lxhat, b.closed_loop.lxhat), (a.closed_loop.f, b.closed_loop.f)):
        assert np.array_equal(x, y)
    fa = a.follower_filter
    fb = b.follower_filter
    for pa, pb in ((a.closed_loop.xhat, b.closed_loop.xhat), (fa.xhat, fb.xhat), (fa.theta_hat, fb.theta_hat)):
        assert np.array_equal(c * pa[::2], pb[::2])
        assert np.array_equal(c * pa[1::2], pb[1::2])


def test_lift_reads_node_samples_linearly():
    rng = np.random.default_rng(5)
    n = 7
    for shape in ((n + 1,), (n + 1, 2), (n + 1, 5)):
        nodes = rng.standard_normal(shape)
        half = lift(nodes, n)
        assert half.shape == (2 * n + 1, *shape[1:])
        assert np.array_equal(half[::2], nodes)
        assert np.array_equal(half[1::2], 0.5 * nodes[:-1] + 0.5 * nodes[1:])
        # half-grid samples pass through as they are
        assert lift(half, n) is half
    for bad in (n, n + 2, 2 * n, 2 * n + 2):
        with pytest.raises(ValueError):
            lift(np.zeros(bad), n)
    with pytest.raises(ValueError):
        sample_on_grid(np.zeros(n + 1), TimeGrid(1.0, n), 3)


def test_node_and_lifted_inputs_agree(eq_b200, ens_b200):
    # a node array is read exactly as its lifted half-grid form
    eq = eq_b200
    n = eq.model.grid.steps
    u2_nodes = eq.u2hat[::2]
    a = solve_follower_filter(eq.model, eq.P, u2_nodes)
    b = solve_follower_filter(eq.model, eq.P, lift(u2_nodes, n))
    assert np.array_equal(a.xhat, b.xhat) and np.array_equal(a.theta_hat, b.theta_hat)
    x, u2 = ens_b200.x[:, :50], ens_b200.u2[:, :50]
    xhat_nodes = eq.closed_loop.xhat[::2, 0]
    from_nodes = pathwise_theta(eq.model, eq.P, x, u2, xhat_nodes, u2_nodes, a.theta_hat[::2])
    from_half = pathwise_theta(eq.model, eq.P, lift(x, n), lift(u2, n), lift(xhat_nodes, n),
                               lift(u2_nodes, n), a.theta_hat)
    assert np.array_equal(from_nodes, from_half)
