import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lqstack.equilibrium import solve_equilibrium
from lqstack.errors import SolverError
from lqstack.filtering import solve_follower_filter
from lqstack.riccati import DeterministicPath, solve_follower_P

from conftest import make_model, random_admissible_model

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
    assert np.all(fp.theta_hat.nodes == 0.0)
    times = m.grid.times()
    assert np.max(np.abs(fp.xhat.nodes - np.exp(0.7 * times))) < 1e-10


def test_zero_control_zero_offset_any_model():
    m = make_model(steps=300, D1=0.4, D2=0.2, C=0.5)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.zeros(301))
    assert np.all(fp.theta_hat.nodes == 0.0)
    assert np.all(fp.theta_hat.mids == 0.0)


def test_terminal_offset_and_initial_state_exact():
    m = make_model(steps=100)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.linspace(0.5, -0.5, 101))
    assert fp.theta_hat.nodes[-1] == 0.0
    assert fp.xhat.nodes[0] == m.x0


def test_filter_self_convergence():
    m = filter_model(1000)
    P = solve_follower_P(m)
    fp = solve_follower_filter(m, P, np.ones(1001))
    assert abs(fp.xhat.nodes[-1] - XHAT_T_REF) < 1e-8


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
    assert abs(fp.xhat.nodes[-1] - xh.y[0, -1]) < 1e-9


def test_filter_substitution_residual_second_order():
    def residual(steps):
        m = filter_model(steps)
        P = solve_follower_P(m)
        u2 = np.sin(m.grid.times())
        fp = solve_follower_filter(m, P, u2)
        dt = m.grid.dt
        pn = P.values
        x = fp.xhat.nodes
        th = fp.theta_hat.nodes
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
    assert np.max(np.abs(eq.xhat.nodes[:, 0] - np.exp(0.1 * times))) < 1e-10
    assert np.all(eq.xhat.nodes[:, 1] == 0.0)

    # zero initial state: homogeneous linear ODE stays at zero
    m0 = make_model(steps=200, x0=0.0)
    eq0 = solve_equilibrium(m0)
    assert np.all(eq0.xhat.nodes == 0.0)


def test_leader_xhat_initial_exact(eq_b200):
    assert np.array_equal(eq_b200.xhat.nodes[0], [1.0, 0.0])


def test_two_xhat_routes_agree(eq_b400):
    # The first component of the augmented estimate and the follower filter
    # driven by the leader's filtered feedback discretize the same ODE.
    eq = eq_b400
    fp = solve_follower_filter(eq.model, eq.P, eq.u2hat_path())
    scale = np.max(np.abs(eq.xhat.nodes[:, 0]))
    assert np.max(np.abs(fp.xhat.nodes - eq.xhat.nodes[:, 0])) <= 1e-9 * scale



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
    a = solve_equilibrium(m1).xhat.nodes
    b = solve_equilibrium(m2).xhat.nodes
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
    for x, y in ((a.P.fine, b.P.fine), (a.leader.p1_fine, b.leader.p1_fine),
                 (a.leader.p2_fine, b.leader.p2_fine), (a.sigmas.s1, b.sigmas.s1),
                 (a.sigmas.s2, b.sigmas.s2), (a.sigmas.s3, b.sigmas.s3), (a.gains.lx, b.gains.lx),
                 (a.gains.lxhat, b.gains.lxhat), (a.gains.f, b.gains.f)):
        assert np.array_equal(x, y)
    fa = solve_follower_filter(m, a.P, a.u2hat_path())
    fb = solve_follower_filter(b.model, b.P, b.u2hat_path())
    for pa, pb in ((a.xhat, b.xhat), (fa.xhat, fb.xhat), (fa.theta_hat, fb.theta_hat)):
        assert np.array_equal(c * pa.nodes, pb.nodes)
        assert np.array_equal(c * pa.mids, pb.mids)


def test_deterministic_path_half_values():
    p = DeterministicPath(nodes=np.array([0.0, 2.0, 4.0]))
    assert np.array_equal(p.half_values(), [0.0, 1.0, 2.0, 3.0, 4.0])
    q = DeterministicPath(nodes=np.array([0.0, 2.0, 4.0]), mids=np.array([0.7, 3.1]))
    assert np.array_equal(q.half_values(), [0.0, 0.7, 2.0, 3.1, 4.0])
    # vector values interleave along the leading (time) axis
    v = DeterministicPath(nodes=np.array([[0.0, 1.0], [2.0, 3.0]]), mids=np.array([[5.0, 6.0]]))
    assert np.array_equal(v.half_values(), [[0.0, 1.0], [5.0, 6.0], [2.0, 3.0]])
