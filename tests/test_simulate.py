import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack.equilibrium import solve_equilibrium
from lqstack.errors import NonFiniteState
from lqstack.filtering import DeterministicPath, solve_follower_filter
from lqstack.model import TimeGrid
from lqstack.simulate import (ClosedLoopSystem, backfill_theta, density_process, generate_noise,
                              sensitivity_nodes, simulate_closed_loop, simulate_open_loop)

from conftest import make_model, random_admissible_model, time_varying


def test_noise_reproducible():
    grid = TimeGrid(1.0, 4)
    a = generate_noise(42, 2, grid)
    b = generate_noise(42, 2, grid)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.dwbar, b.dwbar)


def test_noise_rows_independent_of_batch_size():
    grid = TimeGrid(1.0, 8)
    small = generate_noise(7, 50, grid)
    large = generate_noise(7, 200, grid)
    assert np.array_equal(small.dw, large.dw[:50])
    assert np.array_equal(small.dwbar, large.dwbar[:50])
    tail = generate_noise(7, 150, grid, first_path=50)
    assert np.array_equal(tail.dw, large.dw[50:])


def test_noise_moments():
    # CLT bound on the mean and near-exact variance of the increments.
    grid = TimeGrid(1.0, 2)
    noise = generate_noise(11, 500000, grid)
    dt = grid.dt
    dw = noise.dw[:, 0]
    assert abs(dw.mean()) <= 4.0 * np.sqrt(dt / len(dw))
    assert abs(dw.var() - dt) <= 0.01 * dt


def test_open_loop_constant_state():
    m = make_model(steps=100, A=0.0, C=0.0)
    noise = generate_noise(1, 64, m.grid)
    zeros = np.zeros(101)
    ens = simulate_open_loop(m, zeros, zeros, noise)
    assert np.all(ens.x == m.x0)


def test_open_loop_pure_control_integration():
    # zero dynamics, unit leader control: the state is the integral of one
    m = make_model(steps=200, A=0.0, C=0.0, x0=0.0)
    noise = generate_noise(3, 16, m.grid)
    ens = simulate_open_loop(m, np.zeros(201), np.ones(201), noise)
    assert np.max(np.abs(ens.x[:, -1] - 1.0)) < 1e-12


def test_open_loop_mean_matches_exponential():
    # deterministic growth: the Euler mean carries only the O(dt) quadrature
    # bias, bounded by e * dt
    m = make_model(steps=400, A=1.0, C=0.0)
    noise = generate_noise(5, 1000, m.grid)
    zeros = np.zeros(401)
    ens = simulate_open_loop(m, zeros, zeros, noise)
    mean = ens.x[:, -1].mean()
    stderr = ens.x[:, -1].std(ddof=1) / np.sqrt(ens.m)
    assert abs(mean - np.e) <= 3.0 * stderr + np.e * m.grid.dt


def test_open_loop_weak_convergence_rate():
    # halving dt halves the mean error (deterministic variant, pure rate)
    def mean_error(steps):
        m = make_model(steps=steps, A=1.0, C=0.0)
        noise = generate_noise(5, 4, m.grid)
        ens = simulate_open_loop(m, np.zeros(steps + 1), np.zeros(steps + 1), noise)
        return abs(ens.x[0, -1] - np.e)

    assert 1.7 < mean_error(100) / mean_error(200) < 2.4


def test_open_loop_per_path_controls():
    m = make_model(steps=50, A=0.0, C=0.0, x0=0.0)
    noise = generate_noise(9, 3, m.grid)
    u2 = np.vstack([np.full(51, 0.0), np.full(51, 1.0), np.full(51, 2.0)])
    ens = simulate_open_loop(m, np.zeros(51), u2, noise)
    assert abs(ens.x[0, -1]) < 1e-12
    assert abs(ens.x[1, -1] - 1.0) < 1e-12
    assert abs(ens.x[2, -1] - 2.0) < 1e-12


def test_open_loop_leaves_per_path_controls_unchanged():
    # a one-path chunk's (1, N+1) control and a Fortran-ordered control are
    # read in step blocks that can be views of the caller's array; the
    # kernel must not write to them, so a rerun with the same controls
    # (as the optimality sweeps and the grid search make) sees the same x
    m = make_model(steps=200, B1=0.7, B2=1.3, D1=0.3, D2=0.2)
    rng = np.random.default_rng(5)
    for paths, order in ((1, "C"), (40, "F")):
        noise = generate_noise(23, paths, m.grid)
        u1 = np.array(rng.standard_normal((paths, 201)), order=order)
        u2 = np.array(rng.standard_normal((paths, 201)), order=order)
        kept1, kept2 = u1.copy(), u2.copy()
        first = simulate_open_loop(m, u1, u2, noise).x
        assert np.array_equal(u1, kept1) and np.array_equal(u2, kept2), (paths, order)
        again = simulate_open_loop(m, u1, u2, noise).x
        fresh = simulate_open_loop(m, np.ascontiguousarray(kept1), np.ascontiguousarray(kept2), noise).x
        assert np.array_equal(first, again) and np.array_equal(first, fresh), (paths, order)


def test_closed_loop_zero_weights_is_uncontrolled(eq_b200):
    m = make_model(steps=200, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    eq = solve_equilibrium(m)
    noise = generate_noise(17, 500, m.grid)
    closed = simulate_closed_loop(eq.closed_loop(), noise)
    zeros = np.zeros(201)
    open_ = simulate_open_loop(m, zeros, zeros, noise)
    # pathwise identical states and identically zero controls and q
    assert np.array_equal(closed.x, open_.x)
    assert np.all(closed.q == 0.0)
    assert np.all(closed.u1 == 0.0)
    assert np.all(closed.u2 == 0.0)


def test_closed_loop_frozen_state_without_dynamics():
    m = make_model(steps=100, A=0.0, C=0.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    eq = solve_equilibrium(m)
    noise = generate_noise(23, 32, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    assert np.all(ens.x == 1.0)
    assert np.all(ens.q == 0.0)


def test_closed_loop_zero_initial_state():
    m = make_model(steps=100, A=0.0, C=0.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0, x0=0.0)
    eq = solve_equilibrium(m)
    noise = generate_noise(29, 16, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    assert np.all(ens.x == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf fed on purpose
def test_non_finite_state_reported():
    m = make_model(steps=10, A=0.0, C=0.0)
    noise = generate_noise(1, 2, m.grid)
    bad = np.full(11, np.inf)
    with pytest.raises(NonFiniteState) as info:
        simulate_open_loop(m, bad, np.zeros(11), noise)
    assert info.value.path == 0


def _q_first_system(grid: TimeGrid) -> ClosedLoopSystem:
    """x and q with diffusion 1000, q with drift 20000 q + 1 as well: q
    overflows first on every path, and x, which reads q through a zero
    coefficient, turns NaN one step later."""
    n = grid.steps
    drift_x, drift_xhat, diff_x = (np.zeros((n + 1, 2, 2)) for _ in range(3))
    drift_x[:, 1, 1] = 20000.0
    drift_xhat[:, 1, 0] = 1.0
    diff_x[:, 0, 0] = diff_x[:, 1, 1] = 1000.0
    zeros = np.zeros((n + 1, 2))
    return ClosedLoopSystem(grid=grid, drift_x=drift_x, drift_xhat=drift_xhat, diff_x=diff_x,
                            diff_xhat=np.zeros((n + 1, 2, 2)), lx=zeros, lxhat=zeros, f=zeros,
                            xhat=DeterministicPath(nodes=np.tile([1.0, 0.0], (n + 1, 1))))


def test_non_finite_state_names_path_in_whole_ensemble():
    # the overflow model of test_cli.py::test_euler_overflow_exit_3 on the
    # bundle of paths 7..11: its first row is path 7, where x overflows at
    # step 189 and q turns NaN at 190; in the second system q goes first, at
    # step 164.  The guard names the lowest path, then the earliest step, at
    # which x or q is not finite.
    eq = solve_equilibrium(make_model(steps=200, C=1000.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0))
    noise = generate_noise(3, 5, eq.model.grid, first_path=7)
    for system, step in ((eq.closed_loop(), 189), (_q_first_system(eq.model.grid), 164)):
        with pytest.raises(NonFiniteState, match=f"non-finite state on path 7 at step {step} ") as info:
            simulate_closed_loop(system, noise)
        assert (info.value.path, info.value.step) == (7, step)


def responses(model, v1, v2, noise) -> np.ndarray:
    """The kernel's zero-start responses at every node, (N+1, K, m)."""
    return np.array([dx.copy() for dx in sensitivity_nodes(model, v1, v2, noise)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans())
def test_sensitivity_is_difference_of_open_loop_runs(seed, varying):
    # the Euler map is affine in a deterministic shift, so the zero-start
    # response equals the difference of the shifted and the baseline runs,
    # for any baseline controls (here shared u1, per-path u2) and with
    # control-dependent diffusion
    rng = np.random.default_rng(seed)
    model = random_admissible_model(rng, steps=60)
    model = dataclasses.replace(model, D1=np.copysign(max(abs(model.D1), 0.1), model.D1),
                                D2=np.copysign(max(abs(model.D2), 0.1), model.D2))
    if varying:
        model = time_varying(model)
    noise = generate_noise(int(rng.integers(1000)), 30, model.grid, first_path=5)
    u1, u2 = rng.standard_normal(61), rng.standard_normal((30, 61))
    v1, v2 = rng.standard_normal((3, 61)), rng.standard_normal((3, 61))
    dx = responses(model, v1, v2, noise)
    base = simulate_open_loop(model, u1, u2, noise).x
    for i in range(3):
        shifted = simulate_open_loop(model, u1 + v1[i], u2 + v2[i], noise).x
        scale = np.max(np.abs(shifted)) + np.max(np.abs(base))
        assert np.max(np.abs(dx[:, i].T - (shifted - base))) <= 1e-13 * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose, as in the reference loop
def test_sensitivity_non_finite_reported():
    # huge multiplicative noise overflows the response; the kernel names the
    # first step at which any direction is not finite and its lowest path
    model = make_model(steps=200, C=1000.0)
    noise = generate_noise(3, 5, model.grid, first_path=7)
    v1 = np.array([np.ones(201), np.linspace(0.0, 2.0, 201)])
    dx, dt = np.zeros((2, 5)), model.grid.dt
    finite = []
    for k in range(200):
        dx = dx * (1.0 + 0.1 * dt + 1000.0 * noise.dw[:, k]) + v1[:, k, None] * dt
        finite.append(np.isfinite(dx).all(axis=0))
    step, path = np.argwhere(~np.array(finite))[0]
    with pytest.raises(NonFiniteState) as info:
        responses(model, v1, np.zeros_like(v1), noise)
    assert (info.value.path, info.value.step) == (7 + path, step + 1)


def test_backfill_zero_forcing():
    # a path equal to its filter with zero offset coefficients stays at zero
    m = make_model(steps=100, Q1=0.0, G1=0.0)
    from lqstack.riccati import solve_follower_P
    P = solve_follower_P(m)
    xhat = DeterministicPath(nodes=np.linspace(1.0, 2.0, 101))
    u2hat = DeterministicPath(nodes=np.full(101, 0.3))
    x = np.tile(xhat.nodes, (5, 1))
    u2 = np.tile(u2hat.nodes, (5, 1))
    theta_hat = solve_follower_filter(m, P, u2hat).theta_hat
    assert np.all(theta_hat.nodes == 0.0)
    theta = backfill_theta(m, P, x, u2, xhat, u2hat, theta_hat)
    assert np.all(theta == 0.0)


def test_backfill_terminal_zero_every_path(eq_b200, ens_b200):
    u2hat = eq_b200.u2hat_path()
    theta_hat = solve_follower_filter(eq_b200.model, eq_b200.P, u2hat).theta_hat
    theta = backfill_theta(eq_b200.model, eq_b200.P, ens_b200.x[:100], ens_b200.u2[:100],
                           eq_b200.xhat_scalar_path(), u2hat, theta_hat)
    assert np.all(theta[:, -1] == 0.0)


def test_backfill_degenerate_path_matches_filter(eq_b400):
    # feeding the filter path itself reproduces the filtered offset
    eq = eq_b400
    fp = solve_follower_filter(eq.model, eq.P, eq.u2hat_path())
    theta = backfill_theta(eq.model, eq.P, fp.xhat, eq.u2hat_path(),
                           fp.xhat, eq.u2hat_path(), fp.theta_hat)
    assert np.array_equal(theta[0], fp.theta_hat.nodes)


def test_backfill_fourth_order_off_the_filter():
    # a smooth path off its filter, with exact midpoints: the deviation's RK4
    # keeps 4th order, so each halving of dt shrinks the self-gap by ~16
    def theta0(steps):
        eq = solve_equilibrium(make_model(steps=steps, D1=0.3, D2=0.2))
        u2hat = eq.u2hat_path()
        fp = solve_follower_filter(eq.model, eq.P, u2hat)
        half = fp.xhat.half_values() + 0.3 * np.sin(2.0 * np.pi * eq.model.grid.times(2))
        x = DeterministicPath(nodes=half[::2], mids=half[1::2])
        return backfill_theta(eq.model, eq.P, x, u2hat, fp.xhat, u2hat, fp.theta_hat)[0, 0]

    vals = [theta0(steps) for steps in (25, 50, 100, 200)]
    gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 12.0 <= g1 / g2 <= 20.0, gaps


def test_density_trivial_and_positivity():
    m = make_model(steps=50, h=0.0)
    noise = generate_noise(31, 100, m.grid)
    dens = density_process(m, noise)
    assert np.all(dens.z == 1.0)
    m2 = make_model(steps=50, h=1.5)
    dens2 = density_process(m2, noise)
    assert np.all(dens2.z[:, 0] == 1.0)
    assert np.all(dens2.z > 0.0)


def test_density_martingale_small():
    m = make_model(steps=50, h=1.0)
    noise = generate_noise(37, 20000, m.grid)
    zt = density_process(m, noise).z[:, -1]
    stderr = zt.std(ddof=1) / np.sqrt(len(zt))
    assert abs(zt.mean() - 1.0) <= 3.0 * stderr


def test_density_martingale_time_varying_drift():
    # the discrete mean is exactly one for any deterministic drift profile
    t = np.linspace(0, 1, 51)
    m = make_model(steps=50, h=0.5 + np.sin(3 * t))
    noise = generate_noise(41, 20000, m.grid)
    zt = density_process(m, noise).z[:, -1]
    stderr = zt.std(ddof=1) / np.sqrt(len(zt))
    assert abs(zt.mean() - 1.0) <= 3.0 * stderr


def test_open_loop_accepts_deterministic_path():
    from lqstack.filtering import DeterministicPath as DP
    m = make_model(steps=50, A=0.0, C=0.0, x0=0.0)
    noise = generate_noise(3, 4, m.grid)
    a = simulate_open_loop(m, DP(nodes=np.zeros(51)), DP(nodes=np.ones(51)), noise)
    b = simulate_open_loop(m, np.zeros(51), np.ones(51), noise)
    assert np.array_equal(a.x, b.x)


def test_ensemble_reproducible(eq_b200):
    noise = generate_noise(43, 256, eq_b200.model.grid)
    a = simulate_closed_loop(eq_b200.closed_loop(), noise)
    b = simulate_closed_loop(eq_b200.closed_loop(), generate_noise(43, 256, eq_b200.model.grid))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u2, b.u2)
