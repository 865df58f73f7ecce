import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack import simulate
from lqstack.cli import main
from lqstack.equilibrium import reconstruct_adjoints, solve_equilibrium
from lqstack.errors import NonFiniteState, SolverError
from lqstack.filtering import solve_follower_filter
from lqstack.model import TimeGrid
from lqstack.riccati import rk4_half_grid
from lqstack.simulate import (ClosedLoopSystem, NoiseBundle, TrajectoryEnsemble, backfill_theta, density_process,
                              generate_noise, sensitivity_nodes, simulate_closed_loop, simulate_open_loop)

from conftest import (RNG91, backfill, make_model, model_to_dict, pathwise_theta, random_admissible_model,
                      time_varying)


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
    assert np.array_equal(small.dw, large.dw[:, :50])
    assert np.array_equal(small.dwbar, large.dwbar[:50])
    tail = generate_noise(7, 150, grid, first_path=50)
    assert np.array_equal(tail.dw, large.dw[:, 50:])
    assert np.array_equal(tail.dwbar, large.dwbar[50:])


def _path_stream(seed: int, path: int, n: int) -> np.ndarray:
    """A path's first n normals from a generator built for that path alone:
    Philox keyed by the seed, the path index in the last counter word."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, 0, 0, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal(n)


def test_noise_rows_are_path_streams():
    # one generator keyed once per call restores its counter for each path;
    # a path's rows equal those of a freshly built generator whatever paths
    # were drawn before it: at the 64-path buffer boundary, the 2000-path
    # chunk boundary and a path index beyond 32 bits.  dw is the stream's
    # first N normals and dwbar its normal N, each times sqrt(dt)
    grid = TimeGrid(1.0, 8)
    root = np.sqrt(grid.dt)
    large = generate_noise(19, 2001, grid)
    far = generate_noise(19, 2, grid, first_path=2**40 - 1)
    for bundle, path in [(large, p) for p in (0, 63, 64, 1999, 2000)] + [(far, 2**40)]:
        row = path - bundle.first_path
        assert np.array_equal(bundle.dw[:, row], _path_stream(19, path, 8) * root), path
        assert bundle.dwbar[row] == _path_stream(19, path, 9)[8] * root, path


def test_noise_fields_set_at_construction():
    # every field is drawn by generate_noise; reading the bundle draws nothing
    bundle = generate_noise(19, 70, TimeGrid(1.0, 8))
    drawn = dict(vars(bundle))
    assert set(drawn) == {f.name for f in dataclasses.fields(NoiseBundle)}
    assert bundle.dw.shape == (8, 70) and bundle.dwbar.shape == (70,) and bundle.m == 70
    assert vars(bundle).keys() == drawn.keys() and all(vars(bundle)[k] is v for k, v in drawn.items())


def test_head_copies_observation_noise():
    # the head's dwbar is a copy of the ensemble's first entries.  Every
    # per-path array is published as stored, node-major and C-contiguous
    # with paths along the last axis, and the head holds copies
    eq = solve_equilibrium(make_model(steps=20))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(3, 100, eq.model.grid, first_path=50))
    head = ens.head(3)
    assert np.array_equal(head.noise.dwbar, ens.noise.dwbar[:3])
    recon = reconstruct_adjoints(eq, ens)
    layout = {(21, 100): [ens.x, ens.q, ens.u2, recon.p, recon.k],
              (20, 100): [ens.noise.dw], (100,): [ens.noise.dwbar], (2, 21, 100): [recon.y, recon.z],
              (21, 3): [head.x, head.q, head.u2], (20, 3): [head.noise.dw], (3,): [head.noise.dwbar]}
    for shape, arrays in layout.items():
        for a in arrays:
            assert a.shape == shape and a.flags.c_contiguous, shape
    for a, b in ((head.x, ens.x), (head.q, ens.q), (head.u1, ens.u1), (head.u2, ens.u2),
                 (head.noise.dw, ens.noise.dw), (head.noise.dwbar, ens.noise.dwbar)):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_each_path_drawn_once(tmp_path, monkeypatch, command):
    # a command draws each path's noise in one pass, one keyed stream per chunk
    drawn = []

    def increments(seed, m, grid, first_path):
        drawn.append((first_path, m))
        return draw(seed, m, grid, first_path)

    draw = simulate._increments
    monkeypatch.setattr(simulate, "_increments", increments)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(make_model(steps=40, D1=0.3, D2=0.2))))
    assert main([command, "--model", str(path), "--out", str(tmp_path / "out"), "--paths", "300"]) == 0
    assert drawn == [(0, 300)]


def test_one_path_bundle_is_row_of_larger_bundle():
    grid = TimeGrid(1.0, 8)
    large = generate_noise(7, 200, grid)
    for path in (0, 63, 64, 199):
        single = generate_noise(7, 1, grid, first_path=path)
        assert np.array_equal(single.dw[:, 0], large.dw[:, path]), path
        assert single.dwbar[0] == large.dwbar[path], path


def test_seeds_give_different_rows():
    grid = TimeGrid(1.0, 8)
    a, b = generate_noise(7, 100, grid), generate_noise(8, 100, grid)
    assert not np.any(a.dw == b.dw)
    assert not np.any(a.dwbar == b.dwbar)


def test_noise_rejects_negative_first_path():
    with pytest.raises(ValueError, match="must lie in"):
        generate_noise(7, 1, TimeGrid(1.0, 8), first_path=-1)


def test_noise_rejects_paths_beyond_counter_word():
    # the path index fills one 64-bit counter word: path 2**64 - 1 is the last
    grid = TimeGrid(1.0, 8)
    last = generate_noise(7, 1, grid, first_path=2**64 - 1)
    assert np.array_equal(last.dw[:, 0], _path_stream(7, 2**64 - 1, 8) * np.sqrt(grid.dt))
    with pytest.raises(ValueError, match="must lie in"):
        generate_noise(7, 2, grid, first_path=2**64 - 1)


def test_noise_moments():
    # CLT bound on the mean and near-exact variance of the increments.
    grid = TimeGrid(1.0, 2)
    noise = generate_noise(11, 500000, grid)
    dt = grid.dt
    dw = noise.dw[0]
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
    assert np.max(np.abs(ens.x[-1] - 1.0)) < 1e-12


def test_open_loop_mean_matches_exponential():
    # deterministic growth: the Euler mean carries only the O(dt) quadrature
    # bias, bounded by e * dt
    m = make_model(steps=400, A=1.0, C=0.0)
    noise = generate_noise(5, 1000, m.grid)
    zeros = np.zeros(401)
    ens = simulate_open_loop(m, zeros, zeros, noise)
    mean = ens.x[-1].mean()
    stderr = ens.x[-1].std(ddof=1) / np.sqrt(ens.m)
    assert abs(mean - np.e) <= 3.0 * stderr + np.e * m.grid.dt


def test_open_loop_weak_convergence_rate():
    # halving dt halves the mean error (deterministic variant, pure rate)
    def mean_error(steps):
        m = make_model(steps=steps, A=1.0, C=0.0)
        noise = generate_noise(5, 4, m.grid)
        ens = simulate_open_loop(m, np.zeros(steps + 1), np.zeros(steps + 1), noise)
        return abs(ens.x[-1, 0] - np.e)

    assert 1.7 < mean_error(100) / mean_error(200) < 2.4


def test_open_loop_per_path_controls():
    m = make_model(steps=50, A=0.0, C=0.0, x0=0.0)
    noise = generate_noise(9, 3, m.grid)
    u2 = np.column_stack([np.full(51, 0.0), np.full(51, 1.0), np.full(51, 2.0)])
    ens = simulate_open_loop(m, np.zeros(51), u2, noise)
    assert abs(ens.x[-1, 0]) < 1e-12
    assert abs(ens.x[-1, 1] - 1.0) < 1e-12
    assert abs(ens.x[-1, 2] - 2.0) < 1e-12


def test_open_loop_leaves_per_path_controls_unchanged():
    # a one-path chunk's (N+1, 1) control and a Fortran-ordered control are
    # read in step blocks that can be views of the caller's array; the
    # kernel must not write to them, so a rerun with the same controls
    # (as the optimality sweeps and the grid search make) sees the same x
    m = make_model(steps=200, B1=0.7, B2=1.3, D1=0.3, D2=0.2)
    rng = np.random.default_rng(5)
    for paths, order in ((1, "C"), (40, "F")):
        noise = generate_noise(23, paths, m.grid)
        u1 = np.array(rng.standard_normal((201, paths)), order=order)
        u2 = np.array(rng.standard_normal((201, paths)), order=order)
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
    closed = simulate_closed_loop(eq.closed_loop, noise)
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
    ens = simulate_closed_loop(eq.closed_loop, noise)
    assert np.all(ens.x == 1.0)
    assert np.all(ens.q == 0.0)


def test_closed_loop_zero_initial_state():
    m = make_model(steps=100, A=0.0, C=0.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0, x0=0.0)
    eq = solve_equilibrium(m)
    noise = generate_noise(29, 16, m.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    assert np.all(ens.x == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf fed on purpose
def test_non_finite_state_reported():
    m = make_model(steps=10, A=0.0, C=0.0)
    noise = generate_noise(1, 2, m.grid)
    bad = np.full(11, np.inf)
    with pytest.raises(NonFiniteState) as info:
        simulate_open_loop(m, bad, np.zeros(11), noise)
    assert info.value.path == 0


def test_open_loop_rejects_half_grid_controls():
    # a deterministic path is a (2N+1,) half-grid array; its first N+1 samples are not the nodes
    m = make_model(steps=10)
    noise = generate_noise(1, 2, m.grid)
    with pytest.raises(ValueError):
        simulate_open_loop(m, np.zeros(11), np.zeros(21), noise)


def _q_first_system(grid: TimeGrid) -> ClosedLoopSystem:
    """x and q with diffusion 1000, q with drift 20000 q + 1 as well: q
    overflows first on every path, and x, which reads q through a zero
    coefficient, turns NaN one step later."""
    n = grid.steps
    drift_x, drift_xhat, diff_x = (np.zeros((2 * n + 1, 2, 2)) for _ in range(3))
    drift_x[:, 1, 1] = 20000.0
    drift_xhat[:, 1, 0] = 1.0
    diff_x[:, 0, 0] = diff_x[:, 1, 1] = 1000.0
    zeros = np.zeros((2 * n + 1, 2))
    return ClosedLoopSystem(grid=grid, drift_x=drift_x, drift_xhat=drift_xhat, diff_x=diff_x,
                            diff_xhat=np.zeros((2 * n + 1, 2, 2)), lx=zeros, lxhat=zeros, f=zeros,
                            xhat=np.tile([1.0, 0.0], (2 * n + 1, 1)))


def _first_non_finite(system: ClosedLoopSystem, noise) -> tuple[int, int]:
    """(path, step) at which a plain per-path Euler loop over the noise rows
    first leaves the finite numbers: the lowest such path, then its earliest
    step."""
    xh = system.xhat[::2]
    dt = system.grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i, dw in enumerate(noise.dw.T):
            state = xh[0].copy()
            for k in range(system.grid.steps):
                drift = system.drift_x[2 * k] @ state + system.drift_xhat[2 * k] @ xh[k]
                diffusion = system.diff_x[2 * k] @ state + system.diff_xhat[2 * k] @ xh[k]
                state = state + drift * dt + diffusion * dw[k]
                if not np.isfinite(state).all():
                    return noise.first_path + i, k + 1
    raise AssertionError("every path stays finite")


def test_non_finite_state_names_path_in_whole_ensemble():
    # the overflow model of test_cli.py::test_euler_overflow_exit_3 on the
    # bundle of paths 7..11, where x overflows on every path (and q turns NaN
    # a step later); in the second system q overflows first.  The guard names
    # the lowest path, then the earliest step, at which x or q is not finite,
    # as the plain per-path loop finds them.
    eq = solve_equilibrium(make_model(steps=200, C=1000.0, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0))
    noise = generate_noise(3, 5, eq.model.grid, first_path=7)
    for system in (eq.closed_loop, _q_first_system(eq.model.grid)):
        path, step = _first_non_finite(system, noise)
        with pytest.raises(NonFiniteState, match=f"non-finite state on path {path} at step {step} ") as info:
            simulate_closed_loop(system, noise)
        assert (info.value.path, info.value.step) == (path, step)


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
    u1, u2 = rng.standard_normal(61), rng.standard_normal((61, 30))
    v1, v2 = rng.standard_normal((3, 61)), rng.standard_normal((3, 61))
    dx = responses(model, v1, v2, noise)
    base = simulate_open_loop(model, u1, u2, noise).x
    for i in range(3):
        shifted = simulate_open_loop(model, u1 + v1[i], u2 + v2[i][:, None], noise).x
        scale = np.max(np.abs(shifted)) + np.max(np.abs(base))
        assert np.max(np.abs(dx[:, i] - (shifted - base))) <= 1e-13 * scale


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
        dx = dx * (1.0 + 0.1 * dt + 1000.0 * noise.dw[k]) + v1[:, k, None] * dt
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
    xhat = np.linspace(1.0, 2.0, 101)
    u2hat = np.full(101, 0.3)
    x = np.tile(xhat[:, None], (1, 5))
    u2 = np.tile(u2hat[:, None], (1, 5))
    theta_hat = solve_follower_filter(m, P, u2hat).theta_hat
    assert np.all(theta_hat[::2] == 0.0)
    theta = pathwise_theta(m, P, x, u2, xhat, u2hat, theta_hat)
    assert np.all(theta == 0.0)


def test_backfill_terminal_zero_every_path(eq_b200, ens_b200):
    u2hat = eq_b200.u2hat
    theta_hat = eq_b200.follower_filter.theta_hat
    theta = pathwise_theta(eq_b200.model, eq_b200.P, ens_b200.x[:, :100], ens_b200.u2[:, :100],
                           eq_b200.closed_loop.xhat[:, 0], u2hat, theta_hat)
    assert np.all(theta[-1] == 0.0)


def test_backfill_degenerate_path_matches_filter(eq_b400):
    # feeding the filter path itself reproduces the filtered offset
    eq = eq_b400
    fp = eq.follower_filter
    theta = pathwise_theta(eq.model, eq.P, fp.xhat, eq.u2hat,
                           fp.xhat, eq.u2hat, fp.theta_hat)
    assert np.array_equal(theta[:, 0], fp.theta_hat[::2])


def test_backfill_fourth_order_off_the_filter():
    # a smooth path off its filter, with exact midpoints: the deviation's RK4
    # keeps 4th order, so each halving of dt shrinks the self-gap by ~16
    def theta0(steps):
        eq = solve_equilibrium(make_model(steps=steps, D1=0.3, D2=0.2))
        u2hat = eq.u2hat
        fp = eq.follower_filter
        x = fp.xhat + 0.3 * np.sin(2.0 * np.pi * np.linspace(0.0, eq.model.grid.horizon, 2 * steps + 1))
        return pathwise_theta(eq.model, eq.P, x, u2hat, fp.xhat, u2hat, fp.theta_hat)[0, 0]

    vals = [theta0(steps) for steps in (25, 50, 100, 200)]
    gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 12.0 <= g1 / g2 <= 20.0, gaps


def test_offset_gain_fourth_order():
    # lambda(0) on constant coefficients: the RK4 solve keeps 4th order, so
    # each halving of dt shrinks the self-gap by ~16
    vals = [solve_equilibrium(make_model(steps=steps, D1=0.3, D2=0.2)).offset_gain[0, 0]
            for steps in (25, 50, 100, 200, 400)]
    gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 12.0 <= g1 / g2 <= 20.0, gaps


def test_offset_gain_exact_zeros():
    # on the standard model the forcing c + c2 lx cancels exactly; with
    # Q1 = G1 = 0, P = 0 leaves no forcing at all
    for model in (make_model(steps=100), make_model(steps=100, D1=0.3, D2=0.2, Q1=0.0, G1=0.0)):
        assert np.all(solve_equilibrium(model).offset_gain == 0.0)


def test_offset_gain_not_finite_raises():
    # an overflowing gain is reported as a solver error, not as a numpy warning
    eq = solve_equilibrium(make_model(steps=20, D1=0.3, D2=0.2))
    with pytest.raises(SolverError, match="offset gain is not finite"):
        backfill_theta(eq.model, eq.P, np.full_like(eq.closed_loop.drift_x, 1e300), eq.closed_loop.lx)


@pytest.mark.parametrize("varying", [False, True])
def test_offset_gain_is_the_pathwise_offset_along_the_mean_flow(varying):
    # from a unit deviation D(t_k) = e_i the conditional mean of D is the
    # flow of the closed loop's drift fx; the oracle's theta - theta_hat along
    # X = Xhat + that flow (on the half grid, so nothing is interpolated) is
    # lambda(t_k)_i up to the two 4th-order solves (about 1e-10 here)
    model = make_model(steps=200, **RNG91)
    eq = solve_equilibrium(time_varying(model) if varying else model)
    fx, lx, xhat = eq.closed_loop.drift_x, eq.closed_loop.lx, eq.closed_loop.xhat
    theta_hat = eq.follower_filter.theta_hat
    for k in (50, 100, 150):
        for i in range(2):
            d = np.zeros((401, 2))
            d[2 * k:] = rk4_half_grid(lambda j, y: tuple((fx[j + 2 * k] @ y).tolist()), tuple(np.eye(2)[i].tolist()),
                                      eq.model.grid.dt, 200 - k, fail=SolverError)
            theta = pathwise_theta(eq.model, eq.P, xhat[:, 0] + d[:, 0], eq.u2hat + np.einsum("ji,ji->j", lx, d),
                                   xhat[:, 0], eq.u2hat, theta_hat)
            assert abs(theta[k, 0] - theta_hat[2 * k] - eq.offset_gain[2 * k, i]) <= 1e-8, (k, i)


def test_offset_gain_is_the_regression_of_the_pathwise_offset():
    # the adapted offset is the conditional mean of the pathwise one: at
    # each probed node the least-squares fit of the oracle's theta - theta_hat
    # on D = X - Xhat recovers lambda within 4 heteroscedasticity-robust
    # (sandwich) standard errors; the Euler paths bias the fit by O(dt), 6e-4 here
    eq = solve_equilibrium(make_model(steps=200, **RNG91))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(21, 4000, eq.model.grid))
    e = backfill(eq, ens) - eq.follower_filter.theta_hat[::2, None]
    d = np.stack([ens.x - eq.closed_loop.xhat[::2, 0, None], ens.q - eq.closed_loop.xhat[::2, 1, None]], axis=-1)
    lam = eq.offset_gain[::2]
    assert np.max(np.abs(lam[:, 0])) > 0.1
    for k in (50, 100, 150):
        inv = np.linalg.inv(d[k].T @ d[k])
        coef = inv @ d[k].T @ e[k]
        resid = e[k] - d[k] @ coef
        stderr = np.sqrt(np.diag(inv @ ((d[k] * resid[:, None] ** 2).T @ d[k]) @ inv))
        assert np.all(np.abs(coef - lam[k]) <= 4.0 * stderr), (k, coef, lam[k], stderr)


def test_adapted_adjoints_are_the_offset_and_its_diffusion():
    # p = P x + theta_hat + lambda . D, and k = P (C x + D1 u1 + D2 u2) plus
    # the offset's diffusion beta = lambda . (gx X + gxh Xhat), to rounding
    eq = solve_equilibrium(make_model(steps=100, **RNG91))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(4, 200, eq.model.grid))
    recon = reconstruct_adjoints(eq, ens)
    model, cl, lam = eq.model, eq.closed_loop, eq.offset_gain[::2]
    pn, C, D1, D2 = (a[:, None] for a in (eq.P.p[::2], *(model.nodes(k) for k in ("C", "D1", "D2"))))
    X = np.stack([ens.x, ens.q], axis=-1)
    xh = cl.xhat[::2, None, :]
    theta = eq.follower_filter.theta_hat[::2, None] + np.einsum("ki,kmi->km", lam, X - xh)
    G = np.einsum("kij,kmj->kmi", cl.diff_x[::2], X) + (cl.diff_xhat[::2] @ cl.xhat[::2, :, None])[:, None, :, 0]
    k = pn * (C * ens.x + D1 * ens.u1[:, None] + D2 * ens.u2) + np.einsum("ki,kmi->km", lam, G)
    for got, want in ((recon.p, pn * ens.x + theta), (recon.k, k)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_adapted_offset_terminal_zero_every_path():
    # lambda(T) = 0 and theta_hat(T) = 0: p(T) = G1 x(T) exactly on every path
    eq = solve_equilibrium(make_model(steps=100, **RNG91))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(4, 200, eq.model.grid))
    assert np.all(eq.offset_gain[-1] == 0.0)
    assert np.array_equal(reconstruct_adjoints(eq, ens).p[-1], eq.model.G1 * ens.x[-1])


def test_adapted_offset_on_its_filter_path():
    # a path equal to its filter has D = 0, so p = P xhat + theta_hat: exactly
    # where lambda = 0; to rounding where it is not, since p is read as
    # w . X + (theta_hat - lambda . Xhat)
    for model in (make_model(steps=100), make_model(steps=100, **RNG91)):
        eq = solve_equilibrium(model)
        xh = eq.closed_loop.xhat[::2]
        ens = TrajectoryEnsemble(grid=model.grid, x=xh[:, :1].copy(), q=xh[:, 1:].copy(), u1=np.zeros(101),
                                 u2=np.zeros((101, 1)), noise=generate_noise(1, 1, model.grid))
        p = reconstruct_adjoints(eq, ens).p[:, 0]
        expected = eq.P.p[::2] * xh[:, 0] + eq.follower_filter.theta_hat[::2]
        if np.any(eq.offset_gain):
            assert np.max(np.abs(p - expected)) <= 1e-14 * np.max(np.abs(eq.P.p[::2] * xh[:, 0]))
        else:
            assert np.array_equal(p, expected)


def test_density_trivial_and_positivity():
    m = make_model(steps=50, h=0.0)
    noise = generate_noise(31, 100, m.grid)
    assert np.all(density_process(m, noise) == 1.0)
    m2 = make_model(steps=50, h=1.5)
    assert np.all(density_process(m2, noise) > 0.0)


def test_density_is_closed_form():
    # with s = sum_j h(t_j)^2 over the left points, the Ito exponent of a
    # deterministic h has the law of sqrt(s) dwbar - s dt / 2; z_T is that
    # closed form bit for bit, and a one-path bundle gives its column
    t = np.linspace(0, 1, 51)
    m = make_model(steps=50, h=0.5 + np.sin(3 * t))
    noise = generate_noise(31, 100, m.grid)
    s = np.sum(m.nodes("h")[:-1] ** 2)
    expected = np.exp(np.sqrt(s) * noise.dwbar - 0.5 * m.grid.dt * s)
    assert np.array_equal(density_process(m, noise), expected)
    singles = [density_process(m, generate_noise(31, 1, m.grid, first_path=path)) for path in range(10)]
    assert np.array_equal(np.concatenate(singles), expected[:10])


def test_density_martingale_small():
    t = np.linspace(0, 1, 51)
    m = make_model(steps=50, h=1.0 + 0.5 * np.sin(2 * np.pi * t))
    noise = generate_noise(37, 20000, m.grid)
    zt = density_process(m, noise)
    stderr = zt.std(ddof=1) / np.sqrt(len(zt))
    assert abs(zt.mean() - 1.0) <= 4.0 * stderr


def test_density_martingale_time_varying_drift():
    # the discrete mean is exactly one for any deterministic drift profile
    t = np.linspace(0, 1, 51)
    m = make_model(steps=50, h=0.5 + np.sin(3 * t))
    noise = generate_noise(41, 20000, m.grid)
    zt = density_process(m, noise)
    stderr = zt.std(ddof=1) / np.sqrt(len(zt))
    assert abs(zt.mean() - 1.0) <= 3.0 * stderr


def test_ensemble_reproducible(eq_b200):
    noise = generate_noise(43, 256, eq_b200.model.grid)
    a = simulate_closed_loop(eq_b200.closed_loop, noise)
    b = simulate_closed_loop(eq_b200.closed_loop, generate_noise(43, 256, eq_b200.model.grid))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u2, b.u2)
