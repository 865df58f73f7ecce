import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack import simulate
from lqstack.costs import (OptimalitySweep, estimate_J1, estimate_J2, follower_response, gain_grid_search,
                           grid_features, pathwise_J1, pathwise_J2, verify_follower_optimality,
                           verify_leader_optimality, verify_optimality_chunked)
from lqstack.equilibrium import bsde_residual, reconstruct_adjoints, solve_equilibrium
from lqstack.filtering import DeterministicPath
from lqstack.simulate import generate_noise, simulate_closed_loop, simulate_open_loop

from conftest import backfill, make_model, random_admissible_model, time_varying


def zero_weight_model(steps=100, **kw):
    return make_model(steps=steps, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0, **kw)


def test_costs_zero_weights():
    m = zero_weight_model(R1=0.0 + 1.0, R2=1.0)  # weights on controls only
    eq = solve_equilibrium(m)
    noise = generate_noise(1, 50, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    # equilibrium controls vanish, so both costs are exactly zero
    assert estimate_J1(m, ens).mean == 0.0
    assert estimate_J1(m, ens).stderr == 0.0
    assert estimate_J2(m, ens).mean == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from([-1.0, 0.5, 2.0]))
def test_costs_scale_with_x0_squared(seed, c):
    # The closed loop is linear and homogeneous in (state, estimate), so
    # scaling x0 by a power of two or by -1 scales every path, both controls
    # and the follower's response exactly, and both costs by c^2.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    noise = generate_noise(5, 200, m.grid)
    runs = []
    for model in (m, dataclasses.replace(m, x0=c * m.x0)):
        eq = solve_equilibrium(model)
        ens = simulate_closed_loop(eq.closed_loop(), noise)
        runs.append((ens, follower_response(eq, eq.u2hat_path()),
                     pathwise_J1(model, ens), pathwise_J2(model, ens)))
    (a, ua, j1a, j2a), (b, ub, j1b, j2b) = runs
    for name in ("x", "q", "u1", "u2"):
        assert np.array_equal(c * getattr(a, name), getattr(b, name))
    assert np.array_equal(c * ua, ub)
    assert np.array_equal(c * c * j1a, j1b)
    assert np.array_equal(c * c * j2a, j2b)


def test_cost_deterministic_constant_state():
    # zero dynamics, unit state: the running integral is exactly one half
    m = make_model(steps=160, A=0.0, B1=0.0, B2=0.0, C=0.0, G1=0.0)
    noise = generate_noise(2, 8, m.grid)
    ens = simulate_open_loop(m, np.zeros(161), np.zeros(161), noise)
    j = pathwise_J1(m, ens)
    assert np.max(np.abs(j - 0.5)) < 1e-14


def test_cost_second_moment_oracle():
    # dx = x dW doubles nothing on average but E[x^2] grows like exp(t);
    # compare against the exact discrete second moment, then that against
    # the continuum value (e-1)/2 with an O(dt) allowance.
    steps, m_paths = 400, 20000
    m = make_model(steps=steps, A=0.0, B1=0.0, B2=0.0, C=1.0, G1=0.0)
    noise = generate_noise(4, m_paths, m.grid)
    ens = simulate_open_loop(m, np.zeros(steps + 1), np.zeros(steps + 1), noise)
    est = estimate_J1(m, ens)
    dt = m.grid.dt
    second = (1.0 + dt) ** np.arange(steps + 1)  # exact Euler second moment
    j_disc = np.trapezoid(0.5 * second, dx=dt)
    assert abs(est.mean - j_disc) <= 3.0 * est.stderr
    cont = 0.5 * (np.e - 1.0)
    assert abs(j_disc - cont) <= cont * dt * 2.0


def test_deterministic_j2():
    m = make_model(steps=100, A=0.0, B1=0.0, B2=0.0, C=0.0, G2=0.0, x0=2.0)
    noise = generate_noise(5, 4, m.grid)
    ens = simulate_open_loop(m, np.zeros(101), np.zeros(101), noise)
    est = estimate_J2(m, ens)
    assert est.mean == pytest.approx(2.0, abs=1e-13)  # x0^2 / 2


@pytest.fixture(scope="module")
def eq_ens_small(eq_b200):
    noise = generate_noise(77, 4000, eq_b200.model.grid)
    return eq_b200, simulate_closed_loop(eq_b200.closed_loop(), noise)


def test_zero_direction_gives_exact_zero_differences(eq_ens_small):
    eq, ens = eq_ens_small
    n = eq.model.grid.steps
    rep = verify_follower_optimality(eq, ens, {"zero": np.zeros(n + 1)}, [0.1])
    c = rep.curves[0]
    assert np.all(c.delta_mean == 0.0)
    assert np.all(c.delta_stderr == 0.0)
    rep2 = verify_leader_optimality(eq, ens, {"zero": np.zeros(n + 1)}, [0.1])
    assert np.all(rep2.curves[0].delta_mean == 0.0)


@pytest.mark.parametrize("diffusion", [{}, {"D1": 0.3, "D2": 0.2}])
def test_zero_direction_gives_exact_zero_slope_and_curvature(diffusion):
    m = make_model(steps=60, **diffusion)
    eq = solve_equilibrium(m)
    ens = simulate_closed_loop(eq.closed_loop(), generate_noise(8, 100, m.grid))
    dirs = {"zero": np.zeros(61), "const": np.ones(61)}
    for which in ("J1", "J2"):
        _, a, b, a_const, _ = OptimalitySweep(eq, which, dirs, [0.1]).add(ens).parts[0]
        assert np.all(a == 0.0) and np.all(b == 0.0), which
        assert np.all(a_const != 0.0), which


def test_path_values_independent_of_paths_beside_it():
    # path 37 simulated among paths 0..59 and alone: each per-path value is
    # the same operations in the same order (time sums fold in node order),
    # so every bit agrees, however numpy would sum a 1-path or a 60-path chunk
    m = time_varying(make_model(steps=120, D1=0.3, D2=0.2))
    eq = solve_equilibrium(m)
    dirs = _oracle_dirs(m)

    def path_values(noise, i):
        ens = simulate_closed_loop(eq.closed_loop(), noise)
        recon = reconstruct_adjoints(eq, ens, backfill(eq, ens))
        sweeps = [OptimalitySweep(eq, which, dirs, [0.1]).add(ens).parts[0][:, i] for which in ("J1", "J2")]
        return [ens.x[i], ens.q[i], ens.u2[i], pathwise_J1(m, ens)[i], pathwise_J2(m, ens)[i], *sweeps,
                grid_features(eq, ens)[:, i], bsde_residual(eq, ens, recon).time_summed[i]]

    together = path_values(generate_noise(9, 60, m.grid), 37)
    alone = path_values(generate_noise(9, 1, m.grid, first_path=37), 0)
    for name, a, b in zip(("x", "q", "u2", "J1", "J2", "J1 sweep", "J2 sweep", "grid", "bsde"),
                          together, alone, strict=True):
        assert np.array_equal(a, b), name


def test_decoupled_quadratic_delta_closed_form():
    # all state weights zero: the baseline follower control is zero and the
    # cost difference is exactly the trapezoid of R1 (eps v)^2 / 2
    m = zero_weight_model(steps=120, R1=1.3)
    eq = solve_equilibrium(m)
    noise = generate_noise(6, 300, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    t = m.grid.times()
    v = np.sin(2 * np.pi * t) + 0.5
    rep = verify_follower_optimality(eq, ens, {"v": v}, [0.05, 0.2])
    exact = {e: 0.5 * 1.3 * e * e * np.trapezoid(v * v, dx=m.grid.dt) for e in rep.curves[0].eps}
    for e, dm, ds in zip(rep.curves[0].eps, rep.curves[0].delta_mean, rep.curves[0].delta_stderr):
        assert ds <= 1e-14
        assert dm == pytest.approx(exact[e], rel=1e-12)


def test_leader_decoupled_quadratic_lower_bound():
    # leader state weights zero: dJ2 is the control quadratic plus a
    # follower-response coupling, nonnegative up to sampling noise
    m = make_model(steps=120, Q2=0.0, G2=0.0)
    eq = solve_equilibrium(m)
    noise = generate_noise(14, 3000, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    t = m.grid.times()
    rep = verify_leader_optimality(eq, ens, {"v": np.cos(np.pi * t)}, [0.05, 0.1])
    assert rep.curves[0].min_delta_margin(3.0) >= 0.0


def test_common_random_numbers_reduce_variance(eq_ens_small):
    eq, ens = eq_ens_small
    n = eq.model.grid.steps
    rep = verify_follower_optimality(eq, ens, {"const": np.ones(n + 1)}, [0.1])
    c = rep.curves[0]
    assert np.all(c.delta_stderr < c.baseline_stderr)


def test_quadratic_structure_of_differences(eq_ens_small):
    eq, ens = eq_ens_small
    n = eq.model.grid.steps
    t = eq.model.grid.times()
    rep = verify_follower_optimality(eq, ens, {"ramp": t}, [0.05, 0.1, 0.2])
    c = rep.curves[0]
    assert c.fit_max_residual <= 3.0 * np.max(c.delta_stderr) + 1e-12


def test_stderr_scales_with_path_count(eq_b200):
    seeds_m = [(88, 2000), (88, 8000)]
    outs = []
    for seed, m_paths in seeds_m:
        noise = generate_noise(seed, m_paths, eq_b200.model.grid)
        ens = simulate_closed_loop(eq_b200.closed_loop(), noise)
        outs.append(estimate_J1(eq_b200.model, ens))
    ratio = outs[0].stderr / outs[1].stderr
    assert abs(ratio - 2.0) <= 0.4  # 1/sqrt(M): quadrupling halves stderr +-20%


def test_chunked_matches_monolithic(eq_b200, monkeypatch):
    monkeypatch.setattr(simulate, "CHUNK_PATHS", 700)
    n = eq_b200.model.grid.steps
    t = eq_b200.model.grid.times()
    dirs = {"ramp": t}
    noise = generate_noise(55, 3000, eq_b200.model.grid)
    ens = simulate_closed_loop(eq_b200.closed_loop(), noise)
    for which, verify in (("J1", verify_follower_optimality), ("J2", verify_leader_optimality)):
        mono = verify(eq_b200, ens, dirs, [0.1])
        chunked = verify_optimality_chunked(eq_b200, which, dirs, [0.1], seed=55, m=3000)
        assert np.allclose(mono.curves[0].delta_mean, chunked.curves[0].delta_mean, rtol=0, atol=1e-15)
        assert np.allclose(mono.curves[0].delta_stderr, chunked.curves[0].delta_stderr, rtol=0, atol=1e-15)


def test_leader_report_scope_label(eq_b200):
    # control-dependent diffusion: the check runs but is labelled as outside
    # the scope where a sufficiency theorem backs it; empirically the
    # equilibrium still dominates the tested deviations
    m = make_model(steps=80, D1=0.3, D2=0.4, C=0.3)
    eq = solve_equilibrium(m)
    noise = generate_noise(9, 3000, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    rep = verify_leader_optimality(eq, ens, {"const": np.ones(81)}, [0.1])
    assert not rep.proven_scope
    assert rep.curves[0].min_delta_margin(3.0) >= 0.0

    noise_b = generate_noise(3, 100, eq_b200.model.grid)
    ens_b = simulate_closed_loop(eq_b200.closed_loop(), noise_b)
    rep_b = verify_leader_optimality(eq_b200, ens_b, {"const": np.ones(201)}, [0.1])
    assert rep_b.proven_scope


def test_grid_search_zero_weights_ties():
    # zero state weights (control weights must stay positive): the
    # equilibrium control vanishes, its cost is exactly zero, and it ties the
    # zero point of the grid
    m = zero_weight_model(steps=80)
    eq = solve_equilibrium(m)
    noise = generate_noise(13, 200, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    res = gain_grid_search(eq, ens, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))
    assert res.equilibrium_mean == 0.0
    assert res.best_mean == 0.0
    assert (res.best_alpha, res.best_beta) == (0.0, 0.0)
    assert res.dominance_margin(2.0) >= 0.0


def test_grid_search_dominance_benchmark(eq_ens_small):
    eq, ens = eq_ens_small
    res = gain_grid_search(eq, ens, np.linspace(-3, 3, 7), np.linspace(-3, 3, 7))
    assert res.dominance_margin(2.0) >= 0.0
    assert res.equilibrium_mean <= res.best_mean + 2.0 * res.best_stderr


def test_follower_response_matches_gain_form(eq_b200):
    u1 = follower_response(eq_b200, eq_b200.u2hat_path())
    u1_gain = np.einsum("ki,ki->k", eq_b200.gains.f_nodes, eq_b200.xhat.nodes)
    assert np.max(np.abs(u1 - u1_gain)) <= 1e-9


# Oracles for the closed forms: each compares against a direct re-simulation
# of the perturbed controls under the same noise.

@pytest.fixture(scope="module", params=["benchmark", "control_diffusion"])
def eq_ens_oracle(request, eq_b200):
    eq = eq_b200 if request.param == "benchmark" else solve_equilibrium(
        make_model(steps=80, D1=0.3, D2=0.4, C=0.3))
    noise = generate_noise(31, 1500, eq.model.grid)
    return eq, simulate_closed_loop(eq.closed_loop(), noise)


def _oracle_dirs(model):
    t = model.grid.times()
    return {"const": np.ones(len(t)), "ramp": t, "sine": np.sin(2.0 * np.pi * t)}


def _assert_matches_resimulation(rep, resimulated_delta):
    for c in rep.curves:
        for e, dm, ds in zip(c.eps, c.delta_mean, c.delta_stderr):
            delta = resimulated_delta(c.name, e)
            assert dm == pytest.approx(delta.mean(), rel=1e-12)
            assert ds == pytest.approx(delta.std(ddof=1) / np.sqrt(len(delta)), rel=1e-12)


def test_follower_sweep_matches_resimulation(eq_ens_oracle):
    eq, ens = eq_ens_oracle
    model = eq.model
    dirs = _oracle_dirs(model)
    base = pathwise_J1(model, simulate_open_loop(model, ens.u1, ens.u2, ens.noise))

    def resimulated_delta(name, e):
        run = simulate_open_loop(model, ens.u1 + e * dirs[name], ens.u2, ens.noise)
        return pathwise_J1(model, run) - base

    _assert_matches_resimulation(verify_follower_optimality(eq, ens, dirs, [0.2]), resimulated_delta)


def test_leader_sweep_matches_resimulation(eq_ens_oracle):
    eq, ens = eq_ens_oracle
    model = eq.model
    dirs = _oracle_dirs(model)
    u2hat = eq.u2hat_path()

    def run(e, v):
        shifted = DeterministicPath(nodes=u2hat.nodes + e * v,
                                    mids=u2hat.half_values()[1::2] + e * 0.5 * (v[:-1] + v[1:]))
        u1 = follower_response(eq, shifted)
        return pathwise_J2(model, simulate_open_loop(model, u1, ens.u2 + e * v, ens.noise))

    base = run(0.0, np.zeros(model.grid.steps + 1))
    _assert_matches_resimulation(verify_leader_optimality(eq, ens, dirs, [0.2]),
                                 lambda name, e: run(e, dirs[name]) - base)


def test_grid_search_matches_resimulation(eq_ens_oracle):
    eq, ens = eq_ens_oracle
    model = eq.model
    xhat = eq.xhat_scalar_path().nodes
    alphas, betas = [-3.0, 0.4, 2.5], [-1.5, 0.0, 3.0]
    res = gain_grid_search(eq, ens, alphas, betas)
    for i, (a, b) in enumerate(zip(alphas, betas)):
        est = estimate_J1(model, simulate_open_loop(model, a * xhat + b, ens.u2, ens.noise))
        assert res.cost_mean[i, i] == pytest.approx(est.mean, rel=1e-10)
        assert res.cost_stderr[i, i] == pytest.approx(est.stderr, rel=1e-10)
