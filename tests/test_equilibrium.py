import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack.costs import pathwise_J1, pathwise_J2
from lqstack.equilibrium import (bsde_residual, drift_residuals, follower_stationarity_residual,
                                 gain_consistency_residual, leader_stationarity_residual,
                                 reconstruct_adjoints, solve_equilibrium)
from lqstack.filtering import solve_follower_filter
from lqstack.model import LQModel, sample_at
from lqstack.simulate import backfill_theta, generate_noise, simulate_closed_loop

from conftest import backfill, make_model, random_admissible_model, time_varying


def zero_weight_equilibrium(steps=100):
    return solve_equilibrium(make_model(steps=steps, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0))


def test_gains_zero_when_weights_zero():
    eq = zero_weight_equilibrium()
    assert np.all(eq.gains.lx == 0.0)
    assert np.all(eq.gains.lxhat == 0.0)
    assert np.all(eq.gains.f == 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans())
def test_zero_weights_give_exact_zeros_random_models(seed, varying):
    # Q1 = Q2 = G1 = G2 = 0: every Riccati solution, gain and cost is exactly
    # zero, whatever the dynamics and the diffusion controls.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    m = dataclasses.replace(m, Q1=0.0, Q2=0.0, G1=0.0, G2=0.0)
    if varying:
        m = time_varying(m)
    eq = solve_equilibrium(m)
    for arr in (eq.P.fine, eq.leader.p1_fine, eq.leader.p2_fine, eq.sigmas.s1, eq.sigmas.s2,
                eq.sigmas.s3, eq.gains.lx, eq.gains.lxhat, eq.gains.f):
        assert np.all(arr == 0.0)
    ens = simulate_closed_loop(eq.closed_loop(), generate_noise(seed, 20, m.grid))
    assert np.all(pathwise_J1(m, ens) == 0.0)
    assert np.all(pathwise_J2(m, ens) == 0.0)


def test_follower_gain_structure_zero_diffusion(eq_b200):
    # with D1 = D2 = 0 the cross-control term drops and the gain reduces to
    # the direct estimate row plus the adjoint-coupling row
    eq = eq_b200
    k = 60
    j = 2 * k
    p12 = eq.leader.p1[k] + eq.leader.p2[k]
    expected = eq.blocks.a6[j] + eq.blocks.b2[j] @ p12
    assert np.allclose(eq.gains.f_nodes[k], expected, rtol=0, atol=1e-15)


def test_follower_two_form_consistency(eq_b200):
    # gain form vs the filtered-feedback substitution with the offset and
    # filtered control read from the reconstructions: a pure algebraic identity
    eq = eq_b200
    model = eq.model
    pn = eq.P.values
    B1 = model.nodes("B1")
    C = model.nodes("C")
    D1 = model.nodes("D1")
    D2 = model.nodes("D2")
    si = 1.0 / (D1 * D1 * pn + model.nodes("R1"))
    xh = eq.xhat.nodes
    n = model.grid.steps
    u1_gain = np.einsum("ki,ki->k", eq.gains.f_nodes, xh)
    theta_rec = np.array([(eq.leader.p1[k] + eq.leader.p2[k])[1] @ xh[k] for k in range(n + 1)])
    u2hat = np.einsum("ki,ki->k", eq.gains.lhat_nodes, xh)
    u1_sub = -si * ((B1 + D1 * C) * pn * xh[:, 0] + B1 * theta_rec + D1 * D2 * pn * u2hat)
    scale = np.max(np.abs(u1_gain)) + 1e-300
    assert np.max(np.abs(u1_gain - u1_sub)) <= 1e-10 * scale


def test_two_form_consistency_with_diffusion_controls():
    rng = np.random.default_rng(12)
    m = random_admissible_model(rng, steps=150)
    eq = solve_equilibrium(m)
    n = m.grid.steps
    pn = eq.P.values
    B1 = m.nodes("B1")
    C = m.nodes("C")
    D1 = m.nodes("D1")
    D2 = m.nodes("D2")
    si = 1.0 / (D1 * D1 * pn + m.nodes("R1"))
    xh = eq.xhat.nodes
    u1_gain = np.einsum("ki,ki->k", eq.gains.f_nodes, xh)
    theta_rec = np.array([(eq.leader.p1[k] + eq.leader.p2[k])[1] @ xh[k] for k in range(n + 1)])
    u2hat = np.einsum("ki,ki->k", eq.gains.lhat_nodes, xh)
    u1_sub = -si * ((B1 + D1 * C) * pn * xh[:, 0] + B1 * theta_rec + D1 * D2 * pn * u2hat)
    scale = np.max(np.abs(u1_gain)) + 1e-300
    assert np.max(np.abs(u1_gain - u1_sub)) <= 1e-10 * scale


def test_lhat_is_sum_of_leader_gain_rows(eq_b200):
    assert np.array_equal(eq_b200.gains.lhat, eq_b200.gains.lx + eq_b200.gains.lxhat)


# --- Hamiltonian ---

def hamiltonian_H1(model: LQModel, x: float, u1: float, u2: float,
                   p: float, k: float, t: float) -> float:
    """Follower Hamiltonian: drift . p + diffusion . k + running cost."""
    g = model.grid
    A = sample_at(model.A, t, g)
    B1 = sample_at(model.B1, t, g)
    B2 = sample_at(model.B2, t, g)
    C = sample_at(model.C, t, g)
    D1 = sample_at(model.D1, t, g)
    D2 = sample_at(model.D2, t, g)
    Q1 = sample_at(model.Q1, t, g)
    R1 = sample_at(model.R1, t, g)
    return ((A * x + B1 * u1 + B2 * u2) * p + (C * x + D1 * u1 + D2 * u2) * k
            + 0.5 * Q1 * x * x + 0.5 * R1 * u1 * u1)


def test_hamiltonian_zero_inputs():
    m = make_model(steps=10)
    assert hamiltonian_H1(m, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5) == 0.0


def test_hamiltonian_arithmetic():
    m = make_model(steps=10, A=0.0, B1=1.0, Q1=1.0, R1=1.0)
    assert hamiltonian_H1(m, 1.0, 1.0, 0.0, 1.0, 0.0, 0.3) == 2.0


def test_hamiltonian_convex_in_control():
    m = make_model(steps=10, R1=1.7)
    h = 1e-3
    vals = [hamiltonian_H1(m, 0.4, u, 0.2, 0.9, -0.3, 0.5) for u in (0.1 - h, 0.1, 0.1 + h)]
    second = (vals[0] - 2.0 * vals[1] + vals[2]) / (h * h)
    assert second == pytest.approx(1.7, rel=1e-6)


# --- reconstructions and residuals ---

@pytest.fixture(scope="module")
def recon_b200(eq_b200, ens_b200):
    theta = backfill(eq_b200, ens_b200)
    return theta, reconstruct_adjoints(eq_b200, ens_b200, theta)


def test_structural_zero_of_adjoint_diffusion(eq_b200, ens_b200, recon_b200):
    _, recon = recon_b200
    scale = np.max(np.abs(recon.z)) + 1.0
    assert np.max(np.abs(recon.z[1])) <= 1e-9 * scale


def test_terminal_reconstruction(eq_b200, ens_b200, recon_b200):
    _, recon = recon_b200
    assert np.array_equal(eq_b200.leader.p1[-1], eq_b200.blocks.gbar)
    X_T = np.stack([ens_b200.x[-1], ens_b200.q[-1]], axis=-1)
    expected = X_T @ eq_b200.blocks.gbar.T
    scale = np.max(np.abs(expected)) + 1e-300
    assert np.max(np.abs(recon.y[:, -1].T - expected)) <= 1e-12 * scale


def test_terminal_follower_adjoint(eq_b200, ens_b200, recon_b200):
    theta, recon = recon_b200
    # p(T) = G1 x(T) exactly: terminal offset is zero and P(T) = G1
    assert np.all(theta[-1] == 0.0)
    assert np.array_equal(recon.p[-1], eq_b200.model.G1 * ens_b200.x[-1])


def test_follower_stationarity_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 200, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    theta = backfill(eq, ens)
    recon = reconstruct_adjoints(eq, ens, theta)
    stats = follower_stationarity_residual(eq, ens, recon)
    assert np.all(stats.residual == 0.0)


def test_follower_stationarity_statistical(eq_b200, ens_b200, recon_b200):
    _, recon = recon_b200
    stats = follower_stationarity_residual(eq_b200, ens_b200, recon_b200[1])
    dt = eq_b200.model.grid.dt
    tol = 3.0 * stats.stderr + 2.0 * dt * stats.scale
    assert np.all(np.abs(stats.residual) <= tol)


def test_follower_stationarity_deterministic_degenerate():
    # single path equal to the filter path, C = D1 = 0: the first-order
    # condition is pure ODE arithmetic
    m = make_model(steps=400, C=0.0)
    eq = solve_equilibrium(m)
    fp = solve_follower_filter(m, eq.P, eq.u2hat_path())
    x = fp.xhat.nodes[:, None]
    q_path = eq.xhat.nodes[:, 1][:, None]
    u1 = np.einsum("ki,ki->k", eq.gains.f_nodes, eq.xhat.nodes)
    u2 = eq.u2hat_path().nodes[:, None]
    theta = backfill_theta(m, eq.P, fp.xhat, eq.u2hat_path(), fp.xhat, eq.u2hat_path(), fp.theta_hat)
    from lqstack.simulate import TrajectoryEnsemble
    noise = generate_noise(1, 1, m.grid)
    ens = TrajectoryEnsemble(grid=m.grid, x=x, q=q_path, u1=u1, u2=u2, noise=noise)
    recon = reconstruct_adjoints(eq, ens, theta)
    stats = follower_stationarity_residual(eq, ens, recon)
    assert stats.max_abs <= 1e-8


def test_leader_stationarity_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 100, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    theta = backfill(eq, ens)
    recon = reconstruct_adjoints(eq, ens, theta)
    stats = leader_stationarity_residual(eq, ens, recon)
    assert stats.algebraic_max == 0.0


def test_leader_stationarity_algebraic(eq_b200, ens_b200, recon_b200):
    _, recon = recon_b200
    stats = leader_stationarity_residual(eq_b200, ens_b200, recon)
    assert stats.algebraic_max <= 1e-8 * stats.scale


def test_leader_stationarity_general_model():
    rng = np.random.default_rng(21)
    m = random_admissible_model(rng, steps=120)
    eq = solve_equilibrium(m)
    noise = generate_noise(8, 2000, m.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    theta = backfill(eq, ens)
    recon = reconstruct_adjoints(eq, ens, theta)
    stats = leader_stationarity_residual(eq, ens, recon)
    assert stats.algebraic_max <= 1e-8 * stats.scale


# --- drift-matching residuals ---

def test_drift_residuals_zero_for_zero_solution():
    eq = zero_weight_equilibrium()
    dr = drift_residuals(eq)
    assert dr.follower_max == 0.0
    assert dr.leader_max == 0.0


def test_drift_residual_cancelling_groups(eq_b200):
    dr = drift_residuals(eq_b200)
    for grid in (dr.follower_xhat, dr.follower_u2, dr.follower_u2hat, dr.follower_theta_hat):
        assert np.max(np.abs(grid)) <= 1e-13


def test_drift_residual_follower_order():
    def worst(steps):
        eq = solve_equilibrium(make_model(steps=steps, A=0.0, C=0.0, G1=0.0))
        return drift_residuals(eq).follower_max

    assert 3.5 < worst(400) / worst(800) < 4.5


def test_drift_residual_leader_order(eq_b200, eq_b400):
    r1 = drift_residuals(eq_b200).leader_max
    r2 = drift_residuals(eq_b400).leader_max
    assert 3.5 < r1 / r2 < 4.5


def test_drift_residual_general_model_order():
    rng = np.random.default_rng(33)
    m400 = random_admissible_model(rng, steps=400)
    import dataclasses
    m800 = dataclasses.replace(m400, grid=dataclasses.replace(m400.grid, steps=800))
    r1 = drift_residuals(solve_equilibrium(m400)).leader_max
    r2 = drift_residuals(solve_equilibrium(m800)).leader_max
    assert 3.3 < r1 / r2 < 4.7



# --- time-varying (array) coefficients ---

def time_varying_model(steps):
    t = np.linspace(0.0, 1.0, steps + 1)
    wave = np.sin(2.0 * np.pi * t)
    return make_model(steps=steps, A=0.1 * (1.0 + 0.5 * wave), R2=1.0 + 0.3 * wave,
                      B1=1.0 + 0.3 * t, Q1=1.0 + 0.5 * t, D2=0.4 + 0.2 * t, D1=0.3)


@pytest.fixture(scope="module")
def eq_time_varying():
    return {steps: solve_equilibrium(time_varying_model(steps)) for steps in (200, 400)}


def test_time_varying_drift_residual_order(eq_time_varying):
    r1 = drift_residuals(eq_time_varying[200])
    r2 = drift_residuals(eq_time_varying[400])
    assert 3.5 <= r1.follower_max / r2.follower_max <= 4.5
    assert 3.5 <= r1.leader_max / r2.leader_max <= 4.5


def test_time_varying_leader_self_convergence():
    # Array coefficients interpolate linearly, so every solve converges at
    # second order: each halving of dt shrinks the gap to the next finer
    # solve by about 4.
    eqs = [solve_equilibrium(time_varying_model(steps)) for steps in (100, 200, 400, 800)]
    quantities = {"P": lambda eq: eq.P.values, "p1": lambda eq: eq.leader.p1,
                  "p2": lambda eq: eq.leader.p2, "xhat": lambda eq: eq.xhat.nodes}
    for name, get in quantities.items():
        gaps = [np.max(np.abs(get(coarse) - get(fine)[::2])) for coarse, fine in zip(eqs, eqs[1:])]
        for g1, g2 in zip(gaps, gaps[1:]):
            assert 3.5 <= g1 / g2 <= 4.5, (name, gaps)


def test_time_varying_algebraic_identities(eq_time_varying):
    eq = eq_time_varying[200]
    sig = eq.sigmas
    scale = np.max(np.abs(sig.s1)) + 1.0
    assert np.max(np.abs(sig.s1 - (sig.s2 + sig.s3))) <= 1e-13 * scale
    assert gain_consistency_residual(eq).max_abs <= 1e-10
    noise = generate_noise(4, 200, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    theta = backfill(eq, ens)
    stats = leader_stationarity_residual(eq, ens, reconstruct_adjoints(eq, ens, theta))
    assert stats.algebraic_max <= 1e-8 * stats.scale

# --- discrete backward-step residual ---

def test_bsde_residual_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 100, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop(), noise)
    theta = backfill(eq, ens)
    recon = reconstruct_adjoints(eq, ens, theta)
    assert bsde_residual(eq, ens, recon).rms == 0.0


def test_bsde_residual_first_order():
    def rms(steps):
        eq = solve_equilibrium(make_model(steps=steps))
        noise = generate_noise(99, 2000, eq.model.grid)
        ens = simulate_closed_loop(eq.closed_loop(), noise)
        theta = backfill(eq, ens)
        recon = reconstruct_adjoints(eq, ens, theta)
        return bsde_residual(eq, ens, recon).rms

    assert 1.6 < rms(400) / rms(800) < 2.6
