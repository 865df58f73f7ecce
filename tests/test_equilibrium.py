import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack.cli import Tolerances
from lqstack.costs import (OptimalitySweep, pathwise_J1, pathwise_J2, verify_follower_optimality,
                           verify_leader_optimality)
from lqstack.equilibrium import (Bsde, FollowerStationarity, LeaderStationarity, _peak, bsde_residual,
                                 closed_loop_matrices, drift_residuals, fold_chunks,
                                 follower_stationarity_residual, gain_consistency_residual,
                                 leader_stationarity_residual, reconstruct_adjoints, solve_equilibrium)
from lqstack.model import LQModel, TimeGrid
from lqstack.riccati import FollowerRiccati
from lqstack.simulate import generate_noise, simulate_closed_loop

from conftest import RNG91, make_model, random_admissible_model, sample_at, time_varying


def zero_weight_equilibrium(steps=100):
    return solve_equilibrium(make_model(steps=steps, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0))


def test_gains_zero_when_weights_zero():
    eq = zero_weight_equilibrium()
    assert np.all(eq.closed_loop.lx == 0.0)
    assert np.all(eq.closed_loop.lxhat == 0.0)
    assert np.all(eq.closed_loop.f == 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans())
def test_zero_weights_give_exact_zeros_random_models(seed, varying):
    # Q1 = Q2 = G1 = G2 = 0: every Riccati solution, gain, cost and residual
    # is exactly zero, whatever the dynamics and the diffusion controls.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    m = dataclasses.replace(m, Q1=0.0, Q2=0.0, G1=0.0, G2=0.0)
    if varying:
        m = time_varying(m)
    eq = solve_equilibrium(m)
    for arr in (eq.P.p, eq.leader.p1, eq.leader.p2, eq.sigmas.s1, eq.sigmas.s2,
                eq.sigmas.s3, eq.closed_loop.lx, eq.closed_loop.lxhat, eq.closed_loop.f):
        assert np.all(arr == 0.0)
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(seed, 20, m.grid))
    assert np.all(pathwise_J1(m, ens) == 0.0)
    assert np.all(pathwise_J2(m, ens) == 0.0)
    dr = drift_residuals(eq)
    assert dr.follower_max == 0.0
    assert dr.leader_max == 0.0
    recon = reconstruct_adjoints(eq, ens)
    assert np.all(follower_stationarity_residual(eq, ens, recon).residual == 0.0)
    assert leader_stationarity_residual(eq, ens, recon).algebraic_max == 0.0
    assert bsde_residual(eq, ens, recon).rms == 0.0


def leader_xhat_matrix(blocks, leader, sigmas):
    """The filtered augmented state's drift written from the blocks directly:
    a1 + a2e + bb12 (p1 + p2) + cc (s2 + s3) - e13 s1 on the half grid."""
    out = blocks.a1 + blocks.a2e
    out += blocks.bb12 @ (leader.p1 + leader.p2)
    out += blocks.cc @ (sigmas.s2 + sigmas.s3)
    out -= blocks.e13 @ sigmas.s1
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans())
def test_xhat_drift_is_closed_loop_drift(seed, varying):
    # X-hat is the conditional mean of the closed loop, so its drift is the
    # closed loop's drift_x + drift_xhat; the two formulas agree through the
    # block identity bb - e11 = bb12, which D1, D2 != 0 exercise.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    if varying:
        m = time_varying(m)
    eq = solve_equilibrium(m)
    bb12 = eq.blocks.bb - eq.blocks.e11
    assert np.max(np.abs(bb12 - eq.blocks.bb12)) <= 1e-13 * np.max(np.abs(eq.blocks.bb12))
    oracle = leader_xhat_matrix(eq.blocks, eq.leader, eq.sigmas)
    fx, fxh, _, _ = closed_loop_matrices(eq.blocks, eq.leader, eq.sigmas)
    assert np.max(np.abs(fx + fxh - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert np.array_equal(eq.closed_loop.drift_x, fx)
    assert np.array_equal(eq.closed_loop.drift_xhat, fxh)


def test_follower_gain_structure_zero_diffusion(eq_b200):
    # with D1 = D2 = 0 the cross-control term drops and the gain reduces to
    # the direct estimate row plus the adjoint-coupling row
    eq = eq_b200
    j = 2 * 60
    p12 = eq.leader.p1[j] + eq.leader.p2[j]
    expected = eq.blocks.a6[j] + eq.blocks.b2[j] @ p12
    assert np.allclose(eq.closed_loop.f[j], expected, rtol=0, atol=1e-15)


def test_follower_two_form_consistency(eq_b200):
    # gain form vs the filtered-feedback substitution with the offset and
    # filtered control read from the reconstructions: a pure algebraic identity
    eq = eq_b200
    model = eq.model
    pn = eq.P.p[::2]
    B1 = model.nodes("B1")
    C = model.nodes("C")
    D1 = model.nodes("D1")
    D2 = model.nodes("D2")
    si = 1.0 / (D1 * D1 * pn + model.nodes("R1"))
    xh = eq.closed_loop.xhat[::2]
    n = model.grid.steps
    u1_gain = np.einsum("ki,ki->k", eq.closed_loop.f[::2], xh)
    theta_rec = np.array([(eq.leader.p1[2 * k] + eq.leader.p2[2 * k])[1] @ xh[k] for k in range(n + 1)])
    u2hat = np.einsum("ki,ki->k", eq.closed_loop.lhat[::2], xh)
    u1_sub = -si * ((B1 + D1 * C) * pn * xh[:, 0] + B1 * theta_rec + D1 * D2 * pn * u2hat)
    scale = np.max(np.abs(u1_gain)) + 1e-300
    assert np.max(np.abs(u1_gain - u1_sub)) <= 1e-10 * scale


def test_two_form_consistency_with_diffusion_controls():
    rng = np.random.default_rng(12)
    m = random_admissible_model(rng, steps=150)
    eq = solve_equilibrium(m)
    n = m.grid.steps
    pn = eq.P.p[::2]
    B1 = m.nodes("B1")
    C = m.nodes("C")
    D1 = m.nodes("D1")
    D2 = m.nodes("D2")
    si = 1.0 / (D1 * D1 * pn + m.nodes("R1"))
    xh = eq.closed_loop.xhat[::2]
    u1_gain = np.einsum("ki,ki->k", eq.closed_loop.f[::2], xh)
    theta_rec = np.array([(eq.leader.p1[2 * k] + eq.leader.p2[2 * k])[1] @ xh[k] for k in range(n + 1)])
    u2hat = np.einsum("ki,ki->k", eq.closed_loop.lhat[::2], xh)
    u1_sub = -si * ((B1 + D1 * C) * pn * xh[:, 0] + B1 * theta_rec + D1 * D2 * pn * u2hat)
    scale = np.max(np.abs(u1_gain)) + 1e-300
    assert np.max(np.abs(u1_gain - u1_sub)) <= 1e-10 * scale


def test_lhat_is_sum_of_leader_gain_rows(eq_b200):
    assert np.array_equal(eq_b200.closed_loop.lhat, eq_b200.closed_loop.lx + eq_b200.closed_loop.lxhat)


def test_each_equilibrium_array_has_one_name():
    # Walking the solution through its dataclasses and tuples reaches every
    # array, and the follower's solve, by one path, and no two arrays share
    # memory; the model and its grid are inputs and are not walked.  The one
    # array with many names is the structural zero of p1 = diag(pi, 0): one
    # zero array holds p1's zero entries in leader.terms.p1 and the zero
    # second row of each product p1 b in leader.terms.
    eq = solve_equilibrium(make_model(steps=40, D1=0.3, D2=0.2))
    paths, arrays = {}, {}

    def walk(obj, path):
        if isinstance(obj, (LQModel, TimeGrid)):
            return
        if isinstance(obj, (np.ndarray, FollowerRiccati)):
            paths.setdefault(id(obj), []).append(path)
        if isinstance(obj, np.ndarray):
            arrays[id(obj)] = obj
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}")
        elif isinstance(obj, tuple):
            for i, item in enumerate(obj):
                walk(item, f"{path}.{obj._fields[i]}" if hasattr(obj, "_fields") else f"{path}[{i}]")

    walk(eq, "eq")
    zero = eq.leader.terms.p1[3]
    assert not np.any(zero)
    assert [p for key, p in paths.items() if len(p) > 1 and key != id(zero)] == []
    assert [(paths[i][0], paths[j][0]) for i, j in itertools.combinations(arrays, 2)
            if np.shares_memory(arrays[i], arrays[j])] == []


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
    return reconstruct_adjoints(eq_b200, ens_b200)


def test_structural_zero_of_adjoint_diffusion(eq_b200, ens_b200, recon_b200):
    recon = recon_b200
    scale = np.max(np.abs(recon.z)) + 1.0
    assert np.max(np.abs(recon.z[1])) <= 1e-9 * scale


def test_terminal_reconstruction(eq_b200, ens_b200, recon_b200):
    recon = recon_b200
    assert np.array_equal(eq_b200.leader.p1[-1], eq_b200.blocks.gbar)
    X_T = np.stack([ens_b200.x[-1], ens_b200.q[-1]], axis=-1)
    expected = X_T @ eq_b200.blocks.gbar.T
    scale = np.max(np.abs(expected)) + 1e-300
    assert np.max(np.abs(recon.y[:, -1].T - expected)) <= 1e-12 * scale


def test_terminal_follower_adjoint(eq_b200, ens_b200, recon_b200):
    recon = recon_b200
    # p(T) = G1 x(T) exactly: terminal offset is zero and P(T) = G1
    assert np.all(eq_b200.offset_gain[-1] == 0.0)
    assert np.array_equal(recon.p[-1], eq_b200.model.G1 * ens_b200.x[-1])


def test_follower_stationarity_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 200, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    recon = reconstruct_adjoints(eq, ens)
    stats = follower_stationarity_residual(eq, ens, recon)
    assert np.all(stats.residual == 0.0)


def test_follower_stationarity_statistical(eq_b200, ens_b200, recon_b200):
    recon = recon_b200
    stats = follower_stationarity_residual(eq_b200, ens_b200, recon)
    dt = eq_b200.model.grid.dt
    tol = 3.0 * stats.moments.stderr + 2.0 * dt * stats.scale
    assert np.all(np.abs(stats.residual) <= tol)


def test_follower_stationarity_deterministic_degenerate():
    # single path equal to the filter path, C = D1 = 0: the first-order
    # condition is pure ODE arithmetic
    m = make_model(steps=400, C=0.0)
    eq = solve_equilibrium(m)
    fp = eq.follower_filter
    x = fp.xhat[::2, None]
    q_path = eq.closed_loop.xhat[::2, 1][:, None]
    u1 = np.einsum("ki,ki->k", eq.closed_loop.f[::2], eq.closed_loop.xhat[::2])
    u2 = eq.u2hat[::2, None]
    from lqstack.simulate import TrajectoryEnsemble
    noise = generate_noise(1, 1, m.grid)
    ens = TrajectoryEnsemble(grid=m.grid, x=x, q=q_path, u1=u1, u2=u2, noise=noise)
    recon = reconstruct_adjoints(eq, ens)
    stats = follower_stationarity_residual(eq, ens, recon)
    assert np.max(np.abs(stats.residual)) <= 1e-8


def test_leader_stationarity_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 100, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    recon = reconstruct_adjoints(eq, ens)
    stats = leader_stationarity_residual(eq, ens, recon)
    assert stats.algebraic_max == 0.0


def test_leader_stationarity_algebraic(eq_b200, ens_b200, recon_b200):
    recon = recon_b200
    stats = leader_stationarity_residual(eq_b200, ens_b200, recon)
    assert stats.algebraic_max <= 1e-8 * stats.scale


def test_leader_stationarity_general_model():
    rng = np.random.default_rng(21)
    m = random_admissible_model(rng, steps=120)
    eq = solve_equilibrium(m)
    noise = generate_noise(8, 2000, m.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    recon = reconstruct_adjoints(eq, ens)
    stats = leader_stationarity_residual(eq, ens, recon)
    assert stats.algebraic_max <= 1e-8 * stats.scale


# --- drift-matching residuals ---

def test_drift_residuals_zero_for_zero_solution():
    eq = zero_weight_equilibrium()
    dr = drift_residuals(eq)
    assert dr.follower_max == 0.0
    assert dr.leader_max == 0.0


def test_drift_residual_cancelling_groups(eq_b200):
    # The controls enter the follower's adjoint drift through the Ito
    # expansion of P x, as (C D1 P + P B1) u1 + (C D2 P + P B2) u2, and the
    # offset drift as (B1 + D1 C) P u1 + (B2 + D2 C) P u2, read from the
    # follower's coefficients.  Compared coefficient by coefficient (xhat,
    # the raw u2, u2hat and theta_hat), the groups cancel identically at the
    # interior nodes.
    model = eq_b200.model
    B1, B2, C, D1, D2 = (model.nodes(k) for k in ("B1", "B2", "C", "D1", "D2"))
    fol = eq_b200.P
    pn = fol.p[::2]
    law, offset = fol.law[:, ::2], fol.offset[:, ::2]
    cd = C * D1 * pn + pn * B1
    inner = slice(1, model.grid.steps)
    for group in (cd * law[0] - offset[0], fol.offset_u2[::2] - (C * D2 * pn + pn * B2),
                  cd * law[2] - offset[2], cd * law[1] - offset[1]):
        assert np.max(np.abs(group[inner])) <= 1e-13


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
    quantities = {"P": lambda eq: eq.P.p[::2], "p1": lambda eq: eq.leader.p1[::2],
                  "p2": lambda eq: eq.leader.p2[::2], "xhat": lambda eq: eq.closed_loop.xhat[::2]}
    for name, get in quantities.items():
        gaps = [np.max(np.abs(get(coarse) - get(fine)[::2])) for coarse, fine in zip(eqs, eqs[1:])]
        for g1, g2 in zip(gaps, gaps[1:]):
            assert 3.5 <= g1 / g2 <= 4.5, (name, gaps)


def test_time_varying_algebraic_identities(eq_time_varying):
    eq = eq_time_varying[200]
    sig = eq.sigmas
    scale = np.max(np.abs(sig.s1)) + 1.0
    assert np.max(np.abs(sig.s1 - (sig.s2 + sig.s3))) <= 1e-13 * scale
    assert np.max(np.abs(gain_consistency_residual(eq)[0])) <= 1e-10
    noise = generate_noise(4, 200, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    stats = leader_stationarity_residual(eq, ens, reconstruct_adjoints(eq, ens))
    assert stats.algebraic_max <= 1e-8 * stats.scale

# --- discrete backward-step residual ---

def test_bsde_residual_zero_weights():
    eq = zero_weight_equilibrium()
    noise = generate_noise(3, 100, eq.model.grid)
    ens = simulate_closed_loop(eq.closed_loop, noise)
    recon = reconstruct_adjoints(eq, ens)
    assert bsde_residual(eq, ens, recon).rms == 0.0


def test_bsde_residual_first_order():
    def rms(steps):
        eq = solve_equilibrium(make_model(steps=steps))
        noise = generate_noise(99, 2000, eq.model.grid)
        ens = simulate_closed_loop(eq.closed_loop, noise)
        recon = reconstruct_adjoints(eq, ens)
        return bsde_residual(eq, ens, recon).rms

    assert 1.6 < rms(400) / rms(800) < 2.6


# --- the node walks against whole-array expressions ---

def test_peak_is_the_largest_magnitude_bit_for_bit():
    rng = np.random.default_rng(29)
    for shape in [(1,), (2,), (7,), (40, 3), (2, 5, 9)]:
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        v.flat[rng.integers(v.size, size=(v.size + 2) // 3)] = rng.choice([0.0, -0.0], size=(v.size + 2) // 3)
        for running in (0.0, 0.5 * float(np.max(np.abs(v))), 2.0 * float(np.max(np.abs(v)))):
            assert np.float64(_peak(running, v)).tobytes() == np.maximum(running, np.max(np.abs(v))).tobytes()


def test_peak_never_returns_negative_zero_and_propagates_nan():
    for v in (np.zeros(5), np.array([-0.0]), np.array([0.0, -0.0]), np.full((3, 4), -0.0)):
        assert math.copysign(1.0, _peak(0.0, v)) == 1.0
    v = np.random.default_rng(30).standard_normal((4, 5))
    for i in range(v.size):
        w = v.copy()
        w.flat[i] = np.nan
        assert math.isnan(_peak(0.0, w))
    assert math.isnan(_peak(math.nan, v))


def whole_array_folds(eq, ens, recon):
    """The leader stationarity's three maxima and the backward-step sums as whole (N+1, m)
    array expressions: each maximum over every node and path at once, each path's sum of
    steps as a reduce over the (N, m) steps, from node 0."""
    model, blocks = eq.model, eq.blocks
    xh = eq.closed_loop.xhat[::2]
    phi_hat = np.einsum("kij,kj->ki", eq.leader.p1[::2] + eq.leader.p2[::2], xh)[:, 0]
    delta_hat = (eq.sigmas.s1[::2] @ xh[:, :, None])[:, 0, 0]
    shared = blocks.d1[::2, 0] * phi_hat + blocks.d3[::2, 0] * delta_hat + blocks.d5[::2, 1] * xh[:, 1]
    control = model.nodes("R2")[:, None] * ens.u2
    adjoint = blocks.d2[::2, 0, None] * recon.y[0]
    algebraic = control + adjoint + blocks.d4[::2, 0, None] * recon.z[0] + shared[:, None]
    A, C, Q1 = (model.nodes(name)[:-1, None] for name in ("A", "C", "Q1"))
    p, k = recon.p, recon.k[:-1]
    steps = p[1:] - p[:-1] + (Q1 * ens.x[:-1] + A * p[:-1] + C * k) * model.grid.dt - k * ens.noise.dw
    return [float(np.max(np.abs(a))) for a in (control, adjoint, algebraic)], functools.reduce(np.add, steps)


@pytest.mark.parametrize("overrides", [RNG91, dict(D1=0.3, D2=0.2)], ids=["rng91", "d1d2"])
def test_node_walks_match_whole_array_expressions(overrides):
    eq = solve_equilibrium(make_model(steps=200, **overrides))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(17, 300, eq.model.grid))
    recon = reconstruct_adjoints(eq, ens)
    maxima, summed = whole_array_folds(eq, ens, recon)
    stats = leader_stationarity_residual(eq, ens, recon)
    got = [stats.control_max, stats.adjoint_max, stats.algebraic_max]
    assert np.array(got).tobytes() == np.array(maxima).tobytes()
    assert bsde_residual(eq, ens, recon).time_summed.tobytes() == summed.tobytes()


# --- each residual function returns the check that verify folds ---

@pytest.mark.parametrize("name", ["follower_stationarity_residual", "bsde_residual", "leader_stationarity_residual",
                                  "verify_follower_optimality", "verify_leader_optimality"])
def test_residual_function_returns_its_check(name):
    # On the paths of one chunk, each function returns its family's check,
    # whose rows equal, bit for bit, those of the check fold_chunks fills
    m = make_model(steps=40, D1=0.3, D2=0.2)
    eq = solve_equilibrium(m)
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(5, 300, m.grid))
    recon = reconstruct_adjoints(eq, ens)
    t = m.grid.times()
    dirs = {"const": np.ones_like(t), "ramp": t}
    call, fresh = {
        "follower_stationarity_residual": (lambda: follower_stationarity_residual(eq, ens, recon),
                                           FollowerStationarity(eq)),
        "bsde_residual": (lambda: bsde_residual(eq, ens, recon), Bsde(eq)),
        "leader_stationarity_residual": (lambda: leader_stationarity_residual(eq, ens, recon),
                                         LeaderStationarity(eq)),
        "verify_follower_optimality": (lambda: verify_follower_optimality(eq, ens, dirs, [0.1]),
                                       OptimalitySweep(eq, "J1", dirs, [0.1])),
        "verify_leader_optimality": (lambda: verify_leader_optimality(eq, ens, dirs, [0.1]),
                                     OptimalitySweep(eq, "J2", dirs, [0.1])),
    }[name]
    result = call()
    assert type(result) is type(fresh)
    folded, = fold_chunks(eq, 5, 300, [fresh])
    tol = Tolerances()
    assert repr(result.rows(tol)) == repr(folded.rows(tol))
