import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lqstack import riccati
from lqstack.errors import H3Violated, M1NotInvertible, M2NotInvertible, RiccatiBlowUp
from lqstack.riccati import (FollowerRiccati, LeaderBlocks, assemble_leader_blocks,
                             compute_sigmas, gain_inverses, rhs_p1, rhs_p2, rk4_half_grid, sigma1,
                             sigma2, sigma3, solve_follower_P, solve_leader_riccati)

from conftest import make_model, random_admissible_model, time_varying


# --- hand-coded zero-diffusion oracles for the general integrands ---
# They read the display blocks (a2, b1, r2) the solver folds into its
# effective blocks, so they share no arithmetic with rhs_p1 and rhs_p2.

def rhs_p1_reduced(p1: np.ndarray, blocks: LeaderBlocks, display: dict, q: int) -> np.ndarray:
    """Hand-coded zero-diffusion-coefficient (D1 = D2 = 0) form of rhs_p1."""
    rr = 1.0 / display["r2"][q]
    a1 = blocks.a1[q]
    a3 = blocks.a3[q]
    d2 = blocks.d2[q]
    out = p1 @ a1 + a1 @ p1
    out += p1 @ (display["b1"][q] - np.outer(d2, d2) * rr) @ p1
    out += a3 @ p1 @ a3
    out += blocks.a5[q]
    return out


def rhs_p2_reduced(p1: np.ndarray, p2: np.ndarray, blocks: LeaderBlocks, display: dict,
                   q: int) -> np.ndarray:
    """Hand-coded zero-diffusion-coefficient (D1 = D2 = 0) form of rhs_p2."""
    rr = 1.0 / display["r2"][q]
    a2 = display["a2"][q]
    a12 = blocks.a1[q] + a2
    d2 = blocks.d2[q]
    d5 = blocks.d5[q]
    bb = display["b1"][q] - np.outer(d2, d2) * rr
    out = p2 @ (a12 - np.outer(d2, d5) * rr)
    out += (a12 - np.outer(d5, d2) * rr) @ p2
    out -= np.outer(d5, d5) * rr
    out += p1 @ (a2 - np.outer(d2, d5) * rr)
    out += (a2 - np.outer(d5, d2) * rr) @ p1
    out += p2 @ bb @ p2
    out += p1 @ bb @ p2
    out += p2 @ bb @ p1
    return out


# --- the shared integrator ---

def test_rk4_half_grid_both_directions():
    # y' = -y t on [0, 1] (half point j is t = j/80): y = exp(-t^2/2), solved
    # forward from y(0) and backward from y(1); nodes and Hermite midpoints
    # are 4th-order accurate.
    def fail(t):
        return AssertionError(f"guard tripped at t={t}")

    t = np.linspace(0.0, 1.0, 81)
    exact = np.exp(-0.5 * t * t)
    fwd = rk4_half_grid(lambda j, y: -t[j] * y, 1.0, 1.0 / 40, 40, fail=fail)
    bwd = rk4_half_grid(lambda j, y: t[j] * y, exact[-1], 1.0 / 40, 40, backward=True, fail=fail)
    for path in (fwd, bwd):
        assert np.max(np.abs(path.half_values() - exact)) < 1e-8
    assert fwd.nodes[0] == 1.0 and bwd.nodes[-1] == exact[-1]


def test_rk4_half_grid_guard_reports_node_time():
    # y' = y from 1 passes the bound 2 between t = 0.6 and t = 0.8.
    with pytest.raises(RiccatiBlowUp) as info:
        rk4_half_grid(lambda j, y: y, np.ones(2), 0.2, 5, bound=2.0,
                      fail=lambda t: RiccatiBlowUp("bound exceeded", t))
    assert info.value.time == pytest.approx(0.8)
    with pytest.raises(RiccatiBlowUp):  # a NaN fails the default bound
        rk4_half_grid(lambda j, y: np.nan * y, 1.0, 0.1, 3, backward=True,
                      fail=lambda t: RiccatiBlowUp("not finite", t))


# --- closed-form oracles, verified against an independent integrator first ---

def rational_case(steps=1000):
    # A=C=D1=0, Q1=0: dP/dt = B1^2 P^2 / R1, P(T) = G1.
    return make_model(steps=steps, A=0.0, C=0.0, Q1=0.0, G1=1.0)


def tanh_case(steps=1000):
    # A=C=D1=0, Q1=R1=1, G1=0: dP/dt = P^2 - 1, P(T) = 0.
    return make_model(steps=steps, A=0.0, C=0.0, Q1=1.0, G1=0.0)


def test_closed_forms_match_adaptive_integrator():
    # Trust the closed forms only after checking them against scipy.
    sol = solve_ivp(lambda t, y: [y[0] ** 2], (1.0, 0.0), [1.0], rtol=1e-12, atol=1e-14)
    assert abs(sol.y[0, -1] - 0.5) < 1e-10
    sol = solve_ivp(lambda t, y: [y[0] ** 2 - 1.0], (1.0, 0.0), [0.0], rtol=1e-12, atol=1e-14)
    assert abs(sol.y[0, -1] - math.tanh(1.0)) < 1e-10


def test_follower_riccati_rational_closed_form():
    P = solve_follower_P(rational_case())
    # P(t) = G1 / (1 + G1 B1^2 (T - t) / R1)
    times = rational_case().grid.times()
    exact = 1.0 / (1.0 + (1.0 - times))
    assert abs(P.values[0] - 0.5) < 1e-12
    assert np.max(np.abs(P.values - exact)) < 1e-12


def test_follower_riccati_tanh_closed_form():
    P = solve_follower_P(tanh_case())
    times = tanh_case().grid.times()
    assert abs(P.values[0] - math.tanh(1.0)) < 1e-12
    assert np.max(np.abs(P.values - np.tanh(1.0 - times))) < 1e-12


def test_follower_riccati_zero_solution():
    m = make_model(steps=100, Q1=0.0, G1=0.0, D1=0.3, C=0.4)
    P = solve_follower_P(m)
    assert np.all(P.fine == 0.0)


def test_follower_terminal_stored_exactly():
    m = make_model(steps=100, G1=0.7)
    P = solve_follower_P(m)
    assert P.values[-1] == 0.7


def test_follower_riccati_nonnegative_for_admissible_weights():
    rng = np.random.default_rng(77)
    for _ in range(8):
        m = random_admissible_model(rng, steps=120)
        P = solve_follower_P(m)
        assert np.all(P.fine >= 0.0)


def test_follower_substitution_residual_second_order():
    # Central difference of P plus the equation's remaining terms ~ O(dt^2).
    def residual(steps):
        m = tanh_case(steps)
        P = solve_follower_P(m).values
        dt = m.grid.dt
        dp = (P[2:] - P[:-2]) / (2.0 * dt)
        # A=C=D1=0, R1=1, Q1=1: residual = dP/dt - P^2 + 1
        return np.max(np.abs(dp - P[1:-1] ** 2 + 1.0))

    r1, r2 = residual(200), residual(400)
    assert 3.5 < r1 / r2 < 4.5


def test_blow_up_guard_reports_time():
    m = make_model(steps=400, A=2.0, B1=0.2, B2=3.0, C=1.5, D1=1.5, D2=3.0,
                   Q1=0.1, R1=0.05, G1=8.0, Q2=9.0, R2=0.02, G2=9.0, horizon=8.0)
    with pytest.raises(RiccatiBlowUp) as info:
        solve_follower_P(m)
    assert 0.0 < info.value.time < 8.0


def test_h3_guard_on_forged_input():
    # Valid weights keep D1^2 P + R1 positive, so force a negative P directly.
    m = make_model(steps=10, D1=1.0)
    forged = FollowerRiccati(grid=m.grid, fine=np.full(41, -1.0))
    with pytest.raises(H3Violated):
        assemble_leader_blocks(m, forged)


# --- block assembly ---

def test_blocks_zero_diffusion_substitutions():
    m = make_model(steps=50)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    display = riccati._display_blocks(m, P)
    k = blocks.node_index(17)
    assert np.all(display["a4"][k] == 0.0)
    assert np.all(display["c1"][k] == 0.0)
    assert np.all(blocks.d1[k] == 0.0)
    assert np.all(blocks.d3[k] == 0.0)
    assert np.array_equal(blocks.d2[k], [1.0, 0.0])
    assert np.array_equal(blocks.d4[k], [0.0, 0.0])
    # d5 = (0, B2 * P) when D1 = D2 = 0
    assert blocks.d5[k][0] == 0.0
    assert blocks.d5[k][1] == pytest.approx(P.fine[k], rel=1e-15)


def test_blocks_vanish_with_zero_follower_riccati():
    m = make_model(steps=50, Q1=0.0, G1=0.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    assert np.all(blocks.d5 == 0.0)
    assert np.all(riccati._display_blocks(m, P)["a2"] == 0.0)
    # a1 = diag(A, A) when P = 0
    assert np.allclose(blocks.a1[:, 0, 0], 0.1)
    assert np.allclose(blocks.a1[:, 1, 1], 0.1)


def test_blocks_recompute_exactly():
    m = make_model(steps=60, D1=0.4, D2=0.3, C=0.5)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    q = blocks.node_index(23)
    t_idx = q
    A = m.nodes("A", 4)[t_idx]
    B1 = m.nodes("B1", 4)[t_idx]
    D1 = m.nodes("D1", 4)[t_idx]
    C = m.nodes("C", 4)[t_idx]
    R1 = m.nodes("R1", 4)[t_idx]
    p = P.fine[t_idx]
    s = D1 * D1 * p + R1
    expected = -((B1 + D1 * C) / s * B1 * p - A)
    assert blocks.a1[q][1, 1] == expected


# --- leader Riccati ---

def test_leader_zero_weights_zero_solution():
    m = make_model(steps=80, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    assert np.all(leader.p1_fine == 0.0)
    assert np.all(leader.p2 == 0.0)


def test_leader_gain_inverses_identity_when_zero_diffusion():
    m = make_model(steps=40)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    m1, m2, det1, det2 = gain_inverses(leader.p1[5], blocks, blocks.node_index(5))
    assert np.array_equal(m1, np.eye(2))
    assert np.array_equal(m2, np.eye(2))
    assert det1 == 1.0 and det2 == 1.0


def test_leader_terminal_bit_exact_and_not_symmetrized():
    m = make_model(steps=50, G1=0.3, G2=0.8)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    assert np.array_equal(leader.p1[-1], blocks.gbar)
    assert np.all(leader.p2[-1] == 0.0)
    # second row stays exactly zero along the whole flow (never symmetrized)
    assert np.all(leader.p1_fine[:, 1, :] == 0.0)


def test_reduced_integrands_match_general_when_zero_diffusion():
    m = make_model(steps=100)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    display = riccati._display_blocks(m, P)
    worst = 0.0
    for k in range(101):
        q = blocks.node_index(k)
        p1 = leader.p1[k]
        p2 = leader.p2[k]
        m1, m2, _, _ = gain_inverses(p1, blocks, q)
        g1 = rhs_p1(p1, blocks, q, m2=m2)
        r1 = rhs_p1_reduced(p1, blocks, display, q)
        g2 = rhs_p2(p1, p2, blocks, q, m1=m1, m2=m2)
        r2 = rhs_p2_reduced(p1, p2, blocks, display, q)
        worst = max(worst,
                    np.max(np.abs(g1 - r1)) / (1.0 + np.max(np.abs(g1))),
                    np.max(np.abs(g2 - r2)) / (1.0 + np.max(np.abs(g2))))
    assert worst <= 1e-13


def test_leader_self_convergence_fourth_order():
    def p1_at_zero(steps):
        m = make_model(steps=steps)
        P = solve_follower_P(m)
        blocks = assemble_leader_blocks(m, P)
        return solve_leader_riccati(m, blocks).p1[0]

    ref = p1_at_zero(3200)
    e1 = np.max(np.abs(p1_at_zero(100) - ref))
    e2 = np.max(np.abs(p1_at_zero(200) - ref))
    assert 12.0 < e1 / e2 < 20.0


def test_leader_blow_up_instance():
    # Long-horizon model with control-dependent diffusion: the first gain
    # inverse degenerates, the documented failure mode of the general system.
    m = make_model(steps=400, A=3.0, B1=0.5, B2=2.0, C=2.0, D1=0.0, D2=4.0,
                   Q1=1.0, R1=1.0, G1=2.0, Q2=8.0, R2=0.01, G2=8.0, horizon=6.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    with pytest.raises(M1NotInvertible) as info:
        solve_leader_riccati(m, blocks)
    assert info.value.time == 2.4375


def test_leader_second_gain_inverse_guard_on_forged_blocks():
    # Admissible weights keep det(I + p1 d4 d4^T/r2) >= 1, so forge one
    # half-grid sample of d4 d4^T/r2.  p1's second row stays zero, so
    # I + p1 e44 = [[1 - 1e12 p1_11, *], [0, 1]]: its condition number passes
    # 1/det_tol and the scaled determinant guard reports it at that sample,
    # at an RK4 stage of the first solve (the first guard never trips).
    m = make_model(steps=40, D1=0.3, D2=0.5, C=0.4)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    e44 = blocks.e44.copy()
    e44[blocks.half_index(50), 0, 0] = -1e12
    with pytest.raises(M2NotInvertible) as info:
        solve_leader_riccati(m, dataclasses.replace(blocks, e44=e44))
    assert type(info.value) is M2NotInvertible
    assert info.value.time == 0.625


def test_leader_gain_determinant_sign_change_is_caught():
    # Forging e44's corner to -0.7 makes det(I + p1 e44) run between +0.47
    # and -0.29, negative for t in [0.325, 0.6875]; no sample comes near 0,
    # so the magnitude guard passes (min |det| 1.1e-3) and only the sign
    # change against the value at T shows it, at the flipped sample nearest T.
    m = make_model(steps=40, D1=0.3, D2=0.5, C=0.4, Q2=2.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    e44 = blocks.e44.copy()
    e44[:, 0, 0] = -0.7
    with pytest.raises(M2NotInvertible, match="changes sign") as info:
        solve_leader_riccati(m, dataclasses.replace(blocks, e44=e44))
    assert info.value.time == 0.6875


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans(), j=st.integers(0, 80))
def test_stage_and_half_grid_evaluations_agree_bit_for_bit(seed, varying, j):
    # One formula set on two entry types: Python floats at an int block
    # index, arrays over the half grid.  Elementwise float64 arithmetic rounds
    # as Python float arithmetic does, so row j of the half-grid evaluation
    # equals the evaluation at half-grid point j exactly.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    m = dataclasses.replace(m, D1=math.copysign(max(abs(m.D1), 0.1), m.D1),
                            D2=math.copysign(max(abs(m.D2), 0.1), m.D2))
    if varying:
        m = time_varying(m)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    p1, p2 = leader.p1_fine, leader.p2_fine
    grid, stage = blocks.half_points, blocks.half_index(j)

    def same(at_stage, on_grid):
        assert np.asarray(at_stage, dtype=float).tobytes() == np.asarray(on_grid[j]).tobytes()

    g = gain_inverses(p1, blocks, grid)
    for a, b in zip(gain_inverses(p1[j], blocks, stage), g):
        same(a, b)
    m1, m2 = g[0], g[1]
    s1_stage, s1 = sigma1(p1[j], p2[j], blocks, stage, m1=m1[j]), sigma1(p1, p2, blocks, grid, m1=m1)
    same(s1_stage, s1)
    same(sigma2(p1[j], blocks, stage, m2=m2[j]), sigma2(p1, blocks, grid, m2=m2))
    same(sigma3(p1[j], p2[j], blocks, stage, m2=m2[j], s1=s1_stage), sigma3(p1, p2, blocks, grid, m2=m2, s1=s1))
    same(rhs_p1(p1[j], blocks, stage, m2=m2[j]), rhs_p1(p1, blocks, grid, m2=m2))
    same(rhs_p2(p1[j], p2[j], blocks, stage, m1=m1[j], m2=m2[j]), rhs_p2(p1, p2, blocks, grid, m1=m1, m2=m2))


# --- gain matrices ---

def test_sigmas_vanish_without_diffusion_coupling():
    m = make_model(steps=40, C=0.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    sig = compute_sigmas(blocks, leader)
    assert np.all(sig.s1 == 0.0)
    assert np.all(sig.s2 == 0.0)
    assert np.all(sig.s3 == 0.0)


def test_sigmas_vanish_with_zero_first_riccati():
    m = make_model(steps=40, D1=0.2, D2=0.3, C=0.5)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    q = blocks.node_index(7)
    zero = np.zeros((2, 2))
    some = np.array([[0.3, -0.2], [0.1, 0.4]])
    m1, m2, _, _ = gain_inverses(zero, blocks, q)
    s1 = sigma1(zero, some, blocks, q, m1=m1)
    assert np.all(s1 == 0.0)
    assert np.all(sigma2(zero, blocks, q, m2=m2) == 0.0)
    assert np.all(sigma3(zero, some, blocks, q, m2=m2, s1=s1) == 0.0)


def test_sigma_one_equals_two_plus_three_zero_diffusion():
    m = make_model(steps=40)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    sig = compute_sigmas(blocks, leader)
    # with D1 = D2 = 0 and C != 0 both eliminations give p1 times the state
    # diffusion block, and the estimate-only part vanishes
    assert np.all(sig.s3 == 0.0)
    assert np.array_equal(sig.s1, sig.s2)


def test_sigma_identity_general_case():
    rng = np.random.default_rng(5)
    for _ in range(3):
        m = random_admissible_model(rng, steps=100)
        P = solve_follower_P(m)
        blocks = assemble_leader_blocks(m, P)
        leader = solve_leader_riccati(m, blocks)
        sig = compute_sigmas(blocks, leader)
        scale = np.max(np.abs(sig.s1)) + 1.0
        assert np.max(np.abs(sig.s1 - (sig.s2 + sig.s3))) <= 1e-13 * scale
