import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lqstack import riccati
from lqstack.errors import H3Violated, M1NotInvertible, M2NotInvertible, RiccatiBlowUp
from lqstack.riccati import (LeaderBlocks, LeaderRiccati, assemble_leader_blocks, compute_sigmas,
                             follower_coefficients, gain_inverses, p1_terms, p2_coefficients, rhs_p1, rhs_p2,
                             rk4_half_grid, sigma1, sigma2, sigma3, solve_follower_P, solve_leader_riccati)

from conftest import make_model, random_admissible_model, time_varying


# --- stage inputs read at one half-grid index, as the oracles and the tests read them ---

def block_entries(blocks: LeaderBlocks, q, *names):
    """Entry tuples of the named blocks: Python floats at an int half-grid index q, arrays over a slice."""
    if isinstance(q, int):
        return [tuple(getattr(blocks, n)[q].ravel().tolist()) for n in names]
    return blocks.entries(q, *names)


def entries(mat: np.ndarray):
    """Entry tuple of a (2, 2) matrix (Python floats) or of a stack of them (arrays)."""
    if mat.ndim == 2:
        return tuple(mat.ravel().tolist())
    return (mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1])


def first_inputs(model, blocks: LeaderBlocks, q):
    """The time and the (0, 0) entries of a1, a3, a5, bb, cc, e34 and e44 at q, typed as in block_entries."""
    t = np.arange(len(blocks.rr))[q] * (model.grid.dt / 2)
    return [t.tolist() if isinstance(q, int) else t,
            *(e[0] for e in block_entries(blocks, q, "a1", "a3", "a5", "bb", "cc", "e34", "e44"))]


def gain_inverses_at(pi, model, blocks: LeaderBlocks, q):
    t, *_, e34, e44 = first_inputs(model, blocks, q)
    return gain_inverses(pi, e34, e44, t)


def rhs_p1_at(pi, model, blocks: LeaderBlocks, q, *, m2):
    return rhs_p1(pi, *first_inputs(model, blocks, q)[1:6], m2=m2)


SECOND_BLOCKS = ("a1", "a2e", "a4e", "bb12", "cc12", "e55")


def coefficients_at(f, blocks: LeaderBlocks, q):
    return p2_coefficients(f, *block_entries(blocks, q, *SECOND_BLOCKS))


def rhs_p2_at(f, p2, blocks: LeaderBlocks, q):
    return rhs_p2(p2, *coefficients_at(f, blocks, q))


# --- the second leader equation in its general form, the oracle of the normal form ---
# The solver steps p2 through K + M p2 + p2 N + p2 O p2 (p2_coefficients).
# This is the right-hand side it expands, with the sigmas formed from p2.

def rhs_p2_general(f, p2, a1, a2e, a4e, bb12, cc12, e55):
    """d(p2)/dtau of the second leader Riccati equation in general form, an entry tuple."""
    add, mm, sub, t = riccati._add, riccati._mm, riccati._sub, riccati._t
    s1 = sigma1(f, p2)
    s3 = sigma3(f, p2, s1)
    p12 = add(f.p1, p2)

    out = add(mm(p12, a2e), mm(t(a2e), p12))
    out = add(out, add(mm(p2, a1), mm(a1, p2)))
    out = add(out, mm(mm(p12, bb12), p12))
    out = sub(out, f.p1_bb_p1)
    out = add(out, mm(f.a3_p1_cc, s3))
    out = add(out, mm(sub(add(t(a4e), mm(p2, cc12)), f.p1_e13), s1))
    return sub(out, e55)


def leader_second_general(leader: LeaderRiccati, model, blocks: LeaderBlocks) -> np.ndarray:
    """p2 stepped through rhs_p2_general, reading the solver's first solution at each stage."""
    f, args = leader.terms, block_entries(blocks, slice(None), *SECOND_BLOCKS)

    def rhs2(j, p2):
        at = [tuple(e[j].item() for e in term) for term in (*f, *args)]
        return rhs_p2_general(riccati.P1Terms._make(at[:len(f)]), p2, *at[len(f):])

    return reference_solve(rhs2, (0.0,) * 4, model, blocks).reshape(-1, 2, 2)


# --- the first leader equation in general 2x2 form, the oracle of its scalar route ---
# The solver integrates only pi, the (0, 0) entry of p1 = diag(pi, 0).  These
# are the general forms on entry tuples; leader_first_2x2 steps them from
# gbar, and the tests require the same bits as the scalar route.

def _inv2(m, det_tol: float, model, q, err):
    """Adjugate inverse of a 2x2 entry tuple and its determinant, guarded."""
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    ok = abs(det) > det_tol * (1.0 + (((m00 * m00 + m01 * m01) + m10 * m10) + m11 * m11))
    if not (ok if isinstance(ok, bool) else ok.all()):
        times = np.arange(2 * model.grid.steps + 1)[q] * (model.grid.dt / 2)
        raise err("gain matrix inverse does not exist", float(np.max(times[np.logical_not(ok)])))
    return (m11 / det, -m01 / det, -m10 / det, m00 / det), det


def gain_inverses_2x2(p1, model, blocks: LeaderBlocks, q, *, det_tol: float = 1e-10):
    """[I + p1 e34]^-1 and [I + p1 e44]^-1 for a general p1 entry tuple, plus determinants."""
    add, mm = riccati._add, riccati._mm
    e34, e44 = block_entries(blocks, q, "e34", "e44")
    eye = (1.0, 0.0, 0.0, 1.0)
    m1, det1 = _inv2(add(eye, mm(p1, e34)), det_tol, model, q, M1NotInvertible)
    m2, det2 = _inv2(add(eye, mm(p1, e44)), det_tol, model, q, M2NotInvertible)
    return m1, m2, det1, det2


def rhs_p1_2x2(p1, blocks: LeaderBlocks, q, *, m2):
    """d(p1)/dtau of the first leader Riccati equation for a general p1 entry tuple."""
    add, mm, t = riccati._add, riccati._mm, riccati._t
    a1, a3, a5, bb, cc = block_entries(blocks, q, "a1", "a3", "a5", "bb", "cc")
    out = add(mm(p1, a1), mm(a1, p1))
    out = add(out, mm(mm(p1, bb), p1))
    out = add(out, a5)
    left = mm(mm(add(a3, mm(p1, cc)), m2), p1)
    return add(out, mm(left, add(a3, mm(t(cc), p1))))


def reference_solve(rhs, terminal, model, blocks: LeaderBlocks) -> np.ndarray:
    """Half-grid values of a leader equation stepped backward as the solver steps it."""
    grid = model.grid
    return rk4_half_grid(rhs, terminal, grid.dt, grid.steps, backward=True,
                         bound=1e8 * (1.0 + float(np.max(np.abs(blocks.gbar)))),
                         fail=lambda t: RiccatiBlowUp("reference exploded", t))


def leader_first_2x2(model, blocks: LeaderBlocks, det_tol=1e-10):
    """The first leader equation stepped in 2x2 form through rk4_half_grid.

    gain_inverses_2x2 and rhs_p1_2x2 at each stage, then the inverses over
    the half grid.  Returns p1, m1, m2 and the two smallest |det|.
    """
    matrix = riccati._matrix
    min_det = [np.inf, np.inf]

    def rhs1(j, p1):
        _, m2, det1, det2 = gain_inverses_2x2(p1, model, blocks, j, det_tol=det_tol)
        min_det[:] = min(min_det[0], abs(det1)), min(min_det[1], abs(det2))
        return rhs_p1_2x2(p1, blocks, j, m2=m2)

    p1 = reference_solve(rhs1, tuple(blocks.gbar.ravel().tolist()), model, blocks).reshape(-1, 2, 2)
    m1, m2, det1, det2 = gain_inverses_2x2(entries(p1), model, blocks, slice(None), det_tol=det_tol)
    return (p1, matrix(m1), matrix(m2),
            float(min(min_det[0], np.min(np.abs(det1)))), float(min(min_det[1], np.min(np.abs(det2)))))


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
        assert np.max(np.abs(path - exact)) < 1e-8
    assert fwd[0] == 1.0 and bwd[-1] == exact[-1]


def test_rk4_half_grid_guard_reports_node_time():
    # y' = y from 1 passes the bound 2 between t = 0.6 and t = 0.8.
    with pytest.raises(RiccatiBlowUp) as info:
        rk4_half_grid(lambda j, y: y, (1.0, 1.0), 0.2, 5, bound=2.0,
                      fail=lambda t: RiccatiBlowUp("bound exceeded", t))
    assert info.value.time == pytest.approx(0.8)
    with pytest.raises(RiccatiBlowUp):  # a NaN fails the default bound
        rk4_half_grid(lambda j, y: np.nan * y, 1.0, 0.1, 3, backward=True,
                      fail=lambda t: RiccatiBlowUp("not finite", t))


@pytest.mark.parametrize("bad", [np.nan, 100.0])
@pytest.mark.parametrize("component", range(3))
@pytest.mark.parametrize("backward", [False, True])
def test_rk4_tuple_state_guard_checks_every_component(backward, component, bad):
    # From (1, 1, 1) with zero slopes except at half point 5, the midpoint of
    # the step between nodes 2 and 3, where one component's slope is `bad`:
    # that component reaches 1 + (4/6) 0.1 bad, NaN or 7.7 > 2, at node 3
    # stepping forward and at node 2 stepping backward.
    def rhs(j, y):
        return tuple(bad if (j == 5 and i == component) else 0.0 for i in range(3))

    with pytest.raises(RiccatiBlowUp) as info:
        rk4_half_grid(rhs, (1.0, 1.0, 1.0), 0.1, 5, backward=backward, bound=2.0,
                      fail=lambda t: RiccatiBlowUp("bound exceeded", t))
    assert info.value.time == pytest.approx(0.2 if backward else 0.3)


@pytest.mark.parametrize("backward", [False, True])
def test_rk4_tuple_state_is_the_float_path_per_component(backward):
    # A tuple state gives the (2N+1, n) half-grid array with y0 at its end
    # node bit-exactly; each component of a decoupled system rounds as the
    # float path does on its own.
    y0 = (0.1, -1.0 / 3.0, 7.0)
    rates = np.linspace(-1.0, 1.0, 41).tolist()
    path = rk4_half_grid(lambda j, y: tuple(rates[j] * v for v in y), y0, 1.0 / 20, 20, backward=backward,
                         fail=AssertionError)
    assert path.shape == (41, 3)
    assert path[-1 if backward else 0].tobytes() == np.array(y0).tobytes()
    for i, v in enumerate(y0):
        alone = rk4_half_grid(lambda j, y: rates[j] * y, v, 1.0 / 20, 20, backward=backward, fail=AssertionError)
        assert path[:, i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("backward", [False, True])
def test_rk4_tuple_state_linear_system_fourth_order(backward):
    # y' = [[-0.5, -2], [2, -0.5]] y on [0, 1] from y(0) = (1, 0):
    # y = exp(-t/2) (cos 2t, sin 2t), stepped forward from y(0) or backward
    # (d/dtau = -y') from y(1).  Nodes and Hermite midpoints each converge
    # at 4th order.
    def exact(t):
        return np.exp(-0.5 * t)[:, None] * np.column_stack([np.cos(2.0 * t), np.sin(2.0 * t)])

    def errors(steps):
        sign = -1.0 if backward else 1.0

        def rhs(j, y):
            return sign * (-0.5 * y[0] - 2.0 * y[1]), sign * (2.0 * y[0] - 0.5 * y[1])

        end = tuple(exact(np.array([1.0 if backward else 0.0]))[0].tolist())
        path = rk4_half_grid(rhs, end, 1.0 / steps, steps, backward=backward, fail=AssertionError)
        err = np.abs(path - exact(np.arange(2 * steps + 1) * (0.5 / steps))).max(axis=1)
        return np.array([err[::2].max(), err[1::2].max()])

    ratios = errors(50) / errors(100)
    assert np.all((12.0 <= ratios) & (ratios <= 20.0)), ratios


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
    assert abs(P.p[0] - 0.5) < 1e-12
    assert np.max(np.abs(P.p[::2] - exact)) < 1e-12


def test_follower_riccati_tanh_closed_form():
    P = solve_follower_P(tanh_case())
    times = tanh_case().grid.times()
    assert abs(P.p[0] - math.tanh(1.0)) < 1e-12
    assert np.max(np.abs(P.p[::2] - np.tanh(1.0 - times))) < 1e-12


@pytest.mark.parametrize("case, exact", [(rational_case, lambda t: 1.0 / (1.0 + (1.0 - t))),
                                         (tanh_case, lambda t: np.tanh(1.0 - t))])
def test_follower_riccati_half_grid_fourth_order(case, exact):
    # Even samples are RK4 nodes, odd ones Hermite midpoints; each converges
    # at 4th order on its own.
    def errors(steps):
        P = solve_follower_P(case(steps)).p
        err = np.abs(P - exact(np.arange(len(P)) * (0.5 / steps)))
        return np.array([err[::2].max(), err[1::2].max()])

    ratios = errors(50) / errors(100)
    assert np.all((12.0 <= ratios) & (ratios <= 20.0)), ratios


def test_follower_riccati_zero_solution():
    m = make_model(steps=100, Q1=0.0, G1=0.0, D1=0.3, C=0.4)
    P = solve_follower_P(m)
    assert np.all(P.p == 0.0)


def test_follower_terminal_stored_exactly():
    m = make_model(steps=100, G1=0.7)
    P = solve_follower_P(m)
    assert P.p[-1] == 0.7


def test_follower_riccati_nonnegative_for_admissible_weights():
    rng = np.random.default_rng(77)
    for _ in range(8):
        m = random_admissible_model(rng, steps=120)
        P = solve_follower_P(m)
        assert np.all(P.p >= 0.0)


def test_follower_substitution_residual_second_order():
    # Central difference of P plus the equation's remaining terms ~ O(dt^2).
    def residual(steps):
        m = tanh_case(steps)
        P = solve_follower_P(m).p[::2]
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
    # Valid weights keep D1^2 P + R1 positive, so hand the coefficient
    # builder a forged negative P.  It fails everywhere; the report names the
    # failing time nearest T.
    m = make_model(steps=10, D1=1.0)
    with pytest.raises(H3Violated) as info:
        follower_coefficients(m, np.full(21, -1.0))
    assert info.value.time == pytest.approx(m.grid.horizon, rel=1e-12)


def test_h3_guard_in_follower_solve_reports_half_grid_time():
    # R1 < 0 at node 25 only: coming back from T, the first stage to read a
    # negative R1 is the half point after node 25, (25 + 1/2) dt.
    r1 = np.ones(41)
    r1[25] = -5.0
    m = make_model(steps=40, R1=r1, D1=0.3)
    with pytest.raises(H3Violated) as info:
        solve_follower_P(m)
    assert info.value.time == pytest.approx(25.5 * m.grid.dt, rel=1e-12)


# --- block assembly ---

def test_blocks_zero_diffusion_substitutions():
    m = make_model(steps=50)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    display = riccati._display_blocks(m, P)
    k = 2 * 17
    assert np.all(display["a4"][k] == 0.0)
    assert np.all(display["c1"][k] == 0.0)
    assert np.all(blocks.d1[k] == 0.0)
    assert np.all(blocks.d3[k] == 0.0)
    assert np.array_equal(blocks.d2[k], [1.0, 0.0])
    assert np.array_equal(blocks.d4[k], [0.0, 0.0])
    # d5 = (0, B2 * P) when D1 = D2 = 0
    assert blocks.d5[k][0] == 0.0
    assert blocks.d5[k][1] == pytest.approx(P.p[k], rel=1e-15)


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
    # Time-varying A and B1, so a coefficient read at the wrong time shows.
    m = time_varying(make_model(steps=60, D1=0.4, D2=0.3, C=0.5))
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    q = 2 * 23
    A = m.nodes("A", 2)[q]
    B1 = m.nodes("B1", 2)[q]
    D1 = m.nodes("D1", 2)[q]
    C = m.nodes("C", 2)[q]
    R1 = m.nodes("R1", 2)[q]
    p = P.p[q]
    s = D1 * D1 * p + R1
    expected = -((B1 + D1 * C) / s * B1 * p - A)
    assert blocks.a1[q][1, 1] == expected


# --- leader Riccati ---

def test_leader_zero_weights_zero_solution():
    m = make_model(steps=80, Q1=0.0, G1=0.0, Q2=0.0, G2=0.0)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    assert np.all(leader.p1 == 0.0)
    assert np.all(leader.p2 == 0.0)


def test_leader_gain_inverses_identity_when_zero_diffusion():
    m = make_model(steps=40)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    m1, m2, det1, det2 = gain_inverses_at(leader.p1[2 * 5][0, 0], m, blocks, 2 * 5)
    assert np.array_equal(riccati._matrix(m1), np.eye(2))
    assert np.array_equal(riccati._matrix(m2), np.eye(2))
    assert det1 == 1.0 and det2 == 1.0


def test_leader_terminal_bit_exact_and_not_symmetrized():
    m = make_model(steps=50, G1=0.3, G2=0.8)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    assert np.array_equal(leader.p1[-1], blocks.gbar)
    assert np.all(leader.p2[-1] == 0.0)
    # second row stays exactly zero along the whole flow (never symmetrized)
    assert np.all(leader.p1[:, 1, :] == 0.0)


def test_reduced_integrands_match_general_when_zero_diffusion():
    m = make_model(steps=100)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    display = riccati._display_blocks(m, P)
    worst = 0.0
    for k in range(101):
        q = 2 * k
        p1 = leader.p1[q]
        p2 = leader.p2[q]
        e1, e2 = entries(p1), entries(p2)
        m1, m2, _, _ = gain_inverses_at(e1[0], m, blocks, q)
        g1 = riccati._matrix((rhs_p1_at(e1[0], m, blocks, q, m2=m2), 0.0, 0.0, 0.0))
        r1 = rhs_p1_reduced(p1, blocks, display, q)
        g2 = riccati._matrix(rhs_p2_at(p1_terms(e1, m1, m2, blocks, q), e2, blocks, q))
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
    e44[50, 0, 0] = -1e12
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
    # equals the evaluation at half-grid point j exactly.  The leader solve
    # keeps the half-grid inverses, which compute_sigmas reads.
    m = random_admissible_model(np.random.default_rng(seed), steps=40)
    m = dataclasses.replace(m, D1=math.copysign(max(abs(m.D1), 0.1), m.D1),
                            D2=math.copysign(max(abs(m.D2), 0.1), m.D2))
    if varying:
        m = time_varying(m)
    P = solve_follower_P(m)
    blocks = assemble_leader_blocks(m, P)
    leader = solve_leader_riccati(m, blocks)
    grid, stage = slice(None), j
    p1, p2 = entries(leader.p1), entries(leader.p2)
    p1j, p2j = entries(leader.p1[j]), entries(leader.p2[j])

    def same(at_stage, on_grid):
        row = [e[j] for e in on_grid] if isinstance(on_grid, tuple) else on_grid[j]
        assert np.asarray(at_stage, dtype=float).tobytes() == np.asarray(row).tobytes()

    g_stage, g = gain_inverses_at(p1j[0], m, blocks, stage), gain_inverses_at(p1[0], m, blocks, grid)
    for a, b in zip(g_stage, g):
        same(a, b)
    m1, m2 = riccati._matrix(g[0]), riccati._matrix(g[1])
    assert ((riccati._matrix(leader.terms.m1).tobytes(), riccati._matrix(leader.terms.m2).tobytes())
            == (m1.tobytes(), m2.tobytes()))
    f_stage, f = p1_terms(p1j, *g_stage[:2], blocks, stage), p1_terms(p1, *g[:2], blocks, grid)
    for a, b in zip(f_stage, f):
        same(a, b)
    s1_stage, s1 = sigma1(f_stage, p2j), sigma1(f, p2)
    same(s1_stage, s1)
    same(sigma2(f_stage, blocks, stage), sigma2(f, blocks, grid))
    same(sigma3(f_stage, p2j, s1_stage), sigma3(f, p2, s1))
    same(rhs_p1_at(p1j[0], m, blocks, stage, m2=g_stage[1]), rhs_p1_at(p1[0], m, blocks, grid, m2=g[1]))
    for a, b in zip(coefficients_at(f_stage, blocks, stage), coefficients_at(f, blocks, grid)):
        same(a, b)
    same(rhs_p2_at(f_stage, p2j, blocks, stage), rhs_p2_at(f, p2, blocks, grid))


def p2_coefficients_at_stage(p1, m1, m2, blocks: LeaderBlocks, q: int):
    """K, M, N and O of the second equation with every product of p1 formed at the stage.

    The same entry-tuple operations in the same order as p2_coefficients
    over p1_terms, so they round identically, but nothing is read from a
    P1Terms: a product of the first solution evaluated any other way in the
    solver shows as a bit difference.
    """
    mm, add, sub, t = riccati._mm, riccati._add, riccati._sub, riccati._t
    a1, a2e, a3, a4e, bb, bb12, cc, cc12, e13, e33, e55 = block_entries(
        blocks, q, "a1", "a2e", "a3", "a4e", "bb", "bb12", "cc", "cc12", "e13", "e33", "e55")
    p1_cc12t, p1_e13t, p1_e33 = mm(p1, t(cc12)), mm(p1, t(e13)), mm(p1, e33)
    s1_0 = mm(m1, add(mm(p1, add(a3, a4e)), mm(p1_cc12t, p1)))
    s1_l = mm(m1, p1_cc12t)
    s3_0 = mm(m2, sub(sub(mm(p1, a4e), mm(p1_e13t, p1)), mm(p1_e33, s1_0)))
    s3_l = mm(m2, sub(sub(mm(p1, t(cc)), p1_e13t), mm(p1_e33, s1_l)))
    a3_p1_cc, a4e_t_e13 = add(a3, mm(p1, cc)), sub(t(a4e), mm(p1, e13))
    k = add(mm(p1, a2e), mm(t(a2e), p1))
    k = sub(add(k, mm(mm(p1, bb12), p1)), mm(mm(p1, bb), p1))
    k = sub(add(add(k, mm(a3_p1_cc, s3_0)), mm(a4e_t_e13, s1_0)), e55)
    m = add(add(add(t(a2e), a1), mm(p1, bb12)), add(mm(a3_p1_cc, s3_l), mm(a4e_t_e13, s1_l)))
    n = add(add(add(a2e, a1), mm(bb12, p1)), mm(cc12, s1_0))
    return k, m, n, add(bb12, mm(cc12, s1_l))


def normal_form(p2, coefficients):
    """K + M p2 + p2 (N + O p2), in the solver's operation order."""
    mm, add = riccati._mm, riccati._add
    k, m, n, o = coefficients
    return add(add(k, mm(m, p2)), mm(p2, add(n, mm(o, p2))))


def leader_per_stage(model, blocks: LeaderBlocks, det_tol=1e-10):
    """Both leader equations stepped through rk4_half_grid with every stage computed at the stage.

    The first equation is the 2x2 oracle leader_first_2x2; the second reads
    its solution and half-grid inverses at index j, forms K, M, N and O
    there (p2_coefficients_at_stage) and evaluates the normal form.  Returns
    p1, p2, m1, m2 and the two smallest |det|.
    """
    p1, m1, m2, min1, min2 = leader_first_2x2(model, blocks, det_tol)

    def rhs2(j, p2):
        return normal_form(p2, p2_coefficients_at_stage(entries(p1[j]), entries(m1[j]),
                                                        entries(m2[j]), blocks, j))

    p2 = reference_solve(rhs2, (0.0,) * 4, model, blocks).reshape(-1, 2, 2)
    return p1, p2, m1, m2, min1, min2


@pytest.mark.parametrize("case", ["standard", "random", "time_varying"])
def test_leader_solve_matches_per_stage_reference_bit_for_bit(case, monkeypatch):
    # 601 half-grid points: the solver forms the first solution's terms and
    # the second equation's K, M, N and O once over the half grid and reads
    # its stages' floats in ten windows, the reference forms them at each of
    # the 1201 stages.  An ulp in one stage's right-hand side rarely survives
    # the RK4 update y + (h/6)(...), so each of the solver's rhs_p2 values,
    # and the coefficients it read, are compared too.
    m = make_model(steps=300)
    if case != "standard":
        m = _with_diffusion_controls(random_admissible_model(np.random.default_rng(31), steps=300))
    if case == "time_varying":
        m = time_varying(m)
    blocks = assemble_leader_blocks(m, solve_follower_P(m))
    stages = []

    def recorded(p2, *coefficients):
        out = rhs_p2(p2, *coefficients)
        stages.append((p2, coefficients, out))
        return out

    monkeypatch.setattr(riccati, "rhs_p2", recorded)
    leader = solve_leader_riccati(m, blocks)
    ref = leader_per_stage(m, blocks)
    got = (leader.p1, leader.p2, riccati._matrix(leader.terms.m1), riccati._matrix(leader.terms.m2),
           leader.min_det_m1, leader.min_det_m2)
    for a, b in zip(got, ref):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    p1, _, m1, m2 = ref[:4]
    assert len(stages) == 4 * m.grid.steps + 1
    # A backward RK4 step from node k reads half-grid points 2k, 2k-1 twice
    # and 2k-2; the last call is the slope at node 0.
    order = [j for k in range(m.grid.steps, 0, -1) for j in (2 * k, 2 * k - 1, 2 * k - 1, 2 * k - 2)] + [0]
    for j, (p2, coefficients, out) in zip(order, stages):
        at_stage = p2_coefficients_at_stage(entries(p1[j]), entries(m1[j]), entries(m2[j]), blocks, j)
        assert np.asarray(coefficients).tobytes() == np.asarray(at_stage).tobytes()
        assert np.asarray(out).tobytes() == np.asarray(normal_form(p2, at_stage)).tobytes()
    whole = slice(None)
    f, p2 = p1_terms(entries(p1), entries(m1), entries(m2), blocks, whole), entries(ref[1])
    s1 = sigma1(f, p2)
    sig = compute_sigmas(blocks, leader)
    for a, b in zip((sig.s1, sig.s2, sig.s3), (s1, sigma2(f, blocks, whole), sigma3(f, p2, s1))):
        assert a.tobytes() == riccati._matrix(b).tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), varying=st.booleans(), j=st.integers(0, 80))
def test_normal_form_matches_general_form(seed, varying, j):
    # K + M p2 + p2 N + p2 O p2 regroups the general right-hand side by
    # powers of p2, so at a random p2 the two agree to rounding, and so do
    # p2 stepped through either.
    rng = np.random.default_rng(seed)
    m = _with_diffusion_controls(random_admissible_model(rng, steps=40))
    if varying:
        m = time_varying(m)
    blocks = assemble_leader_blocks(m, solve_follower_P(m))
    leader = solve_leader_riccati(m, blocks)
    m1, m2 = (tuple(e[j].item() for e in g) for g in (leader.terms.m1, leader.terms.m2))
    f = p1_terms(entries(leader.p1[j]), m1, m2, blocks, j)
    p2 = tuple(rng.normal(size=4).tolist())
    general = np.array(rhs_p2_general(f, p2, *block_entries(blocks, j, *SECOND_BLOCKS)))
    assert np.max(np.abs(np.array(rhs_p2_at(f, p2, blocks, j)) - general)) <= 1e-13 * np.max(np.abs(general))
    oracle = leader_second_general(leader, m, blocks)
    assert np.max(np.abs(leader.p2 - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("width", [1, 7, 10**6])
@pytest.mark.parametrize("case", ["standard", "random", "time_varying"])
def test_leader_outputs_do_not_depend_on_window_width(case, width, monkeypatch):
    # The stage inputs are converted to floats a window of half-grid indices
    # at a time; any width gives the same bits.  The width is read from the
    # module when the solve runs, and the first solution's terms are
    # evaluated once per solve, over the whole half grid, and never again
    # for the sigmas.
    m = make_model(steps=40)
    if case != "standard":
        m = _with_diffusion_controls(random_admissible_model(np.random.default_rng(41), steps=40))
    if case == "time_varying":
        m = time_varying(m)
    blocks = assemble_leader_blocks(m, solve_follower_P(m))

    def run():
        leader = solve_leader_riccati(m, blocks)
        return leader, compute_sigmas(blocks, leader)

    default = run()
    sizes = []

    def recorded(p1, m1, m2, b, q):
        sizes.append(len(range(len(b.rr))[q]))
        return p1_terms(p1, m1, m2, b, q)

    monkeypatch.setattr(riccati, "p1_terms", recorded)
    monkeypatch.setattr(riccati, "_STAGE_WINDOW", width)
    L = len(blocks.rr)
    for a, b in zip(default, run()):
        for field in dataclasses.fields(a):
            assert np.asarray(getattr(a, field.name)).tobytes() == np.asarray(getattr(b, field.name)).tobytes()
    assert sizes == [L]


def _with_diffusion_controls(m):
    """The model with |D1|, |D2| raised to at least 0.1, signs kept."""
    return dataclasses.replace(m, D1=math.copysign(max(abs(m.D1), 0.1), m.D1),
                               D2=math.copysign(max(abs(m.D2), 0.1), m.D2))


@pytest.mark.parametrize("varying", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_first_leader_equation_is_scalar_bit_for_bit(seed, varying):
    # The 2x2 flow from gbar = diag(G2, 0) keeps p1's second row and (0, 1)
    # entry +0.0 exactly, so the scalar route that integrates only pi gives
    # the same p1, gain inverses (signed zeros included) and min |det|.
    m = _with_diffusion_controls(random_admissible_model(np.random.default_rng(100 + seed), steps=120))
    if varying:
        m = time_varying(m)
    blocks = assemble_leader_blocks(m, solve_follower_P(m))
    p1, m1, m2, min1, min2 = leader_first_2x2(m, blocks)
    zeros = np.zeros(len(p1))
    assert np.all(p1[:, 0, 0] != 0.0)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        assert p1[:, i, j].tobytes() == zeros.tobytes()
    leader = solve_leader_riccati(m, blocks)
    for a, b in zip((leader.p1, riccati._matrix(leader.terms.m1), riccati._matrix(leader.terms.m2),
                     leader.min_det_m1, leader.min_det_m2),
                    (p1, m1, m2, min1, min2)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("varying", [False, True])
def test_first_leader_solution_is_the_leaders_own_riccati_equation(varying):
    # pi solves the follower's equation with the leader's coefficients
    # (B2, D2, Q2, R2, G2) in place of (B1, D1, Q1, R1, G1): the stochastic
    # LQ Riccati equation with control-dependent diffusion.  Both solves take
    # the same steps, so they agree to rounding.
    m = _with_diffusion_controls(random_admissible_model(np.random.default_rng(17), steps=400))
    if varying:
        m = time_varying(m)
    leader = solve_leader_riccati(m, assemble_leader_blocks(m, solve_follower_P(m)))
    swapped = dataclasses.replace(m, B1=m.B2, D1=m.D2, Q1=m.Q2, R1=m.R2, G1=m.G2)
    P = solve_follower_P(swapped).p
    assert np.max(np.abs(leader.p1[:, 0, 0] - P) / np.abs(P)) <= 1e-13


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
    q = 2 * 7
    zero = entries(np.zeros((2, 2)))
    some = entries(np.array([[0.3, -0.2], [0.1, 0.4]]))
    m1, m2, _, _ = gain_inverses_at(zero[0], m, blocks, q)
    f = p1_terms(zero, m1, m2, blocks, q)
    s1 = sigma1(f, some)
    assert np.all(np.array(s1) == 0.0)
    assert np.all(np.array(sigma2(f, blocks, q)) == 0.0)
    assert np.all(np.array(sigma3(f, some, s1)) == 0.0)


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
