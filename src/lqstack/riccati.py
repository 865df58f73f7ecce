"""Backward Riccati solves for both players, and the shared ODE integrator.

Every deterministic ODE of the equilibrium -- the follower's Riccati
equation, the leader's two Riccati equations, the follower's filtered
pair, the leader's filtered state and the follower's offset gain
(simulate.backfill_theta) -- is solved by rk4_half_grid: classical RK4 with
its stages at half points of the step.  It returns the path as a (2N+1, ...)
half-grid array, the one representation of every deterministic path: index j
is t = j * dt/2, node values at even indices and cubic-Hermite midpoints (4th
order, from node values and node slopes) at odd ones.

The Riccati equations, integrated under the time reversal tau = T - t:

  * the follower's scalar equation
        P' + 2 A P + C^2 P - (D1^2 P + R1)^-1 (B1 + D1 C)^2 P^2 + Q1 = 0,
        P(T) = G1,
  * the leader's first equation (autonomous given P, terminal diag(G2, 0)),
    whose solution is p1 = diag(pi, 0) (see gain_inverses), with
        pi' + 2 A pi + C^2 pi - (D2^2 pi + R2)^-1 (B2 + D2 C)^2 pi^2 + Q2 = 0,
  * the leader's second 2x2 equation (consumes the first, terminal 0),
    stepped in Riccati normal form (p2_coefficients).

All three go through one backward solve, _solve_backward: step dt on the
node grid, stages at half-grid points.  Everything is stored on the half
grid, the only points any later stage reads: P, the coefficient blocks, and
both leader solutions, whose off-node values are the Hermite midpoints.
Every stage then reads upstream data at 4th-order accuracy and each solve
keeps genuine 4th-order convergence for constant coefficients (array
coefficients interpolate linearly, which caps accuracy at 2nd order there,
as for the rest of the pipeline).

The follower's coefficients -- (D1^2 P + R1)^-1 and its products with
B1 + D1 C, B1 and D1 D2 P -- are evaluated once per solve, where P is
sampled, by follower_coefficients, and kept with P in the one result of the
follower's solve, FollowerRiccati (EquilibriumSolution.P).  The leader's
blocks, the follower's filtered pair, the offset gain, the follower's
control law, the feedback rows and the drift residuals read them from
there; the blocks do not keep it.

The leader's side reads one family of effective blocks (1/r2,
b1 - d2 d2^T/r2, c1 - d2 d4^T/r2, ..., built with d1+d2 and d3+d4), which
assemble_leader_blocks evaluates once on the whole half grid; a transpose is
a swapaxes view.  gain_inverses and rhs_p1 take pi, and the 2x2 matrices
of gain_inverses, p1_terms, sigma1-sigma3, p2_coefficients and rhs_p2 are
entry tuples (m00, m01, m10, m11).  These functions take the block entries
they read: Python floats at one RK4 stage, arrays over a slice of the half
grid; one formula set serves both, rounding identically.  A numpy call on a
2x2 matrix costs several times the arithmetic it does, so what does not
depend on the stepped unknown is formed once on the half grid: the first
solution's P1Terms -- p1, its gain inverses and nine products of p1 with
the blocks -- kept as LeaderRiccati.terms (whose p1, m1 and m2 are the one
name of p1 and the gain inverses) for compute_sigmas, and from them the
four coefficients of the second equation's normal form (p2_coefficients).
Its stages (rhs_p2) are then three 2x2 products on p2's four entries.  Both
equations read their stage floats through one _window_reader, which
converts a window of half-grid indices at a time: the first's seven corner
entries, the second's 16 coefficient entries.  Only the RK4 recurrence
loops over grid points.

Each result holds every half-grid array under one name, and a reader takes
node rows as [::2]; terminal values are stored bit-exactly as given.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import H3Violated, M1NotInvertible, M2NotInvertible, RiccatiBlowUp
from .model import LQModel, TimeGrid, linear_midpoints

# Relative guard on the follower's D1^2 P + R1, the H3 check.
INV_TOL = 1e-10
# Defaults of the leader's gain-inverse guard (H5, H6) and of the blow-up bound's factor.
DET_TOL, BLOW_UP_FACTOR = 1e-10, 1e8
# Half-grid indices per tolist() of a leader equation's stage inputs (_window_reader).
_STAGE_WINDOW = 64


def rk4_half_grid(rhs, y0, h: float, steps: int, *, backward: bool = False,
                  bound: float = np.finfo(float).max, fail) -> np.ndarray:
    """Classical RK4 over `steps` steps of size h, stages at half points.

    The state is a float or a tuple of n floats, stepped a component at a
    time in float arithmetic.  rhs(j, y) is its derivative in the stepping
    direction, a float or n floats: d/dt forward from node 0, or d/dtau
    (tau = T - t) backward from node `steps`, where y0 is stored exactly.
    Returns the (2*steps+1,) or (2*steps+1, n) half-grid path: index j is at
    t = j h/2, node k at index 2k and the midpoint of its step at 2k+1.
    Each new node must have every component within [-bound, bound]; a node
    that is not (a NaN never is) raises fail(t) at its time t.  The default
    bound rejects non-finite values only.  The midpoints are cubic-Hermite
    interpolants from node values and node slopes (dense output, Hairer,
    Norsett & Wanner, Solving ODEs I, II.6): 4th-order accurate, so
    consumers of off-node values keep the integrator's order.
    """
    d = -1 if backward else 1
    k = steps if backward else 0
    half, sixth = 0.5 * h, h / 6.0
    scalar = isinstance(y0, float)
    if scalar:
        def ahead(y, c, s):
            return y + c * s

        def update(y, s1, s2, s3, s4):
            return y + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    else:
        def ahead(y, c, s):
            return tuple([a + c * b for a, b in zip(y, s)])

        def update(y, *s):
            return tuple([a + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4) for a, s1, s2, s3, s4 in zip(y, *s)])
    nodes, slopes = [y0] * (steps + 1), [y0] * (steps + 1)
    y = y0
    for _ in range(steps):
        j = 2 * k
        k1 = slopes[k] = rhs(j, y)
        k2 = rhs(j + d, ahead(y, half, k1))
        k3 = rhs(j + d, ahead(y, half, k2))
        k4 = rhs(j + 2 * d, ahead(y, h, k3))
        y = update(y, k1, k2, k3, k4)
        k += d
        if not (abs(y) <= bound if scalar else all([abs(a) <= bound for a in y])):
            raise fail(k * h)
        nodes[k] = y
    slopes[k] = rhs(2 * k, y)
    out = np.empty((2 * steps + 1, *np.shape(y0)))
    out[::2] = nodes
    slopes = np.array(slopes, dtype=float)
    # The linear midpoint plus (d h/8)(s_a - s_b), formed in place; slopes are
    # taken in the stepping direction, hence the sign d.
    mids = linear_midpoints(out)
    mids += (d * h / 8.0) * (slopes[:-1] - slopes[1:])
    return out


def _blow_up_bound(terminal_scale: float, factor: float) -> float:
    return factor * (1.0 + abs(terminal_scale))


def _solve_backward(rhs, terminal, grid: TimeGrid, bound: float, message: str) -> np.ndarray:
    """Half-grid samples of rk4_half_grid stepped back from terminal at T with step dt.

    Raises RiccatiBlowUp(message) when a node value is not finite or exceeds bound.
    """
    return rk4_half_grid(rhs, terminal, grid.dt, grid.steps, backward=True, bound=bound,
                         fail=partial(RiccatiBlowUp, message))


@dataclass(frozen=True)
class FollowerRiccati:
    """The follower's solve: P and the coefficients read from it, on the half grid.

    Index j of every array is t = j * dt/2.  p[j] is P(j * dt/2): the RK4
    node values at even indices, the integrator's Hermite midpoints at odd
    ones, and P(T) = G1 exactly.

    The follower's control is u1 = -s_inv [bc P xhat + B1 theta_hat + D1 D2 P u2hat],
    s_inv = (D1^2 P + R1)^-1, bc = B1 + D1 C.  law, drift, diffusion and offset
    are (3, L) arrays of the coefficients of (xhat, theta_hat, u2hat) in -u1,
    -B1 u1, -D1 u1 and -bc P u1: the control itself and its terms in the state
    drift, the state diffusion and the offset's drift.  Each row is
    w s_inv (bc P, B1, D1 D2 P) multiplied left to right (offset takes its P
    last), a rounding the leader's blocks inherit.  offset[0] and
    offset_u2 = (B2 + D2 C) P weigh x - xhat and the raw leader control in
    the offset's drift, the forcing of its gain on X - Xhat
    (simulate.backfill_theta).  The filtered offset solves
    d(theta_hat)/dtau = theta_self theta_hat + theta_u2 u2hat, tau = T - t.
    """

    p: np.ndarray
    law: np.ndarray
    drift: np.ndarray
    diffusion: np.ndarray
    offset: np.ndarray
    offset_u2: np.ndarray
    theta_self: np.ndarray
    theta_u2: np.ndarray

    def control(self, xhat, theta_hat, u2hat) -> np.ndarray:
        """The follower's control at the nodes from node samples of its inputs."""
        k = self.law[:, ::2]
        return -(k[0] * xhat + k[1] * theta_hat + k[2] * u2hat)


def solve_follower_P(model: LQModel, *, blow_up_factor: float = BLOW_UP_FACTOR) -> FollowerRiccati:
    """Integrate the follower's Riccati equation backward from P(T) = G1.

    _solve_backward with the coefficients read at the half-grid stage times;
    P is kept there too (nodes and Hermite midpoints), where later solves
    read it, and its coefficients are evaluated there once
    (follower_coefficients).
    Raises H3Violated if D1^2 P + R1 degenerates at any evaluation point and
    RiccatiBlowUp if |P| exceeds blow_up_factor * (1 + |G1|).
    """
    grid = model.grid
    a, b1, c, d1, q1, r1 = (model.nodes(k, 2).tolist() for k in ("A", "B1", "C", "D1", "Q1", "R1"))

    def rhs(j: int, p: float) -> float:
        s = d1[j] * d1[j] * p + r1[j]
        if not (s > INV_TOL * (1.0 + abs(d1[j] * d1[j] * p) + abs(r1[j]))):
            raise H3Violated("D1^2 P + R1 not invertible", j * grid.dt / 2)
        bc = b1[j] + d1[j] * c[j]
        return 2.0 * a[j] * p + c[j] * c[j] * p - bc * bc * p * p / s + q1[j]

    p = _solve_backward(rhs, float(model.G1), grid, _blow_up_bound(model.G1, blow_up_factor),
                        "follower Riccati solution exploded")
    return follower_coefficients(model, p)


def follower_coefficients(model: LQModel, p: np.ndarray) -> FollowerRiccati:
    """The follower's solve from p, the (2N+1,) half-grid samples of P.

    Raises H3Violated if D1^2 P + R1 degenerates at a sample point, at the
    failing time nearest T, where a backward solve meets it first.
    """
    A, B1, B2, C, D1, D2, R1 = (model.nodes(k, 2) for k in ("A", "B1", "B2", "C", "D1", "D2", "R1"))
    s = D1 * D1 * p + R1
    bad = ~(s > INV_TOL * (1.0 + np.abs(D1 * D1 * p) + np.abs(R1)))
    if np.any(bad):
        raise H3Violated("D1^2 P + R1 not invertible", int(np.flatnonzero(bad)[-1]) * model.grid.dt / 2)
    s_inv = 1.0 / s
    bc = B1 + D1 * C

    def rows(w):
        ws = w * s_inv
        return np.stack([ws * bc * p, ws * B1, ws * D1 * D2 * p])

    offset = rows(bc) * p
    offset_u2 = (B2 + D2 * C) * p
    return FollowerRiccati(
        p=p, law=rows(1.0), drift=rows(B1), diffusion=rows(D1),
        offset=offset, offset_u2=offset_u2,
        theta_self=A - offset[1], theta_u2=offset_u2 - offset[2],
    )


@dataclass(frozen=True)
class LeaderBlocks:
    """Coefficient blocks of the leader's augmented forward-backward system.

    Sampled on the half grid, where P is: block index j is t = j * dt/2, so
    an RK4 stage at half point j reads index j and node k reads 2k; every
    RK4 stage, gain and closed-loop matrix is evaluated at half-grid points.
    Shapes (L = 2N+1): 2x2 blocks (L,2,2), column blocks (L,2), gain rows
    (L,2), scalars (L,).

    Roles in the augmented dynamics dX = [...]dt + [...]dW, -dY = [...]dt - Z dW:
      a1, a2   drift couplings to X and its estimate,
      a3, a4   diffusion couplings to X and its estimate,
      b1, c1   drift couplings to the adjoint pair Y and Z,
      d1..d4   drift/diffusion couplings to the filtered and raw leader control,
      a5       running state-cost block diag(Q2, 0),
      d5       the filtered-control coupling in the adjoint drift,
      a6, b2   rows assembling the follower's control from the estimate and Y,
      r2       leader control weight,
      gbar     terminal matrix [[G2, 0], [0, 0]].
    The follower's solve they are built from, P and its coefficients, is
    not held here: EquilibriumSolution.P is its one name.

    Effective blocks, left after the leader's control is eliminated (every
    consumer reads these; none re-derives them), with d12 = d1 + d2 and
    d34 = d3 + d4:
      rr = 1/r2,
      bb = b1 - d2 d2^T/r2,        bb12 = b1 - d12 d12^T/r2,
      cc = c1 - d2 d4^T/r2,        cc12 = c1 - d12 d34^T/r2,
      a2e = a2 - d12 d5^T/r2,      a4e = a4 - d34 d5^T/r2,
      e34 = d34 d34^T/r2,          e44 = d4 d4^T/r2,      e55 = d5 d5^T/r2,
      e11 = (d1 d12^T + d2 d1^T)/r2,  e13 = (d1 d34^T + d2 d3^T)/r2,
      e33 = (d3 d34^T + d4 d3^T)/r2.
    e11 (read by the closed-loop matrices alone, not by the solves) is
    evaluated on access.  The display blocks a2, a4, b1, c1 and r2 are read
    by no solver and are not kept; _display_blocks gives them.  Arrays only:
    the leader solves read stage floats through _window_reader.
    """

    a1: np.ndarray
    a3: np.ndarray
    a5: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    d4: np.ndarray
    d5: np.ndarray
    a6: np.ndarray
    b2: np.ndarray
    gbar: np.ndarray
    rr: np.ndarray
    bb: np.ndarray
    bb12: np.ndarray
    cc: np.ndarray
    cc12: np.ndarray
    a2e: np.ndarray
    a4e: np.ndarray
    e34: np.ndarray
    e44: np.ndarray
    e55: np.ndarray
    e13: np.ndarray
    e33: np.ndarray

    @property
    def e11(self) -> np.ndarray:
        return _over_r2(self.rr, (self.d1, self.d1 + self.d2), (self.d2, self.d1))

    def entries(self, q, *names) -> list:
        """Entry tuples (m00, m01, m10, m11) of the named 2x2 blocks over q, a half-grid slice."""
        return [(b[q, 0, 0], b[q, 0, 1], b[q, 1, 0], b[q, 1, 1]) for b in map(self.__getattribute__, names)]


def _over_r2(rr: np.ndarray, *pairs) -> np.ndarray:
    """(sum of u v^T over the (u, v) pairs) / r2 at every sample point."""
    total = pairs[0][0][:, :, None] * pairs[0][1][:, None, :]
    for u, v in pairs[1:]:
        total = total + u[:, :, None] * v[:, None, :]
    return total * rr[:, None, None]


def _display_blocks(model: LQModel, P: FollowerRiccati) -> dict:
    """Every block of the augmented-system display, on the half grid.

    Each entry is an explicit function of the model coefficients and the
    follower's coefficients, so a recomputation from (model, P) reproduces
    it exactly.
    """
    L = len(P.p)
    zeros = np.zeros(L)

    def corner(top_left):
        m = np.zeros((L, 2, 2))
        m[:, 0, 0] = top_left
        return m

    def column(top, bottom=zeros):
        return np.column_stack([top, bottom])

    a1 = np.zeros((L, 2, 2))
    a1[:, 0, 0] = model.nodes("A", 2)
    a1[:, 1, 1] = P.theta_self
    b1 = np.zeros((L, 2, 2))
    b1[:, 0, 1] = -P.drift[1]
    b1[:, 1, 0] = -P.drift[1]
    c1 = np.zeros((L, 2, 2))
    c1[:, 1, 0] = -P.diffusion[1]

    # Terminal data of the adjoint pair in offset coordinates: the follower's
    # terminal weight is already absorbed by P(T) = G1, so only the leader's
    # own weight couples to the state here; the offset row is zero.  Keeping
    # a G1 cross term would break the leader's first-order optimality (the
    # constructed control then loses against direct minimization).
    return dict(
        a1=a1, a2=corner(-P.drift[0]), a3=corner(model.nodes("C", 2)),
        a4=corner(-P.diffusion[0]), a5=corner(model.nodes("Q2", 2)), b1=b1, c1=c1,
        d1=column(-P.drift[2]), d2=column(model.nodes("B2", 2)),
        d3=column(-P.diffusion[2]), d4=column(model.nodes("D2", 2)),
        d5=column(zeros, P.theta_u2), a6=column(-P.law[0]), b2=column(zeros, -P.law[1]),
        r2=model.nodes("R2", 2),
        gbar=np.array([[model.G2, 0.0], [0.0, 0.0]]),
    )


def assemble_leader_blocks(model: LQModel, P: FollowerRiccati) -> LeaderBlocks:
    """Sample the display blocks on the half grid and evaluate the effective blocks once."""
    raw = _display_blocks(model, P)
    d1, d2, d3, d4, d5 = (raw[k] for k in ("d1", "d2", "d3", "d4", "d5"))
    b1 = raw.pop("b1")
    c1 = raw.pop("c1")
    a2 = raw.pop("a2")
    a4 = raw.pop("a4")
    rr = 1.0 / raw.pop("r2")
    d12 = d1 + d2
    d34 = d3 + d4

    return LeaderBlocks(
        **raw,
        rr=rr,
        bb=b1 - _over_r2(rr, (d2, d2)),
        bb12=b1 - _over_r2(rr, (d12, d12)),
        cc=c1 - _over_r2(rr, (d2, d4)),
        cc12=c1 - _over_r2(rr, (d12, d34)),
        a2e=a2 - _over_r2(rr, (d12, d5)),
        a4e=a4 - _over_r2(rr, (d34, d5)),
        e34=_over_r2(rr, (d34, d34)),
        e44=_over_r2(rr, (d4, d4)),
        e55=_over_r2(rr, (d5, d5)),
        e13=_over_r2(rr, (d1, d34), (d2, d3)),
        e33=_over_r2(rr, (d3, d34), (d4, d3)),
    )


# A 2x2 matrix [[m00, m01], [m10, m11]] is held as its entry tuple
# (m00, m01, m10, m11).  Each entry is a Python float at one RK4 stage and an
# array over the half grid, so one formula set serves both.

def _mm(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _t(a):
    return (a[0], a[2], a[1], a[3])


def _matrix(m) -> np.ndarray:
    """The (..., 2, 2) stack with entry tuple m."""
    return np.stack(m, axis=-1).reshape(np.shape(m[0]) + (2, 2))


def _corner_inverse(det, det_tol: float, t, err):
    """Adjugate inverse of [[det, +0.0], [+0.0, 1]] as an entry tuple, guarded as a 2x2 matrix.

    t is the time of each sample of det.  A failure is reported at the
    failing time nearest T, where a backward solve meets it first.
    """
    ok = abs(det) > det_tol * (1.0 + (det * det + 1.0))
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise err("gain matrix inverse does not exist", float(np.max(np.asarray(t)[np.logical_not(ok)])))
    return (1.0 / det, -0.0 / det, -0.0 / det, det / det)


def gain_inverses(pi, e34, e44, t, *, det_tol: float = DET_TOL):
    """The two 2x2 inverse matrices guarding the Z-elimination, plus determinants.

    First: [I + p1 (d3+d4) r2^-1 (d3+d4)^T]^-1, second: [I + p1 d4 r2^-1 d4^T]^-1,
    as entry tuples, at p1 = diag(pi, 0), with e34 and e44 the (0, 0)
    entries of those two blocks and t the time: floats at one RK4 stage,
    arrays over a slice of the half grid.  p1 keeps that form exactly (a1 is
    diagonal, a3, a5, e34 and e44 are corner blocks, bb and cc enter only as
    p1 bb p1, p1 cc and cc^T p1), so this and rhs_p1 are the (0, 0) entries
    of the 2x2 forms with every product by an exact zero dropped, in the
    same operation order: the same bits.
    Raises M1NotInvertible / M2NotInvertible when the guard trips.
    """
    det1, det2 = 1.0 + pi * e34, 1.0 + pi * e44
    m1 = _corner_inverse(det1, det_tol, t, M1NotInvertible)
    m2 = _corner_inverse(det2, det_tol, t, M2NotInvertible)
    return m1, m2, det1, det2


def rhs_p1(pi, a1, a3, a5, bb, cc, *, m2):
    """d(pi)/dtau of the first leader Riccati equation, with m2 the second gain inverse at pi."""
    return (((pi * a1 + a1 * pi) + (pi * bb) * pi) + a5) + (((a3 + pi * cc) * m2[0]) * pi) * (a3 + cc * pi)


# What the second leader equation and the sigmas read of the first solution
# at one q, all entry tuples: p1, its two gain inverses and the products of p1
# with the blocks (t marks a transpose, p1_a34 is p1 (a3 + a4e) and a3_p1_cc
# is a3 + p1 cc).  None depends on p2.
P1Terms = namedtuple("P1Terms", "p1 m1 m2 p1_a34 p1_cc12t p1_a4e p1_cct p1_e13t p1_e33 p1_bb_p1 "
                                "a3_p1_cc p1_e13")


def p1_terms(p1, m1, m2, blocks: LeaderBlocks, q) -> P1Terms:
    """The first solution's terms over q from p1 = diag(pi, 0), where p1 b is pi times b's first row."""
    a3, a4e, bb, cc, cc12, e13, e33 = blocks.entries(q, "a3", "a4e", "bb", "cc", "cc12", "e13", "e33")
    pi, zero = p1[0], p1[3]
    *rows, p1_cc, p1_e13 = [(pi * b[0], pi * b[1], zero, zero)
                            for b in (_add(a3, a4e), _t(cc12), a4e, _t(cc), _t(e13), e33, cc, e13)]
    return P1Terms(p1, m1, m2, *rows, ((pi * bb[0]) * pi, zero, zero, zero), _add(a3, p1_cc), p1_e13)


def sigma1(f: P1Terms, p2):
    """Gain mapping the estimated state to the estimated adjoint diffusion."""
    return _mm(f.m1, _add(f.p1_a34, _mm(f.p1_cc12t, _add(f.p1, p2))))


def sigma2(f: P1Terms, blocks: LeaderBlocks, q):
    """Gain mapping the raw state to the adjoint diffusion."""
    (a3,) = blocks.entries(q, "a3")
    return _mm(f.m2, _add(_mm(f.p1, a3), _mm(f.p1_cct, f.p1)))


def sigma3(f: P1Terms, p2, s1):
    """Gain mapping the estimated state to the adjoint diffusion."""
    inner = _add(f.p1_a4e, _mm(f.p1_cct, p2))
    inner = _sub(inner, _mm(f.p1_e13t, _add(f.p1, p2)))
    inner = _sub(inner, _mm(f.p1_e33, s1))
    return _mm(f.m2, inner)


def p2_coefficients(f: P1Terms, a1, a2e, a4e, bb12, cc12, e55):
    """K, M, N, O of the second leader equation: d(p2)/dtau = K + M p2 + p2 N + p2 O p2.

    The general right-hand side, with p12 = p1 + p2 and s1, s3 = sigma1, sigma3,
        p12 a2e + a2e^T p12 + p2 a1 + a1 p2 + p12 bb12 p12 - p1 bb p1
        + (a3 + p1 cc) s3 + (a4e^T + p2 cc12 - p1 e13) s1 - e55,
    reads p2 in s1 = S1_0 + S1_l p2, s3 = S3_0 + S3_l p2 and two products: it
    is this matrix-Riccati normal form (Reid, Riccati Differential Equations,
    1972), whose coefficients, entry tuples, do not depend on p2.
    """
    s1_0 = _mm(f.m1, _add(f.p1_a34, _mm(f.p1_cc12t, f.p1)))
    s1_l = _mm(f.m1, f.p1_cc12t)
    s3_0 = _mm(f.m2, _sub(_sub(f.p1_a4e, _mm(f.p1_e13t, f.p1)), _mm(f.p1_e33, s1_0)))
    s3_l = _mm(f.m2, _sub(_sub(f.p1_cct, f.p1_e13t), _mm(f.p1_e33, s1_l)))
    a4e_t_e13 = _sub(_t(a4e), f.p1_e13)
    k = _add(_mm(f.p1, a2e), _mm(_t(a2e), f.p1))
    k = _sub(_add(k, _mm(_mm(f.p1, bb12), f.p1)), f.p1_bb_p1)
    k = _sub(_add(_add(k, _mm(f.a3_p1_cc, s3_0)), _mm(a4e_t_e13, s1_0)), e55)
    m = _add(_add(_add(_t(a2e), a1), _mm(f.p1, bb12)), _add(_mm(f.a3_p1_cc, s3_l), _mm(a4e_t_e13, s1_l)))
    n = _add(_add(_add(a2e, a1), _mm(bb12, f.p1)), _mm(cc12, s1_0))
    return k, m, n, _add(bb12, _mm(cc12, s1_l))


def rhs_p2(p2, k, m, n, o):
    """d(p2)/dtau of the second leader Riccati equation, K + M p2 + p2 (N + O p2), entry tuples."""
    return _add(_add(k, _mm(m, p2)), _mm(p2, _add(n, _mm(o, p2))))


@dataclass(frozen=True)
class LeaderRiccati:
    """Both leader Riccati solutions, (L, 2, 2) and never symmetrized; p1 = diag(pi, 0).

    p1 and p2 are the two solutions on the half grid (index j: t = j * dt/2):
    even indices are the RK4 node values, odd indices the integrator's
    Hermite midpoints, so downstream stages can read them off-node without
    losing order; the node values are p1[::2] and p2[::2].  p2 is stepped
    as a tuple of its four entries.  Terminal data are stored bit-exactly:
    p1(T) = gbar, p2(T) = 0.  terms is p1_terms on the same half grid,
    formed once, which the second equation's coefficients and compute_sigmas
    read.  Its m1 and m2 are the one name of the two guarded gain inverses
    of gain_inverses at p1, as entry tuples, and its p1 = (pi, 0, 0, 0) is
    p1's one stored form, read by p1 (one zero array fills its zeros and the
    other terms' zero rows).  min_det_m1/min_det_m2 log the worst
    determinant of the two guarded inverses seen during integration.
    """

    p2: np.ndarray
    terms: P1Terms
    min_det_m1: float
    min_det_m2: float

    @property
    def p1(self) -> np.ndarray:
        return _matrix(self.terms.p1)


def _window_reader(evaluate, width: int):
    """read(j): the stage inputs at half-grid index j, as Python floats.

    evaluate(q) gives the inputs on arrays (or entry tuples of arrays) over a
    half-grid slice q.  A j outside the current window evaluates the `width`
    indices ending at j and converts them with one tolist(), so a backward
    solve, reading from the top down, evaluates each index once.
    """
    lo = hi = 0
    rows = []

    def read(j):
        nonlocal lo, hi, rows
        if not lo <= j < hi:
            lo, hi = max(0, j + 1 - width), j + 1
            rows = np.moveaxis(np.array(evaluate(slice(lo, hi))), -1, 0).tolist()
        return rows[j - lo]

    return read


def solve_leader_riccati(model: LQModel, blocks: LeaderBlocks, *, det_tol: float = DET_TOL,
                         blow_up_factor: float = BLOW_UP_FACTOR) -> LeaderRiccati:
    """Integrate both leader Riccati equations backward.

    Both equations step on the node grid through _solve_backward, as P
    does (RK4 stages at half-grid points, where the blocks are stored).  The
    first is autonomous and is solved first, for pi alone, with the gain
    inverses guarded at every RK4 stage; the second reads the first at its
    stage times, so its inverses are computed and guarded once over the half
    grid, and kept with p1_terms there, from which its normal-form
    coefficients are formed once over the half grid (p2_coefficients).  Both
    read their stage inputs (the first its corner entries, the second its
    coefficients) through a _window_reader of _STAGE_WINDOW indices, with the
    same bits as a per-stage evaluation.  When D1 = D2 = 0 the inverses are
    exactly the identity and the general right-hand sides reduce to the
    special-case forms.
    Raises RiccatiBlowUp when a node value is not finite or exceeds
    blow_up_factor * (1 + max|gbar|).
    """
    grid = model.grid
    bound = _blow_up_bound(float(np.max(np.abs(blocks.gbar))), blow_up_factor)
    min_det = [np.inf, np.inf]
    # The first equation's inputs: the time and the (0, 0) entries of its blocks.
    first = [np.arange(len(blocks.rr)) * (grid.dt / 2),
             *(getattr(blocks, n)[:, 0, 0] for n in ("a1", "a3", "a5", "bb", "cc", "e34", "e44"))]
    read1 = _window_reader(lambda q: [a[q] for a in first], _STAGE_WINDOW)

    def rhs1(j, pi):
        t, a1, a3, a5, bb, cc, e34, e44 = read1(j)
        _, m2, det1, det2 = gain_inverses(pi, e34, e44, t, det_tol=det_tol)
        min_det[:] = min(min_det[0], abs(det1)), min(min_det[1], abs(det2))
        return rhs_p1(pi, a1, a3, a5, bb, cc, m2=m2)

    pi = _solve_backward(rhs1, float(blocks.gbar[0, 0]), grid, bound, "leader Riccati solution (first) exploded")
    t, *_, e34, e44 = first
    m1, m2, det1, det2 = gain_inverses(pi, e34, e44, t, det_tol=det_tol)
    # A determinant that changes sign between two samples passes the
    # magnitude guard, so each must keep its sign at T on the whole half grid.
    for det, err in ((det1, M1NotInvertible), (det2, M2NotInvertible)):
        flipped = np.flatnonzero(np.sign(det) != np.sign(det[-1]))
        if flipped.size:
            raise err("gain matrix determinant changes sign", float(flipped[-1]) * grid.dt / 2)
    terms = p1_terms((pi, *[np.zeros_like(pi)] * 3), m1, m2, blocks, slice(None))
    coefficients = p2_coefficients(terms, *blocks.entries(slice(None), "a1", "a2e", "a4e", "bb12", "cc12", "e55"))
    read2 = _window_reader(lambda q: [[e[q] for e in c] for c in coefficients], _STAGE_WINDOW)
    p2 = _solve_backward(lambda j, p2: rhs_p2(p2, *read2(j)), (0.0,) * 4, grid, bound,
                         "leader Riccati solution (second) exploded")
    return LeaderRiccati(
        p2=p2.reshape(-1, 2, 2),
        terms=terms,
        min_det_m1=float(min(min_det[0], np.min(np.abs(det1)))),
        min_det_m2=float(min(min_det[1], np.min(np.abs(det2)))),
    )


@dataclass(frozen=True)
class Sigmas:
    """The three adjoint-diffusion gains, (L, 2, 2) on the half grid (index j: t = j * dt/2).

    Node values are at even indices: s1[::2], s2[::2], s3[::2].
    """

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


def compute_sigmas(blocks: LeaderBlocks, leader: LeaderRiccati) -> Sigmas:
    """Evaluate the three gain matrices on the whole half grid from the Riccati output.

    The first solution's terms, its gain inverses among them, are the ones
    the leader solve formed and kept (leader.terms).
    """
    f, p2, q = leader.terms, tuple(leader.p2.reshape(-1, 4).T), slice(None)
    s1 = sigma1(f, p2)
    return Sigmas(s1=_matrix(s1), s2=_matrix(sigma2(f, blocks, q)), s3=_matrix(sigma3(f, p2, s1)))
