"""Backward Riccati solves for both players, and the shared ODE integrator.

Every deterministic ODE of the equilibrium -- the follower's Riccati
equation, the leader's two 2x2 Riccati equations, the follower's filtered
pair and the leader's filtered state -- and the pathwise offset of
simulate.backfill_theta are solved by rk4_half_grid: classical RK4 with its
stages at half points of the step, which returns the node values together
with cubic-Hermite midpoints (4th order, from node values and node slopes).

The Riccati equations, integrated under the time reversal tau = T - t:

  * the follower's scalar equation
        P' + 2 A P + C^2 P - (D1^2 P + R1)^-1 (B1 + D1 C)^2 P^2 + Q1 = 0,
        P(T) = G1,
  * the leader's first 2x2 equation (autonomous given P, terminal Gbar),
  * the leader's second 2x2 equation (consumes the first, terminal 0).

Because each downstream solve evaluates the upstream solution at its RK4
stage times, P is integrated with step dt/4 and both 2x2 solves step dt with
stages at half-grid points.  Everything is stored on the half grid, the only
points any later stage reads: P, the coefficient blocks, and both 2x2
solutions, whose off-node values are the Hermite midpoints.  Every stage then
reads upstream data at full accuracy and each solve keeps genuine 4th-order
convergence for constant coefficients (array coefficients interpolate
linearly, which caps accuracy at 2nd order there, as for the rest of the
pipeline).

The follower's coefficients -- (D1^2 P + R1)^-1 and its products with
B1 + D1 C, B1 and D1 D2 P -- are evaluated once where P is sampled, by
follower_coefficients; the leader's blocks, the follower's filtered pair,
the pathwise offset, the follower's control law, the gains and the drift
residuals read them.

The leader's side reads one family of effective blocks (1/r2,
b1 - d2 d2^T/r2, c1 - d2 d4^T/r2, ..., built with d1+d2 and d3+d4), which
assemble_leader_blocks evaluates once on the whole half grid; a transpose is
a swapaxes view.  gain_inverses, sigma1-sigma3, rhs_p1 and rhs_p2 do their
arithmetic on 2x2 matrices held as entry tuples (m00, m01, m10, m11): at a
single RK4 stage (an int block index) the entries are Python floats read from
a flat view of each block, over the whole half grid (a slice) they are
arrays, and one formula set serves both, rounding identically.  A numpy call
on a 2x2 matrix costs several times the arithmetic it does, and the two
RK4 recurrences make about 19000 such evaluations at N=1600.  The sigmas and
right-hand sides take the inverses gain_inverses guards: the first equation
guards them at each of its stages; the leader solve then evaluates them once
over the half grid from the first solution and keeps them for the second
equation and the sigmas.  Only the RK4 recurrence loops over grid points.

Node-level views are the public arrays; terminal values are stored
bit-exactly as given.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .errors import H3Violated, M1NotInvertible, M2NotInvertible, RiccatiBlowUp
from .model import LQModel, TimeGrid

# Steps of the follower solve per node interval, and samples per node
# interval of every half-grid array: index j of those is t = j * dt/2.
P_REFINE = 4
P1_REFINE = 2
# Relative guard on the follower's D1^2 P + R1, the H3 check.
INV_TOL = 1e-10


@dataclass(frozen=True)
class DeterministicPath:
    """Time path on the node grid, scalar or vector valued, with midpoints.

    nodes[k] is the value at t_k; mids[k], when given, the value at the
    midpoint of [t_k, t_k+1].  Without midpoints the path is read linearly
    between nodes.
    """

    nodes: np.ndarray
    mids: np.ndarray | None = None

    def half_values(self) -> np.ndarray:
        """Node and midpoint values interleaved on the half grid, shape (2N+1, ...)."""
        n = len(self.nodes) - 1
        out = np.empty((2 * n + 1, *self.nodes.shape[1:]))
        out[::2] = self.nodes
        out[1::2] = self.mids if self.mids is not None else 0.5 * (self.nodes[:-1] + self.nodes[1:])
        return out


def rk4_half_grid(rhs, y0, h: float, steps: int, *, backward: bool = False,
                  bound: float = np.finfo(float).max, fail) -> DeterministicPath:
    """Classical RK4 over `steps` steps of size h, stages at half points.

    Node k is at t = k h and half point j at t = j h/2.  rhs(j, y) is the
    derivative of y in the stepping direction: d/dt forward from node 0, or
    d/dtau (tau = T - t) backward from node `steps`; y0 is stored there
    exactly.  Each new node must have every component within [-bound,
    bound]; a node that is not (a NaN never is) raises fail(t) at its time
    t.  The default bound rejects non-finite values only.  The midpoints are
    cubic-Hermite interpolants from node values and node slopes (dense
    output, Hairer, Norsett & Wanner, Solving ODEs I, II.6): 4th-order
    accurate, so consumers of off-node values keep the integrator's order.
    """
    d = -1 if backward else 1
    k = steps if backward else 0
    nodes = np.empty((steps + 1, *np.shape(y0)))
    slopes = np.empty_like(nodes)
    nodes[k] = y0
    y = y0
    for _ in range(steps):
        j = 2 * k
        k1 = rhs(j, y)
        slopes[k] = k1
        k2 = rhs(j + d, y + 0.5 * h * k1)
        k3 = rhs(j + d, y + 0.5 * h * k2)
        k4 = rhs(j + 2 * d, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k += d
        if not (np.abs(y) <= bound).all():
            raise fail(k * h)
        nodes[k] = y
    slopes[k] = rhs(2 * k, y)
    # Slopes are taken in the stepping direction, hence the sign d.
    mids = 0.5 * (nodes[:-1] + nodes[1:]) + (d * h / 8.0) * (slopes[:-1] - slopes[1:])
    return DeterministicPath(nodes=nodes, mids=mids)


@dataclass(frozen=True)
class FollowerRiccati:
    """Scalar backward Riccati solution P on the half grid.

    fine[j] is P(j * dt/2); the node values are fine[::2].  P(T) = G1 exactly.
    """

    grid: TimeGrid
    fine: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.fine[::P1_REFINE]


def _blow_up_bound(terminal_scale: float, factor: float) -> float:
    return factor * (1.0 + abs(terminal_scale))


def solve_follower_P(model: LQModel, *, blow_up_factor: float = 1e8) -> FollowerRiccati:
    """Integrate the follower's Riccati equation backward from P(T) = G1.

    RK4 with internal step dt/4 (coefficients read at dt/8 spacing); every
    second node value is kept, so later solves read P exactly at their stage
    times on the half grid.
    Raises H3Violated if D1^2 P + R1 degenerates at any evaluation point and
    RiccatiBlowUp if |P| exceeds blow_up_factor * (1 + |G1|).
    """
    grid = model.grid
    n_fine = P_REFINE * grid.steps
    # Coefficients at half the P-grid spacing, i.e. dt/8, for the RK4 stages.
    cref = 2 * P_REFINE
    a = model.nodes("A", cref).tolist()
    b1 = model.nodes("B1", cref).tolist()
    c = model.nodes("C", cref).tolist()
    d1 = model.nodes("D1", cref).tolist()
    q1 = model.nodes("Q1", cref).tolist()
    r1 = model.nodes("R1", cref).tolist()

    horizon = grid.horizon
    h = horizon / n_fine
    bound = _blow_up_bound(model.G1, blow_up_factor)

    def rhs(i8: int, p: float) -> float:
        # dP/dtau at coefficient index i8, a half point of the dt/4 steps.
        s = d1[i8] * d1[i8] * p + r1[i8]
        if not (s > INV_TOL * (1.0 + abs(d1[i8] * d1[i8] * p) + abs(r1[i8]))):
            raise H3Violated("D1^2 P + R1 not invertible", i8 * horizon / (2 * n_fine))
        bc = b1[i8] + d1[i8] * c[i8]
        return 2.0 * a[i8] * p + c[i8] * c[i8] * p - bc * bc * p * p / s + q1[i8]

    path = rk4_half_grid(rhs, float(model.G1), h, n_fine, backward=True, bound=bound,
                         fail=partial(RiccatiBlowUp, "follower Riccati solution exploded"))
    return FollowerRiccati(grid=grid, fine=path.nodes[::P_REFINE // P1_REFINE].copy())


@dataclass(frozen=True)
class FollowerCoefficients:
    """The follower's coefficients on the half grid (index j: t = j * dt/2).

    The follower's control is u1 = -s_inv [bc P xhat + B1 theta_hat + D1 D2 P u2hat],
    s_inv = (D1^2 P + R1)^-1, bc = B1 + D1 C.  law, drift, diffusion and offset
    are (3, L) arrays of the coefficients of (xhat, theta_hat, u2hat) in -u1,
    -B1 u1, -D1 u1 and -bc P u1: the control itself and its terms in the state
    drift, the state diffusion and the offset's drift.  Each row is
    w s_inv (bc P, B1, D1 D2 P) multiplied left to right (offset takes its P
    last), a rounding the leader's blocks inherit.  offset[0] and
    offset_u2 = (B2 + D2 C) P weigh x - xhat and the raw leader control in
    the pathwise offset's drift.  The filtered offset solves
    d(theta_hat)/dtau = theta_self theta_hat + theta_u2 u2hat, tau = T - t.
    """

    law: np.ndarray
    drift: np.ndarray
    diffusion: np.ndarray
    offset: np.ndarray
    offset_u2: np.ndarray
    theta_self: np.ndarray
    theta_u2: np.ndarray

    def control(self, xhat, theta_hat, u2hat) -> np.ndarray:
        """The follower's control at the nodes from node samples of its inputs."""
        k = self.law[:, ::P1_REFINE]
        return -(k[0] * xhat + k[1] * theta_hat + k[2] * u2hat)


def follower_coefficients(model: LQModel, P: FollowerRiccati) -> FollowerCoefficients:
    """Evaluate the follower's coefficients once on the half grid, where P is sampled.

    Raises H3Violated if D1^2 P + R1 degenerates at a sample point.
    """
    grid = model.grid
    A, B1, B2, C, D1, D2, R1 = (model.nodes(k, P1_REFINE) for k in ("A", "B1", "B2", "C", "D1", "D2", "R1"))
    p = P.fine

    s = D1 * D1 * p + R1
    bad = ~(s > INV_TOL * (1.0 + np.abs(D1 * D1 * p) + np.abs(R1)))
    if np.any(bad):
        q = int(np.argmax(bad))
        raise H3Violated("D1^2 P + R1 not invertible", q * grid.dt / P1_REFINE)
    s_inv = 1.0 / s
    bc = B1 + D1 * C

    def rows(w):
        ws = w * s_inv
        return np.stack([ws * bc * p, ws * B1, ws * D1 * D2 * p])

    offset = rows(bc) * p
    offset_u2 = (B2 + D2 * C) * p
    return FollowerCoefficients(
        law=rows(1.0), drift=rows(B1), diffusion=rows(D1),
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
      gbar     terminal matrix [[G2, 0], [0, 0]];
    follower holds the follower's coefficients these blocks are built from.

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
    e11 (read by the closed-loop matrices and the drift residual, not by
    the solves) is evaluated on access.  The display blocks a2, a4, b1, c1
    and r2 are read by no solver and are not kept; _display_blocks gives
    them.
    """

    grid: TimeGrid
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
    follower: FollowerCoefficients
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

    @cached_property
    def _flat(self) -> dict:
        """Flat float views of the (L, 2, 2) blocks, without copies: entry k of block index q at 4q + k."""
        blocks = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: memoryview(np.ascontiguousarray(b)).cast("B").cast("d")
                for name, b in blocks if isinstance(b, np.ndarray) and b.shape[1:] == (2, 2)}

    def entries(self, q, *names) -> list:
        """Entry tuples (m00, m01, m10, m11) of the named 2x2 blocks at index q.

        Python floats for an int q (one RK4 stage), arrays for a slice or an
        index array (slice(None): the whole half grid).
        """
        if isinstance(q, int):
            i = 4 * q
            return [(f[i], f[i + 1], f[i + 2], f[i + 3]) for f in map(self._flat.__getitem__, names)]
        return [(b[q, 0, 0], b[q, 0, 1], b[q, 1, 0], b[q, 1, 1]) for b in (getattr(self, n) for n in names)]


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
    fol = follower_coefficients(model, P)
    L = len(P.fine)
    zeros = np.zeros(L)

    def corner(top_left):
        m = np.zeros((L, 2, 2))
        m[:, 0, 0] = top_left
        return m

    def column(top, bottom=zeros):
        return np.column_stack([top, bottom])

    a1 = np.zeros((L, 2, 2))
    a1[:, 0, 0] = model.nodes("A", P1_REFINE)
    a1[:, 1, 1] = fol.theta_self
    b1 = np.zeros((L, 2, 2))
    b1[:, 0, 1] = -fol.drift[1]
    b1[:, 1, 0] = -fol.drift[1]
    c1 = np.zeros((L, 2, 2))
    c1[:, 1, 0] = -fol.diffusion[1]

    # Terminal data of the adjoint pair in offset coordinates: the follower's
    # terminal weight is already absorbed by P(T) = G1, so only the leader's
    # own weight couples to the state here; the offset row is zero.  Keeping
    # a G1 cross term would break the leader's first-order optimality (the
    # constructed control then loses against direct minimization).
    return dict(
        a1=a1, a2=corner(-fol.drift[0]), a3=corner(model.nodes("C", P1_REFINE)),
        a4=corner(-fol.diffusion[0]), a5=corner(model.nodes("Q2", P1_REFINE)), b1=b1, c1=c1,
        d1=column(-fol.drift[2]), d2=column(model.nodes("B2", P1_REFINE)),
        d3=column(-fol.diffusion[2]), d4=column(model.nodes("D2", P1_REFINE)),
        d5=column(zeros, fol.theta_u2), a6=column(-fol.law[0]), b2=column(zeros, -fol.law[1]),
        r2=model.nodes("R2", P1_REFINE), follower=fol,
        gbar=np.array([[model.G2, 0.0], [0.0, 0.0]]),
    )


def assemble_leader_blocks(model: LQModel, P: FollowerRiccati) -> LeaderBlocks:
    """Sample the display blocks on the half grid and evaluate the effective blocks once.

    Raises H3Violated if D1^2 P + R1 degenerates at a sample point.
    """
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
        grid=model.grid, **raw,
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


def _entries(mat: np.ndarray):
    """Entry tuple of a (2, 2) matrix (floats) or of a stack of them (arrays)."""
    if mat.ndim == 2:
        return mat.ravel().tolist()
    return (mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 0], mat[..., 1, 1])


def _matrix(m) -> np.ndarray:
    """The (2, 2) matrix, or the (..., 2, 2) stack, with entry tuple m."""
    if isinstance(m[0], float):
        return np.array(m).reshape(2, 2)
    return np.stack(m, axis=-1).reshape(m[0].shape + (2, 2))


_I2 = (1.0, 0.0, 0.0, 1.0)


def _inv2(m, det_tol: float, blocks: LeaderBlocks, q, err):
    """Adjugate inverse of a 2x2 entry tuple and its determinant, guarded.

    A failure is reported at the failing time nearest T, where a backward
    solve meets it first.
    """
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    ok = abs(det) > det_tol * (1.0 + (((m00 * m00 + m01 * m01) + m10 * m10) + m11 * m11))
    if not (ok if isinstance(ok, bool) else ok.all()):
        times = np.arange(len(blocks.rr))[q] * (blocks.grid.dt / P1_REFINE)
        raise err("gain matrix inverse does not exist", float(np.max(times[np.logical_not(ok)])))
    return (m11 / det, -m01 / det, -m10 / det, m00 / det), det


def gain_inverses(p1: np.ndarray, blocks: LeaderBlocks, q, *, det_tol: float = 1e-10):
    """The two 2x2 inverse matrices guarding the Z-elimination, plus determinants.

    First: [I + p1 (d3+d4) r2^-1 (d3+d4)^T]^-1, second: [I + p1 d4 r2^-1 d4^T]^-1.
    q is a half-grid index, or an index array or slice with p1 stacked to match.
    Raises M1NotInvertible / M2NotInvertible when the guard trips.
    """
    p = _entries(p1)
    e34, e44 = blocks.entries(q, "e34", "e44")
    m1, det1 = _inv2(_add(_I2, _mm(p, e34)), det_tol, blocks, q, M1NotInvertible)
    m2, det2 = _inv2(_add(_I2, _mm(p, e44)), det_tol, blocks, q, M2NotInvertible)
    return _matrix(m1), _matrix(m2), det1, det2


def _sigma1(p1, p2, m1, blocks: LeaderBlocks, q):
    a3, a4e, cc12 = blocks.entries(q, "a3", "a4e", "cc12")
    inner = _add(_mm(p1, _add(a3, a4e)), _mm(_mm(p1, _t(cc12)), _add(p1, p2)))
    return _mm(m1, inner)


def _sigma3(p1, p2, m2, s1, blocks: LeaderBlocks, q):
    a4e, cc, e13, e33 = blocks.entries(q, "a4e", "cc", "e13", "e33")
    inner = _add(_mm(p1, a4e), _mm(_mm(p1, _t(cc)), p2))
    inner = _sub(inner, _mm(_mm(p1, _t(e13)), _add(p1, p2)))
    inner = _sub(inner, _mm(_mm(p1, e33), s1))
    return _mm(m2, inner)


def sigma1(p1: np.ndarray, p2: np.ndarray, blocks: LeaderBlocks, q, *, m1: np.ndarray) -> np.ndarray:
    """Gain mapping the estimated state to the estimated adjoint diffusion."""
    return _matrix(_sigma1(_entries(p1), _entries(p2), _entries(m1), blocks, q))


def sigma2(p1: np.ndarray, blocks: LeaderBlocks, q, *, m2: np.ndarray) -> np.ndarray:
    """Gain mapping the raw state to the adjoint diffusion."""
    p1 = _entries(p1)
    a3, cc = blocks.entries(q, "a3", "cc")
    inner = _add(_mm(p1, a3), _mm(_mm(p1, _t(cc)), p1))
    return _matrix(_mm(_entries(m2), inner))


def sigma3(p1: np.ndarray, p2: np.ndarray, blocks: LeaderBlocks, q, *, m2: np.ndarray,
           s1: np.ndarray) -> np.ndarray:
    """Gain mapping the estimated state to the adjoint diffusion."""
    return _matrix(_sigma3(_entries(p1), _entries(p2), _entries(m2), _entries(s1), blocks, q))


def rhs_p1(p1: np.ndarray, blocks: LeaderBlocks, q, *, m2: np.ndarray) -> np.ndarray:
    """d(p1)/dtau of the first leader Riccati equation (general form)."""
    p1 = _entries(p1)
    a1, a3, a5, bb, cc = blocks.entries(q, "a1", "a3", "a5", "bb", "cc")
    out = _add(_mm(p1, a1), _mm(a1, p1))
    out = _add(out, _mm(_mm(p1, bb), p1))
    out = _add(out, a5)
    left = _mm(_mm(_add(a3, _mm(p1, cc)), _entries(m2)), p1)
    return _matrix(_add(out, _mm(left, _add(a3, _mm(_t(cc), p1)))))


def rhs_p2(p1: np.ndarray, p2: np.ndarray, blocks: LeaderBlocks, q, *, m1: np.ndarray,
           m2: np.ndarray) -> np.ndarray:
    """d(p2)/dtau of the second leader Riccati equation (general form)."""
    p1 = _entries(p1)
    p2 = _entries(p2)
    s1 = _sigma1(p1, p2, _entries(m1), blocks, q)
    s3 = _sigma3(p1, p2, _entries(m2), s1, blocks, q)
    a1, a2e, a3, a4e, bb, bb12, cc, cc12, e13, e55 = blocks.entries(
        q, "a1", "a2e", "a3", "a4e", "bb", "bb12", "cc", "cc12", "e13", "e55")
    p12 = _add(p1, p2)

    out = _add(_mm(p12, a2e), _mm(_t(a2e), p12))
    out = _add(out, _add(_mm(p2, a1), _mm(a1, p2)))
    out = _add(out, _mm(_mm(p12, bb12), p12))
    out = _sub(out, _mm(_mm(p1, bb), p1))
    out = _add(out, _mm(_add(a3, _mm(p1, cc)), s3))
    out = _add(out, _mm(_sub(_add(_t(a4e), _mm(p2, cc12)), _mm(p1, e13)), s1))
    return _matrix(_sub(out, e55))

@dataclass(frozen=True)
class LeaderRiccati:
    """Both 2x2 leader Riccati solutions, non-symmetric, never symmetrized.

    p1_fine and p2_fine hold the two solutions at dt/2 spacing: even indices
    are the RK4 node values, odd indices the integrator's Hermite midpoints,
    so downstream stages can read them off-node without losing order.
    Terminal data are stored bit-exactly: p1(T) = gbar, p2(T) = 0.
    m1 and m2 are the two guarded gain inverses of gain_inverses at p1_fine,
    on the same half grid; the second equation and compute_sigmas read them.
    min_det_m1/min_det_m2 log the worst determinant of the two guarded
    inverses seen during integration.
    """

    grid: TimeGrid
    p1_fine: np.ndarray
    p2_fine: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    min_det_m1: float
    min_det_m2: float

    @property
    def p1(self) -> np.ndarray:
        return self.p1_fine[::P1_REFINE]

    @property
    def p2(self) -> np.ndarray:
        return self.p2_fine[::P1_REFINE]


def solve_leader_riccati(model: LQModel, blocks: LeaderBlocks, *, det_tol: float = 1e-10,
                         blow_up_factor: float = 1e8) -> LeaderRiccati:
    """Integrate both leader Riccati equations backward.

    Both equations step on the node grid (RK4 stages at half-grid points,
    where the blocks are stored exactly).  The first equation is autonomous
    in its own unknown and is solved first, with the gain inverses guarded
    at every RK4 stage; the second consumes the first at its stage times
    through the Hermite midpoints, so its inverses depend on the first
    solution only and are computed and guarded for the whole half grid in
    one pass, and kept for compute_sigmas.  When D1 = D2 = 0 the general
    right-hand sides reduce algebraically to the special-case forms (the
    guarded inverses are exactly the identity); the same integrator serves
    both regimes.
    Raises RiccatiBlowUp when a node value is not finite or exceeds
    blow_up_factor * (1 + max|gbar|).
    """
    grid = model.grid
    bound = _blow_up_bound(float(np.max(np.abs(blocks.gbar))), blow_up_factor)
    min_det = [np.inf, np.inf]

    def rhs1(j, mat):
        _, m2, det1, det2 = gain_inverses(mat, blocks, j, det_tol=det_tol)
        min_det[0] = min(min_det[0], abs(det1))
        min_det[1] = min(min_det[1], abs(det2))
        return rhs_p1(mat, blocks, j, m2=m2)

    def solve(rhs, terminal, label):
        fail = partial(RiccatiBlowUp, f"leader Riccati solution ({label}) exploded")
        path = rk4_half_grid(rhs, terminal, grid.dt, grid.steps, backward=True, bound=bound, fail=fail)
        return path.half_values()

    p1_fine = solve(rhs1, blocks.gbar, "first")
    m1, m2, det1, det2 = gain_inverses(p1_fine, blocks, slice(None), det_tol=det_tol)
    # A determinant that changes sign between two samples passes the
    # magnitude guard, so each must keep its sign at T on the whole half grid.
    for det, err in ((det1, M1NotInvertible), (det2, M2NotInvertible)):
        flipped = np.flatnonzero(np.sign(det) != np.sign(det[-1]))
        if flipped.size:
            raise err("gain matrix determinant changes sign", float(flipped[-1]) * grid.dt / 2)

    def rhs2(j, mat):
        return rhs_p2(p1_fine[j], mat, blocks, j, m1=m1[j], m2=m2[j])

    return LeaderRiccati(
        grid=grid,
        p1_fine=p1_fine,
        p2_fine=solve(rhs2, np.zeros((2, 2)), "second"),
        m1=m1, m2=m2,
        min_det_m1=float(min(min_det[0], np.min(np.abs(det1)))),
        min_det_m2=float(min(min_det[1], np.min(np.abs(det2)))),
    )


@dataclass(frozen=True)
class Sigmas:
    """Half-grid samples (t = j * dt/2) of the three adjoint-diffusion gains."""

    grid: TimeGrid
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    @property
    def s1_nodes(self) -> np.ndarray:
        return self.s1[::2]

    @property
    def s2_nodes(self) -> np.ndarray:
        return self.s2[::2]

    @property
    def s3_nodes(self) -> np.ndarray:
        return self.s3[::2]


def compute_sigmas(blocks: LeaderBlocks, leader: LeaderRiccati) -> Sigmas:
    """Evaluate the three gain matrices on the whole half grid from the Riccati output.

    The gain inverses are the ones the leader solve guarded and kept.
    """
    q = slice(None)
    p1 = leader.p1_fine
    p2 = leader.p2_fine
    s1 = sigma1(p1, p2, blocks, q, m1=leader.m1)
    return Sigmas(grid=leader.grid, s1=s1, s2=sigma2(p1, blocks, q, m2=leader.m2),
                  s3=sigma3(p1, p2, blocks, q, m2=leader.m2, s1=s1))
