"""Equilibrium assembly and verification of the decoupling identities.

Builds the state-estimate feedback gains of both players from the Riccati
output, assembles the closed-loop coefficient matrices, reconstructs the
adjoint processes along simulated paths, and evaluates the residuals of
every identity the decoupling rests on: first-order (stationarity)
conditions, drift-matching of the two ansatz substitutions, and the discrete
backward-equation step for the follower's adjoint.

Residuals come in two flavours and are never conflated: algebraic identities
(zero to rounding, tolerance ~1e-8 of scale) and statistical ones (bounded
by 3 standard errors plus an O(dt) discretization allowance).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import reduce

import numpy as np

from .filtering import solve_leader_xhat
from .model import LQModel, validate_model
from .riccati import (P1_REFINE, DeterministicPath, FollowerRiccati, LeaderBlocks, LeaderRiccati,
                      Sigmas, assemble_leader_blocks, compute_sigmas, solve_follower_P,
                      solve_leader_riccati)
from .simulate import ClosedLoopSystem, TrajectoryEnsemble


@dataclass(frozen=True)
class FeedbackGains:
    """Row gains on the half grid (t = j * dt/2); node values at even indices.

    Leader control:  u2(t) = lx(t) . X(t) + lxhat(t) . Xhat(t),
    filtered leader control:  u2hat(t) = lhat(t) . Xhat(t), lhat = lx + lxhat,
    follower control:  u1(t) = f(t) . Xhat(t).
    """

    lx: np.ndarray
    lxhat: np.ndarray
    f: np.ndarray

    @property
    def lhat(self) -> np.ndarray:
        return self.lx + self.lxhat

    @property
    def lx_nodes(self) -> np.ndarray:
        return self.lx[::2]

    @property
    def lxhat_nodes(self) -> np.ndarray:
        return self.lxhat[::2]

    @property
    def lhat_nodes(self) -> np.ndarray:
        return self.lhat[::2]

    @property
    def f_nodes(self) -> np.ndarray:
        return self.f[::2]


def _rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row vectors times 2x2 matrices, batched over the leading grid axis."""
    return (v[:, None, :] @ m)[:, 0]


def build_gains(blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas) -> FeedbackGains:
    """Evaluate both players' feedback rows at every half-grid point."""
    # s_inv D1 D2 P, the follower's coefficient on the filtered leader control.
    cross = blocks.follower.law[2, :, None]
    rr = blocks.rr[:, None]
    p1 = leader.p1_fine
    p2 = leader.p2_fine
    p12 = p1 + p2
    s1 = sigmas.s1
    d5 = blocks.d5
    lx = -rr * (_rows(blocks.d2, p1) + _rows(blocks.d4, sigmas.s2))
    lxhat = -rr * (_rows(blocks.d1, p12) + _rows(blocks.d2, p2)
                   + _rows(blocks.d3, s1) + _rows(blocks.d4, sigmas.s3) + d5)
    f = (blocks.a6 + _rows(blocks.b2, p12)
         + cross * rr * (_rows(blocks.d1, p12) + _rows(blocks.d2, p12)
                         + _rows(blocks.d3, s1) + _rows(blocks.d4, s1) + d5))
    return FeedbackGains(lx=lx, lxhat=lxhat, f=f)


def closed_loop_matrices(blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas):
    """Node-sampled drift/diffusion coefficient matrices of the closed loop."""
    q = slice(None, None, P1_REFINE)
    p1 = leader.p1
    p2 = leader.p2
    p12 = p1 + p2
    s1 = sigmas.s1_nodes
    s2 = sigmas.s2_nodes
    s3 = sigmas.s3_nodes
    bb = blocks.bb[q]
    cc = blocks.cc[q]
    cct = cc.swapaxes(-1, -2)
    e13 = blocks.e13[q]
    e44 = blocks.e44[q]
    fx = blocks.a1[q] + bb @ p1 + cc @ s2
    fxh = blocks.a2e[q] + bb @ p2 - blocks.e11[q] @ p12 + cc @ s3 - e13 @ s1
    gx = blocks.a3[q] + cct @ p1 - e44 @ s2
    gxh = (blocks.a4e[q] + cct @ p2 - e13.swapaxes(-1, -2) @ p12 - e44 @ s3
           - blocks.e33[q] @ s1)
    return fx, fxh, gx, gxh


@dataclass(frozen=True)
class EquilibriumSolution:
    """Everything the closed-loop equilibrium needs, solved once per model."""

    model: LQModel
    P: FollowerRiccati
    blocks: LeaderBlocks
    leader: LeaderRiccati
    sigmas: Sigmas
    gains: FeedbackGains
    xhat: DeterministicPath

    def closed_loop(self) -> ClosedLoopSystem:
        fx, fxh, gx, gxh = closed_loop_matrices(self.blocks, self.leader, self.sigmas)
        return ClosedLoopSystem(
            grid=self.model.grid, drift_x=fx, drift_xhat=fxh, diff_x=gx, diff_xhat=gxh,
            lx=self.gains.lx_nodes, lxhat=self.gains.lxhat_nodes, f=self.gains.f_nodes,
            xhat=self.xhat,
        )

    def u2hat_path(self) -> DeterministicPath:
        """The leader's filtered equilibrium control."""
        vals = np.einsum("ji,ji->j", self.gains.lhat, self.xhat.half_values())
        return DeterministicPath(nodes=vals[::2], mids=vals[1::2])

    def xhat_scalar_path(self) -> DeterministicPath:
        """First component of the filtered augmented state."""
        return DeterministicPath(nodes=self.xhat.nodes[:, 0], mids=self.xhat.mids[:, 0])


def solve_equilibrium(model: LQModel, *, det_tol: float = 1e-10,
                      blow_up_factor: float = 1e8) -> EquilibriumSolution:
    """Run the full deterministic pipeline for a validated model."""
    validate_model(model)
    P = solve_follower_P(model, blow_up_factor=blow_up_factor)
    blocks = assemble_leader_blocks(model, P)
    leader = solve_leader_riccati(model, blocks, det_tol=det_tol, blow_up_factor=blow_up_factor)
    sigmas = compute_sigmas(blocks, leader)
    gains = build_gains(blocks, leader, sigmas)
    xhat = solve_leader_xhat(model, blocks, leader, sigmas)
    return EquilibriumSolution(model=model, P=P, blocks=blocks, leader=leader,
                               sigmas=sigmas, gains=gains, xhat=xhat)


@dataclass(frozen=True)
class AdjointReconstruction:
    """Adjoint processes recovered algebraically along simulated paths.

    p, k: follower adjoint pair per node and path, (N+1, m).
    y, z: leader adjoint pair (2-vectors), component first, (2, N+1, m).
    The second component of z is a structural zero.
    """

    p: np.ndarray
    k: np.ndarray
    y: np.ndarray
    z: np.ndarray


def reconstruct_adjoints(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                         theta: np.ndarray) -> AdjointReconstruction:
    """Evaluate the decoupling ansatz quantities on a closed-loop ensemble."""
    pn = eq.P.values[:, None]
    C, D2 = (eq.model.nodes(name)[:, None] for name in ("C", "D2"))
    x, q = ens.x, ens.q

    p = pn * x + theta
    k = pn * (C * x + (eq.model.nodes("D1") * ens.u1)[:, None] + D2 * ens.u2)
    xh = eq.xhat.nodes[:, :, None]
    scratch = np.empty_like(x)

    def affine(gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """gain X + shift Xhat per node and path, X = (x, q), as (2, N+1, m)."""
        shared = (shift @ xh)[..., 0]
        out = np.empty((2,) + x.shape)
        for i, row in enumerate(out):
            np.multiply(x, gain[:, i, 0, None], out=row)
            row += np.multiply(q, gain[:, i, 1, None], out=scratch)
            row += shared[:, i, None]
        return out

    return AdjointReconstruction(p=p, k=k, y=affine(eq.leader.p1, eq.leader.p2),
                                 z=affine(eq.sigmas.s2_nodes, eq.sigmas.s3_nodes))


@dataclass(frozen=True)
class ResidualStats:
    """Per-node residual with optional Monte-Carlo standard errors."""

    residual: np.ndarray
    stderr: np.ndarray | None
    scale: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residual)))


@dataclass
class NodeMoments:
    """Per-node count, mean and sum of squared deviations over paths (the last axis).

    add folds in one chunk by the pairwise update of Chan, Golub & LeVeque
    (1979): one chunk gives numpy's mean and ddof=1 variance exactly.
    """

    count: int = 0
    mean: np.ndarray | float = 0.0
    m2: np.ndarray | float = 0.0

    def add(self, samples: np.ndarray) -> "NodeMoments":
        m = samples.shape[-1]
        mean = samples.mean(axis=-1)
        m2 = ((samples - mean[..., None]) ** 2).sum(axis=-1)
        if self.count:
            total = self.count + m
            delta = mean - self.mean
            mean = self.mean + delta * (m / total)
            m2 = self.m2 + m2 + delta * delta * (self.count * m / total)
        self.count, self.mean, self.m2 = self.count + m, mean, m2
        return self

    @property
    def stderr(self) -> np.ndarray:
        """Standard error of the mean; zero for a single path."""
        return np.sqrt(self.m2 / max(self.count - 1, 1)) / np.sqrt(self.count)


def follower_stationarity_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                                   recon: AdjointReconstruction,
                                   moments: NodeMoments | None = None) -> ResidualStats:
    """First-order condition of the follower along the equilibrium.

    r(t) = R1 u1 + B1 E[p | obs] + D1 E[k | obs]; the conditional means are
    plain ensemble means because the observation is uninformative about the
    state noise.  This chunk's B1 p + D1 k is folded into moments (a fresh
    one by default); the residual covers every path folded so far.
    """
    model = eq.model
    control = model.nodes("R1") * ens.u1
    moments = (moments or NodeMoments()).add(model.nodes("B1")[:, None] * recon.p
                                             + model.nodes("D1")[:, None] * recon.k)
    scale = float(np.max(np.abs(control) + np.abs(moments.mean)) + 1e-300)
    return ResidualStats(residual=control + moments.mean, stderr=moments.stderr, scale=scale)


def _filtered_adjoint(eq: EquilibriumSolution) -> np.ndarray:
    """(p1 + p2) xhat at the nodes: the filtered leader adjoint pair.

    Its first component is the filtered phi of the leader's condition, its
    second the follower's filtered offset theta_hat.
    """
    return np.einsum("kij,kj->ki", eq.leader.p1 + eq.leader.p2, eq.xhat.nodes)


def gain_consistency_residual(eq: EquilibriumSolution) -> ResidualStats:
    """Follower control in gain form against the filtered-feedback substitution.

    u1 = f . xhat must equal the follower's control law with the offset and
    the filtered leader control read from the leader's solution: an
    algebraic identity, zero to rounding.
    """
    xh = eq.xhat.nodes
    u1_gain = np.einsum("ki,ki->k", eq.gains.f_nodes, xh)
    u2hat = np.einsum("ki,ki->k", eq.gains.lhat_nodes, xh)
    u1_sub = eq.blocks.follower.control(xh[:, 0], _filtered_adjoint(eq)[:, 1], u2hat)
    return ResidualStats(residual=u1_gain - u1_sub, stderr=None,
                         scale=float(np.max(np.abs(u1_gain))) + 1.0)


@dataclass(frozen=True)
class LeaderStationarity:
    """Leader first-order condition residual, an algebraic identity.

    algebraic_max: max over paths and nodes of the residual with the
    filtered quantities read from the reconstructions (zero up to rounding);
    its scale adds the largest |R2 u2| and |c_phi phi|.  Chunks merge exactly.
    """

    algebraic_max: float
    control_max: float
    adjoint_max: float

    @property
    def scale(self) -> float:
        return self.control_max + self.adjoint_max + 1e-300

    def merge(self, other: "LeaderStationarity") -> "LeaderStationarity":
        return LeaderStationarity(*(float(np.maximum(a, b)) for a, b in zip(astuple(self), astuple(other))))


def leader_stationarity_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                                 recon: AdjointReconstruction) -> LeaderStationarity:
    blocks = eq.blocks
    qn = slice(None, None, P1_REFINE)
    c_phi = blocks.d2[qn, 0]
    c_delta = blocks.d4[qn, 0]
    c_phih = blocks.d1[qn, 0]
    c_deltah = blocks.d3[qn, 0]
    c_qh = blocks.d5[qn, 1]
    # The filtered terms, shared by every path: phi_hat, delta_hat = (s1 xhat)[0] and q_hat.
    delta_hat = (eq.sigmas.s1_nodes @ eq.xhat.nodes[:, :, None])[:, 0, 0]
    shared = c_phih * _filtered_adjoint(eq)[:, 0] + c_deltah * delta_hat + c_qh * eq.xhat.nodes[:, 1]

    # phi = y[0], delta = z[0].  Each term is added into the control's buffer
    # once its maximum is taken, in the order control + adjoint
    # + c_delta delta + shared: at most three (N+1, m) arrays are alive here,
    # where a plain expression holds five.
    algebraic = eq.model.nodes("R2")[:, None] * ens.u2
    control_max = float(np.max(np.abs(algebraic)))
    term = c_phi[:, None] * recon.y[0]
    adjoint_max = float(np.max(np.abs(term)))
    algebraic += term
    algebraic += np.multiply(c_delta[:, None], recon.z[0], out=term)
    algebraic += shared[:, None]
    return LeaderStationarity(algebraic_max=float(np.max(np.abs(algebraic, out=algebraic))),
                              control_max=control_max, adjoint_max=adjoint_max)


@dataclass(frozen=True)
class DriftResiduals:
    """Residual coefficient grids of the two drift-matching identities.

    Interior nodes only (time derivatives by central differences).  The
    follower identity is grouped by what each coefficient multiplies; only
    the state coefficient carries the O(dt^2) differencing signal, the other
    groups cancel algebraically.  The leader identity is grouped by the raw
    augmented state and its estimate; both vanish at O(dt^2) when the two
    backward equations hold.
    """

    follower_x: np.ndarray
    follower_xhat: np.ndarray
    follower_u2: np.ndarray
    follower_u2hat: np.ndarray
    follower_theta_hat: np.ndarray
    leader_x: np.ndarray
    leader_xhat: np.ndarray

    @property
    def follower_max(self) -> float:
        return float(np.max(np.abs(self.follower_x)))

    @property
    def leader_max(self) -> float:
        return float(max(np.max(np.abs(self.leader_x)), np.max(np.abs(self.leader_xhat))))


def drift_residuals(eq: EquilibriumSolution) -> DriftResiduals:
    model = eq.model
    n = model.grid.steps
    dt = model.grid.dt
    blocks = eq.blocks

    A = model.nodes("A")
    B1 = model.nodes("B1")
    B2 = model.nodes("B2")
    C = model.nodes("C")
    D1 = model.nodes("D1")
    D2 = model.nodes("D2")
    Q1 = model.nodes("Q1")
    pn = eq.P.values
    fol = blocks.follower
    nodes = slice(None, None, P1_REFINE)
    law = fol.law[:, nodes]
    offset = fol.offset[:, nodes]

    inner = slice(1, n)
    dp = (pn[2:] - pn[:-2]) / (2.0 * dt)
    fol_x = dp + (2.0 * A * pn + C * C * pn - offset[0] + Q1)[inner]
    # The controls enter the adjoint drift through the Ito expansion of P x,
    # as (C D1 P + P B1) u1 + (C D2 P + P B2) u2, and the offset drift as
    # (B1 + D1 C) P u1 + (B2 + D2 C) P u2, read from the follower's
    # coefficients.  The groups compare the two coefficient by coefficient
    # and cancel identically; kept as an honesty check.
    cd = C * D1 * pn + pn * B1
    fol_xhat = (cd * law[0] - offset[0])[inner]
    fol_u2 = (fol.offset_u2[nodes] - (C * D2 * pn + pn * B2))[inner]
    fol_u2hat = (cd * law[2] - offset[2])[inner]
    fol_theta_hat = (cd * law[1] - offset[1])[inner]

    p1n = eq.leader.p1
    p2n = eq.leader.p2
    q = slice(P1_REFINE, P1_REFINE * n, P1_REFINE)
    p1 = p1n[inner]
    p2 = p2n[inner]
    p12 = p1 + p2
    s1 = eq.sigmas.s1_nodes[inner]
    s2 = eq.sigmas.s2_nodes[inner]
    s3 = eq.sigmas.s3_nodes[inner]
    a1 = blocks.a1[q]
    a2e = blocks.a2e[q]
    a3 = blocks.a3[q]
    bb = blocks.bb[q]
    cc = blocks.cc[q]
    dp1 = (p1n[2:] - p1n[:-2]) / (2.0 * dt)
    dp2 = (p2n[2:] - p2n[:-2]) / (2.0 * dt)

    lead_x = dp1 + p1 @ a1 + a1 @ p1 + p1 @ bb @ p1 + (p1 @ cc + a3) @ s2 + blocks.a5[q]
    lead_xh = p1 @ a2e
    lead_xh += p1 @ bb @ p2
    lead_xh -= p1 @ blocks.e11[q] @ p12
    lead_xh += p1 @ cc @ s3
    lead_xh -= p1 @ blocks.e13[q] @ s1
    lead_xh += dp2
    lead_xh += p2 @ (a1 + a2e)
    lead_xh += p2 @ blocks.bb12[q] @ p12
    lead_xh += p2 @ blocks.cc12[q] @ s1
    lead_xh += a1 @ p2
    lead_xh += a2e.swapaxes(-1, -2) @ p12
    lead_xh += a3 @ s3
    lead_xh += blocks.a4e[q].swapaxes(-1, -2) @ s1
    lead_xh -= blocks.e55[q]

    return DriftResiduals(
        follower_x=fol_x, follower_xhat=fol_xhat, follower_u2=fol_u2,
        follower_u2hat=fol_u2hat, follower_theta_hat=fol_theta_hat,
        leader_x=lead_x, leader_xhat=lead_xh,
    )


@dataclass(frozen=True)
class BsdeResidual:
    """Discrete backward-step residual of the follower adjoint, per path.

    step_residual[k, i] = p_{k+1} - p_k + (Q1 x_k + A p_k + C k_k) dt - k_k dW_k;
    time_summed[i] accumulates the steps in node order (numpy's sum over the
    time axis would round a 1-path chunk differently from a many-path one);
    rms is over paths of the sum.
    Shrinks at first order when the grid is refined.
    """

    time_summed: np.ndarray

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.time_summed ** 2)))


def bsde_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                  recon: AdjointReconstruction) -> BsdeResidual:
    model = eq.model
    dt = model.grid.dt
    A, C, Q1 = (model.nodes(name)[:-1, None] for name in ("A", "C", "Q1"))
    p = recon.p
    k = recon.k[:-1]
    steps = (p[1:] - p[:-1] + (Q1 * ens.x[:-1] + A * p[:-1] + C * k) * dt - k * ens.noise.dw)
    return BsdeResidual(time_summed=reduce(np.add, steps))  # node order, whatever the chunk
