"""Equilibrium assembly and verification of the decoupling identities.

Builds the state-estimate feedback gains of both players from the Riccati
output and the closed-loop coefficient matrices, whose drift the filtered
state steps (solve_equilibrium solves each part once), reconstructs the
adjoint processes along simulated paths, and evaluates the residuals of
every identity the decoupling rests on: first-order (stationarity)
conditions, drift-matching of the two ansatz substitutions, and the discrete
backward-equation step for the follower's adjoint.

Residuals come in two flavours and are never conflated: algebraic identities
(zero to rounding, tolerance ~1e-8 of scale) and statistical ones (bounded
by 3 standard errors plus an O(dt) discretization allowance).

Each family of verify's report rows is one check object: rows(tol) forms
its rows, and a check that reads simulated paths also has add(chunk), which
fold_chunks, the one streamed pass over closed-loop chunks, calls with each
chunk in path order.  A family's residual function returns its check: the
follower and leader stationarity and backward-step residuals fold one
ensemble into a check (a fresh one by default), and the drift residuals are
a check of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .filtering import FilterPath, solve_follower_filter, solve_leader_xhat
from .model import LQModel, validate_model
from .reporting import CheckRow, check_row
from .riccati import (BLOW_UP_FACTOR, DET_TOL, FollowerRiccati, LeaderBlocks, LeaderRiccati, Sigmas,
                      assemble_leader_blocks, compute_sigmas, solve_follower_P, solve_leader_riccati)
from .simulate import (ClosedLoopSystem, TrajectoryEnsemble, backfill_theta, closed_loop_chunks,
                       density_process)


def _rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row vectors times 2x2 matrices, batched over the leading grid axis."""
    return (v[:, None, :] @ m)[:, 0]


def build_gains(P: FollowerRiccati, blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas):
    """Both players' feedback rows lx, lxhat and f, (2N+1, 2) on the half grid.

    Leader control:  u2 = lx . X + lxhat . Xhat,  follower control:  u1 = f . Xhat.
    """
    # s_inv D1 D2 P, the follower's coefficient on the filtered leader control.
    cross = P.law[2, :, None]
    rr = blocks.rr[:, None]
    p1 = leader.p1
    p2 = leader.p2
    p12 = p1 + p2
    s1 = sigmas.s1
    d5 = blocks.d5
    lx = -rr * (_rows(blocks.d2, p1) + _rows(blocks.d4, sigmas.s2))
    lxhat = -rr * (_rows(blocks.d1, p12) + _rows(blocks.d2, p2)
                   + _rows(blocks.d3, s1) + _rows(blocks.d4, sigmas.s3) + d5)
    f = (blocks.a6 + _rows(blocks.b2, p12)
         + cross * rr * (_rows(blocks.d1, p12) + _rows(blocks.d2, p12)
                         + _rows(blocks.d3, s1) + _rows(blocks.d4, s1) + d5))
    return lx, lxhat, f


def closed_loop_matrices(blocks: LeaderBlocks, leader: LeaderRiccati, sigmas: Sigmas):
    """Half-grid drift/diffusion coefficient matrices of the closed loop."""
    p1 = leader.p1
    p2 = leader.p2
    p12 = p1 + p2
    s1 = sigmas.s1
    s2 = sigmas.s2
    s3 = sigmas.s3
    bb = blocks.bb
    cc = blocks.cc
    cct = cc.swapaxes(-1, -2)
    e13 = blocks.e13
    e44 = blocks.e44
    fx = blocks.a1 + bb @ p1 + cc @ s2
    fxh = blocks.a2e + bb @ p2 - blocks.e11 @ p12 + cc @ s3 - e13 @ s1
    gx = blocks.a3 + cct @ p1 - e44 @ s2
    gxh = (blocks.a4e + cct @ p2 - e13.swapaxes(-1, -2) @ p12 - e44 @ s3
           - blocks.e33 @ s1)
    return fx, fxh, gx, gxh


@dataclass(frozen=True)
class EquilibriumSolution:
    """Everything the closed-loop equilibrium needs, solved once per model.

    Each array has one name.  P is the follower's solve: P.p and the
    follower's coefficients, from which the leader's blocks are built.
    closed_loop holds the closed loop's half-grid coefficients (drift_x, its
    drift on the raw state X, among them), the control rows lx, lxhat and f
    (and lhat = lx + lxhat), and xhat, the (2N+1, 2) half-grid path of the
    filtered augmented state, the conditional mean of the closed loop.
    u2hat = lhat . xhat is the leader's filtered control on the same grid,
    and follower_filter the follower's filtered pair under it.
    offset_gain is solved on its first read, which only the adjoints make.
    """

    model: LQModel
    P: FollowerRiccati
    blocks: LeaderBlocks
    leader: LeaderRiccati
    sigmas: Sigmas
    u2hat: np.ndarray
    closed_loop: ClosedLoopSystem
    follower_filter: FilterPath

    @cached_property
    def offset_gain(self) -> np.ndarray:
        """lambda of simulate.backfill_theta: theta = theta_hat + lambda . (X - Xhat)."""
        return backfill_theta(self.model, self.P, self.closed_loop.drift_x, self.closed_loop.lx)


def solve_equilibrium(model: LQModel, *, det_tol: float = DET_TOL,
                      blow_up_factor: float = BLOW_UP_FACTOR) -> EquilibriumSolution:
    """Run the full deterministic pipeline for a validated model, each part once."""
    validate_model(model)
    P = solve_follower_P(model, blow_up_factor=blow_up_factor)
    blocks = assemble_leader_blocks(model, P)
    leader = solve_leader_riccati(model, blocks, det_tol=det_tol, blow_up_factor=blow_up_factor)
    sigmas = compute_sigmas(blocks, leader)
    lx, lxhat, f = build_gains(P, blocks, leader, sigmas)
    fx, fxh, gx, gxh = closed_loop_matrices(blocks, leader, sigmas)
    closed_loop = ClosedLoopSystem(grid=model.grid, drift_x=fx, drift_xhat=fxh, diff_x=gx, diff_xhat=gxh,
                                   lx=lx, lxhat=lxhat, f=f, xhat=solve_leader_xhat(model, fx + fxh))
    u2hat = np.einsum("ji,ji->j", closed_loop.lhat, closed_loop.xhat)
    return EquilibriumSolution(model=model, P=P, blocks=blocks, leader=leader, sigmas=sigmas,
                               u2hat=u2hat, closed_loop=closed_loop,
                               follower_filter=solve_follower_filter(model, P, u2hat))


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


def reconstruct_adjoints(eq: EquilibriumSolution, ens: TrajectoryEnsemble) -> AdjointReconstruction:
    """The adjoints on a closed-loop ensemble, each affine in X = (x, q) per node and path.

    y = p1 X + p2 Xhat and z = s2 X + s3 Xhat.  With w = P e1 + lambda
    (eq.offset_gain), p = w . X + theta_hat - lambda . Xhat is P x plus the
    adapted offset, and k = w . (gx X + gxh Xhat) is P (C x + D1 u1 + D2 u2)
    plus the offset's diffusion beta.
    """
    x, q, cl = ens.x, ens.q, eq.closed_loop
    xh = cl.xhat[::2, :, None]
    lam = eq.offset_gain[::2, None, :]  # one-row gains, (N+1, 1, 2)
    w = lam + eq.P.p[::2, None, None] * np.array([1.0, 0.0])

    def affine(gain: np.ndarray, shift: np.ndarray, shared=0.0) -> np.ndarray:
        """gain X + shift Xhat + shared, one node row at a time, for (N+1, r, 2) gain and shift, as (r, N+1, m)."""
        shared = (shift @ xh)[..., 0] + shared
        out = np.empty((gain.shape[1],) + x.shape)
        for i, rows in enumerate(out):
            for k, ((g0, g1), c) in enumerate(zip(gain[:, i].tolist(), shared[:, i].tolist())):
                rows[k] = x[k] * g0 + q[k] * g1 + c
        return out

    (p,), (k,) = (affine(w, -lam, eq.follower_filter.theta_hat[::2, None]),
                  affine(w @ cl.diff_x[::2], w @ cl.diff_xhat[::2]))
    return AdjointReconstruction(p=p, k=k, y=affine(eq.leader.p1[::2], eq.leader.p2[::2]),
                                 z=affine(eq.sigmas.s2[::2], eq.sigmas.s3[::2]))


@dataclass(frozen=True)
class Chunk:
    """One closed-loop ensemble of a streamed pass; recon, the adjoints, is
    built on its first read, at most once and only when a check reads it."""

    eq: EquilibriumSolution
    ens: TrajectoryEnsemble

    @cached_property
    def recon(self) -> AdjointReconstruction:
        return reconstruct_adjoints(self.eq, self.ens)


def fold_chunks(eq: EquilibriumSolution, seed: int, paths: int, checks: list) -> list:
    """Feed closed-loop paths 0 .. paths-1 to every check that has add, chunk by chunk.

    Each chunk is released before the next one is simulated, so memory is
    set by the chunk size, not by the path count.  Returns checks.
    """
    folds = [check for check in checks if hasattr(check, "add")]
    for ens in closed_loop_chunks(eq.closed_loop, seed, paths):
        chunk = Chunk(eq, ens)
        for check in folds:
            check.add(chunk)
        del ens, chunk  # else they stay alive while the next chunk is simulated
    return checks


def _peak(running: float, values: np.ndarray) -> float:
    """The running maximum of |values|, max(running, max, -min) with no |values| array; a NaN propagates."""
    return abs(float(np.maximum(np.maximum(running, values.max()), -values.min())))  # abs: all zeros give -0.0


@dataclass
class Check:
    """Base of the checks that read the solved equilibrium; rows(tol) forms a family of report rows."""

    eq: EquilibriumSolution


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


@dataclass
class FollowerStationarity(Check):
    """follower_stationarity: the follower's first-order condition along the equilibrium.

    r(t) = R1 u1 + B1 E[p | obs] + D1 E[k | obs].  The conditional means are
    plain ensemble means because the observation is uninformative about the
    state noise; they are folded into per-node moments chunk by chunk, so the
    residual covers every path folded so far.
    """

    moments: NodeMoments = field(default_factory=NodeMoments)
    control: np.ndarray | float = 0.0  # R1 u1, shared by every path

    @property
    def residual(self) -> np.ndarray:
        return self.control + self.moments.mean

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.control) + np.abs(self.moments.mean)) + 1e-300)

    def add(self, chunk: Chunk) -> None:
        follower_stationarity_residual(self.eq, chunk.ens, chunk.recon, self)

    def rows(self, tol) -> list[CheckRow]:
        dt = self.eq.model.grid.dt
        bound = tol.stderr_mult * float(np.max(self.moments.stderr)) + tol.dt_coeff * dt * self.scale
        return [check_row("follower_stationarity", "statistical", np.max(np.abs(self.residual)), bound,
                          f"{tol.stderr_mult:g} stderr + O(dt) allowance")]


def follower_stationarity_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                                   recon: AdjointReconstruction,
                                   check: FollowerStationarity | None = None) -> FollowerStationarity:
    """Fold this chunk's B1 p + D1 k into check (a fresh one by default) and return it."""
    model = eq.model
    check = check or FollowerStationarity(eq)
    check.control = model.nodes("R1") * ens.u1
    check.moments.add(model.nodes("B1")[:, None] * recon.p + model.nodes("D1")[:, None] * recon.k)
    return check


def _filtered_adjoint(eq: EquilibriumSolution) -> np.ndarray:
    """(p1 + p2) xhat at the nodes: the filtered leader adjoint pair.

    Its first component is the filtered phi of the leader's condition, its
    second the follower's filtered offset theta_hat.
    """
    return np.einsum("kij,kj->ki", eq.leader.p1[::2] + eq.leader.p2[::2], eq.closed_loop.xhat[::2])


def gain_consistency_residual(eq: EquilibriumSolution) -> tuple[np.ndarray, float]:
    """Follower control in gain form against the filtered-feedback substitution.

    u1 = f . xhat must equal the follower's control law with the offset and
    the filtered leader control read from the leader's solution: an
    algebraic identity, zero to rounding.  Returns the per-node residual and
    its scale, max |u1| + 1.
    """
    xh = eq.closed_loop.xhat[::2]
    u1_gain = np.einsum("ki,ki->k", eq.closed_loop.f[::2], xh)
    u1_sub = eq.P.control(xh[:, 0], _filtered_adjoint(eq)[:, 1], eq.u2hat[::2])
    return u1_gain - u1_sub, float(np.max(np.abs(u1_gain))) + 1.0


@dataclass
class LeaderStationarity(Check):
    """leader_stationarity: the leader's first-order condition along the equilibrium, an
    algebraic identity.

    algebraic_max: max over paths and nodes of the residual with the
    filtered quantities read from the reconstructions (zero up to rounding);
    its scale adds the largest |R2 u2| and |c_phi phi|.  Each is a running
    maximum over the chunks folded so far.
    """

    algebraic_max: float = 0.0
    control_max: float = 0.0
    adjoint_max: float = 0.0

    @property
    def scale(self) -> float:
        return self.control_max + self.adjoint_max + 1e-300

    def add(self, chunk: Chunk) -> None:
        leader_stationarity_residual(self.eq, chunk.ens, chunk.recon, self)

    def rows(self, tol) -> list[CheckRow]:
        return [check_row("leader_stationarity", "algebraic", self.algebraic_max, tol.algebraic_rel * self.scale)]


def leader_stationarity_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble,
                                 recon: AdjointReconstruction,
                                 check: LeaderStationarity | None = None) -> LeaderStationarity:
    """Fold this chunk's three maxima into check (a fresh one by default) and return it."""
    blocks = eq.blocks
    xh = eq.closed_loop.xhat[::2]
    c_phi = blocks.d2[::2, 0]
    c_delta = blocks.d4[::2, 0]
    c_phih = blocks.d1[::2, 0]
    c_deltah = blocks.d3[::2, 0]
    c_qh = blocks.d5[::2, 1]
    # The filtered terms, shared by every path: phi_hat, delta_hat = (s1 xhat)[0] and q_hat.
    delta_hat = (eq.sigmas.s1[::2] @ xh[:, :, None])[:, 0, 0]
    shared = c_phih * _filtered_adjoint(eq)[:, 0] + c_deltah * delta_hat + c_qh * xh[:, 1]

    # phi = y[0], delta = z[0]; the residual (R2 u2 + c_phi phi) + c_delta delta + shared, node by node.
    check = check or LeaderStationarity(eq)
    nodes = zip(eq.model.nodes("R2"), c_phi, c_delta, shared, ens.u2, recon.y[0], recon.z[0])
    for r2, cp, cd, c, u2, phi, delta in nodes:
        control, adjoint = r2 * u2, cp * phi
        check.control_max = _peak(check.control_max, control)
        check.adjoint_max = _peak(check.adjoint_max, adjoint)
        check.algebraic_max = _peak(check.algebraic_max, control + adjoint + cd * delta + c)
    return check


@dataclass(frozen=True)
class DriftResiduals:
    """Residual coefficient grids of the two drift-matching identities.

    Interior nodes only (time derivatives by central differences).  Of the
    follower identity only the state coefficient is kept: it carries the
    O(dt^2) differencing signal, and the coefficients of the estimate, the
    controls and the offset cancel algebraically.  The leader identity is
    grouped by the raw augmented state and its estimate; both vanish at
    O(dt^2) when the two backward equations hold.  As a check (no add) they
    give drift_residual_follower and drift_residual_leader.
    """

    follower_x: np.ndarray
    leader_x: np.ndarray
    leader_xhat: np.ndarray
    dt: float

    @property
    def follower_max(self) -> float:
        return float(np.max(np.abs(self.follower_x)))

    @property
    def leader_max(self) -> float:
        return float(max(np.max(np.abs(self.leader_x)), np.max(np.abs(self.leader_xhat))))

    def rows(self, tol) -> list[CheckRow]:
        bound = tol.drift_coeff * self.dt * self.dt
        return [check_row("drift_residual_follower", "order", self.follower_max, bound),
                check_row("drift_residual_leader", "order", self.leader_max, bound)]


def drift_residuals(eq: EquilibriumSolution) -> DriftResiduals:
    model = eq.model
    n = model.grid.steps
    dt = model.grid.dt
    blocks = eq.blocks

    A = model.nodes("A")
    C = model.nodes("C")
    Q1 = model.nodes("Q1")
    pn = eq.P.p[::2]
    offset = eq.P.offset[:, ::2]

    inner = slice(1, n)
    dp = (pn[2:] - pn[:-2]) / (2.0 * dt)
    fol_x = dp + (2.0 * A * pn + C * C * pn - offset[0] + Q1)[inner]

    p1n = eq.leader.p1[::2]
    p2n = eq.leader.p2[::2]
    q = slice(2, 2 * n, 2)  # the interior nodes' half-grid rows
    p1 = p1n[inner]
    p2 = p2n[inner]
    p12 = p1 + p2
    s1 = eq.sigmas.s1[q]
    s2 = eq.sigmas.s2[q]
    s3 = eq.sigmas.s3[q]
    a1 = blocks.a1[q]
    a2e = blocks.a2e[q]
    a3 = blocks.a3[q]
    dp1 = (p1n[2:] - p1n[:-2]) / (2.0 * dt)
    dp2 = (p2n[2:] - p2n[:-2]) / (2.0 * dt)

    # p1 and p2 times the closed loop's drift, read from the one place it is
    # formed; drift_x + drift_xhat is the drift that xhat steps
    cl = eq.closed_loop
    lead_x = dp1 + p1 @ cl.drift_x[q] + a1 @ p1 + a3 @ s2 + blocks.a5[q]
    lead_xh = p1 @ cl.drift_xhat[q]
    lead_xh += dp2
    lead_xh += p2 @ (cl.drift_x[q] + cl.drift_xhat[q])
    lead_xh += a1 @ p2
    lead_xh += a2e.swapaxes(-1, -2) @ p12
    lead_xh += a3 @ s3
    lead_xh += blocks.a4e[q].swapaxes(-1, -2) @ s1
    lead_xh -= blocks.e55[q]

    return DriftResiduals(follower_x=fol_x, leader_x=lead_x, leader_xhat=lead_xh, dt=dt)


@dataclass
class Bsde(Check):
    """bsde_residual: the discrete backward-step residual of the follower adjoint.

    step[k, i] = p_{k+1} - p_k + (Q1 x_k + A p_k + C k_k) dt - k_k dW_k.
    time_summed[i] is path i's sum of steps, added node by node in node order
    (numpy's sum over the time axis would round a 1-path chunk differently
    from a many-path one); rms is over paths of the sum.  It shrinks at first
    order in dt and is held to that order against the largest |p|.
    """

    sums: list = field(default_factory=list)
    p_max: float = 0.0

    @property
    def time_summed(self) -> np.ndarray:
        return np.concatenate(self.sums)

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.time_summed ** 2)))

    def add(self, chunk: Chunk) -> None:
        bsde_residual(self.eq, chunk.ens, chunk.recon, self)

    def rows(self, tol) -> list[CheckRow]:
        return [check_row("bsde_residual", "statistical", self.rms,
                          tol.dt_coeff * 10.0 * self.eq.model.grid.dt * (self.p_max + 1.0), "first-order in dt")]


def bsde_residual(eq: EquilibriumSolution, ens: TrajectoryEnsemble, recon: AdjointReconstruction,
                  check: Bsde | None = None) -> Bsde:
    """Fold this chunk's summed steps and max |p| into check (a fresh one by default) and return it."""
    model = eq.model
    dt = model.grid.dt
    A, C, Q1 = (model.nodes(name).tolist() for name in ("A", "C", "Q1"))
    p, k, x, dw = recon.p, recon.k, ens.x, ens.noise.dw
    check = check or Bsde(eq)
    check.p_max = _peak(check.p_max, p)
    steps = (p[j + 1] - p[j] + (Q1[j] * x[j] + A[j] * p[j] + C[j] * k[j]) * dt - k[j] * dw[j]
             for j in range(len(dw)))
    summed = next(steps)
    for step in steps:
        summed += step  # node order from node 0, whatever the chunk
    check.sums.append(summed)
    return check


class Identities(Check):
    """terminal_data, sigma_identity, gain_consistency and filter_route_consistency: identities
    of the solved equilibrium, exact or zero to rounding."""

    def rows(self, tol) -> list[CheckRow]:
        eq, model, s, xhat = self.eq, self.eq.model, self.eq.sigmas, self.eq.closed_loop.xhat
        term = max(float(np.max(np.abs(eq.leader.p1[-1] - eq.blocks.gbar))), float(np.max(np.abs(eq.leader.p2[-1]))),
                   abs(eq.P.p[-1] - model.G1), float(np.max(np.abs(xhat[0] - np.array([model.x0, 0.0])))))
        gap, gap_scale = gain_consistency_residual(eq)
        # The follower's filter driven by the leader's filtered feedback reproduces the first
        # component of xhat (the same ODE, both 4th-order discretizations).
        xh = xhat[::2, 0]
        route_gap = float(np.max(np.abs(eq.follower_filter.xhat[::2] - xh)))
        route_tol = max(tol.structural_rel, 1e2 * model.grid.dt ** 4) * (float(np.max(np.abs(xh))) + 1.0)
        return [check_row("terminal_data", "algebraic", term, 0.0, "stored bit-exactly"),
                check_row("sigma_identity", "algebraic", np.max(np.abs(s.s1 - (s.s2 + s.s3))),
                          tol.sigma_rel * (float(np.max(np.abs(s.s1))) + 1.0)),
                check_row("gain_consistency", "algebraic", np.max(np.abs(gap)), tol.gain_rel * gap_scale,
                          "two control representations"),
                check_row("filter_route_consistency", "algebraic", route_gap, route_tol)]


@dataclass
class AdjointMaxima(Check):
    """structural_zero and terminal_reconstruction, from maxima over paths of the adjoints:
    z's second component is a structural zero, and y(T) = gbar X(T)."""

    z: float = 0.0
    z_2: float = 0.0
    y_T: float = 0.0
    y_T_gap: float = 0.0

    def add(self, chunk: Chunk) -> None:
        recon, ens = chunk.recon, chunk.ens
        self.z = _peak(self.z, recon.z)
        self.z_2 = _peak(self.z_2, recon.z[1])
        self.y_T = _peak(self.y_T, recon.y[:, -1])
        self.y_T_gap = _peak(self.y_T_gap, recon.y[:, -1] - self.eq.blocks.gbar @ np.stack([ens.x[-1], ens.q[-1]]))

    def rows(self, tol) -> list[CheckRow]:
        return [check_row("structural_zero", "algebraic", self.z_2, tol.structural_rel * (self.z + 1.0)),
                check_row("terminal_reconstruction", "algebraic", self.y_T_gap, 1e-12 * (self.y_T + 1.0))]


@dataclass
class Tower(Check):
    """tower_property: the mean of X over paths at ten checkpoints against xhat; the gap beyond
    the stderrs is held to the first-order weak-error allowance."""

    moments: NodeMoments = field(default_factory=NodeMoments)

    @property
    def checkpoints(self) -> list[int]:
        return [int(round(f * self.eq.model.grid.steps)) for f in np.linspace(0.1, 1.0, 10)]

    def add(self, chunk: Chunk) -> None:
        checkpoints = self.checkpoints
        self.moments.add(np.stack([chunk.ens.x[checkpoints], chunk.ens.q[checkpoints]], axis=1))

    def rows(self, tol) -> list[CheckRow]:
        xh = self.eq.closed_loop.xhat[::2]
        gap = np.abs(self.moments.mean - xh[self.checkpoints]) - tol.stderr_mult * self.moments.stderr
        return [check_row("tower_property", "statistical", max(0.0, float(np.max(gap))),
                          tol.dt_coeff * self.eq.model.grid.dt * (float(np.max(np.abs(xh))) + 1.0),
                          f"gap beyond {tol.stderr_mult:g} stderr vs O(dt) weak-error allowance")]


@dataclass
class Density(Check):
    """density_martingale: the mean of the observation density's terminal value against its
    exact mean 1; a model with h = 0 has no such row."""

    z_T: list = field(default_factory=list)

    def add(self, chunk: Chunk) -> None:
        if not np.all(self.eq.model.nodes("h") == 0.0):
            self.z_T.append(density_process(self.eq.model, chunk.ens.noise))

    def rows(self, tol) -> list[CheckRow]:
        if not self.z_T:
            return []
        moments = NodeMoments().add(np.concatenate(self.z_T))
        return [check_row("density_martingale", "statistical", abs(float(moments.mean) - 1.0),
                          tol.stderr_mult * float(moments.stderr) + 1e-12)]
