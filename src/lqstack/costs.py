"""Monte-Carlo cost estimation and perturbation-based optimality verification.

Costs are trapezoidal quadratures of the quadratic running terms plus the
terminal term, averaged over paths; every time sum of per-path data is a fold
in node order over the node-major ensemble (see simulate), so a path's cost
does not depend on the paths simulated beside it.  Optimality checks perturb the
equilibrium control processes (not the feedback laws): the baseline controls
are frozen as realized processes, a deterministic direction scaled by
epsilon is added, and the state follows under the baseline noise (common
random numbers), so cost differences carry very low variance.  For leader
deviations the follower re-optimizes first: the filtered pair is re-solved
under the shifted filtered control and the follower's response drives the
state, which is the leader-follower discipline.

No epsilon is simulated.  The Euler map is affine in a deterministic control
shift and the follower's response is affine in the filtered leader shift, so
along every path J(eps) - J(0) = eps * a + eps^2 * b exactly.  The state's
response to a unit shift is a zero-start recursion that needs no baseline
run (simulate.sensitivity_nodes); all directions of a check step together,
and the trapezoid sums of each direction's a and b fold in node by node, in
node order, so no sensitivity array is stored.  Every eps, the slope E[a] and the
curvature E[b] then follow in closed form (pathwise sensitivities, as in
Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 7).  The
constant-feedback grid search is likewise a per-path quadratic form in
(alpha, beta), assembled from three responses in one pass of the same kernel.

Means and variances over paths are elementwise products reduced with
sum/mean, never BLAS products over the path axis, so results do not depend
on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import Check, Chunk, EquilibriumSolution, NodeMoments, fold_chunks
from .filtering import solve_follower_filter
from .model import LQModel, lift
from .reporting import CheckRow, check_row
from .simulate import TrajectoryEnsemble, sensitivity_nodes
# Unused here; perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .simulate import simulate_open_loop  # noqa: F401

# Player -> (state weight, control weight, terminal weight) of its cost.
_WEIGHTS = {"J1": ("Q1", "R1", "G1"), "J2": ("Q2", "R2", "G2")}


@dataclass(frozen=True)
class CostEstimate:
    """Monte-Carlo estimate of one player's cost functional."""

    mean: float
    stderr: float
    paths: int
    which: str


def _stderr(samples: np.ndarray) -> float:
    return float(NodeMoments().add(samples).stderr)


def _pair_forms(model: LQModel, which: str, m: int, states, controls, pairs) -> np.ndarray:
    """Per path, form(z_i, c_i, z_j, c_j) of a player's cost for each pair (i, j).

    states yields the (m,) states z_i at nodes 0 .. N in node order; the
    controls c_i are shared (N+1,) or per path (N+1, m), node k being c_i[k].
    The trapezoid sums of Q z_i z_j, and of R c_i c_j where a control is per
    path, fold in node order, so a path's form is the same whatever paths
    are folded beside it; a pair of shared controls is one sum, the same for
    every path.
    """
    state_weight, control_weight, terminal = _WEIGHTS[which]
    grid = model.grid
    w = np.full(grid.steps + 1, grid.dt)  # trapezoid weights
    w[[0, -1]] *= 0.5
    wq = (w * model.nodes(state_weight)).tolist()
    wr = w * model.nodes(control_weight)
    shared = [controls[i].ndim == controls[j].ndim == 1 for i, j in pairs]
    control = [(wr * controls[i] * controls[j]).sum() if s else 0.0 for s, (i, j) in zip(shared, pairs)]
    folded = [(p, i, j) for p, (i, j) in enumerate(pairs) if not shared[p]]
    running = np.zeros((len(pairs), m))
    products = np.empty_like(running)
    for k, zs in enumerate(states):
        for p, (i, j) in enumerate(pairs):
            np.multiply(zs[i], zs[j], out=products[p])
        products *= wq[k]
        running += products
        for p, i, j in folded:
            control[p] = control[p] + wr[k] * controls[i][k] * controls[j][k]
    g = 0.5 * getattr(model, terminal)
    return np.array([0.5 * (running[p] + control[p]) + g * zs[i] * zs[j] for p, (i, j) in enumerate(pairs)])


def pathwise_J1(model: LQModel, ens: TrajectoryEnsemble) -> np.ndarray:
    return _pair_forms(model, "J1", ens.m, ([xk] for xk in ens.x), [ens.u1], [(0, 0)])[0]


def pathwise_J2(model: LQModel, ens: TrajectoryEnsemble) -> np.ndarray:
    return _pair_forms(model, "J2", ens.m, ([xk] for xk in ens.x), [ens.u2], [(0, 0)])[0]


def cost_estimate(which: str, samples: np.ndarray) -> CostEstimate:
    """Mean and stderr of one player's per-path costs."""
    return CostEstimate(mean=float(samples.mean()), stderr=_stderr(samples), paths=len(samples), which=which)


def estimate_J1(model: LQModel, ens: TrajectoryEnsemble) -> CostEstimate:
    """Follower cost: trapezoid of (Q1 x^2 + R1 u1^2)/2 plus G1 x(T)^2 / 2.

    Taken directly under the simulation measure; with a deterministic
    observation drift the density factor does not change the joint law of
    the state with its own noise, so no reweighting is needed.
    """
    return cost_estimate("J1", pathwise_J1(model, ens))


def estimate_J2(model: LQModel, ens: TrajectoryEnsemble) -> CostEstimate:
    """Leader cost, same quadrature with (Q2, R2, G2, u2)."""
    return cost_estimate("J2", pathwise_J2(model, ens))


@dataclass(frozen=True)
class PerturbationCurve:
    """Cost differences along one deterministic perturbation direction.

    delta_mean[i] estimates J(eps[i]) - J(0) with common random numbers.
    Pathwise the difference is eps * a + eps^2 * b: slope is the mean of a
    (the directional derivative at eps = 0), curvature the mean of b, and
    fit_max_residual the largest gap between delta_mean and
    slope * eps + curvature * eps^2, which is rounding only.
    """

    name: str
    eps: np.ndarray
    delta_mean: np.ndarray
    delta_stderr: np.ndarray
    baseline_mean: float
    baseline_stderr: float
    slope: float
    slope_stderr: float
    curvature: float
    fit_max_residual: float

    def min_delta_margin(self, stderr_mult: float) -> float:
        """min over eps of delta_mean + stderr_mult * stderr (>= 0 means pass)."""
        return float(np.min(self.delta_mean + stderr_mult * self.delta_stderr))


def _symmetrize_eps(eps_list) -> np.ndarray:
    magnitudes = {abs(float(e)) for e in eps_list} - {0.0}
    if not magnitudes:
        raise ValueError("epsilon list must contain nonzero values")
    return np.array(sorted({s * m for m in magnitudes for s in (-1.0, 1.0)}))


def _curve(name: str, eps: np.ndarray, base_cost: np.ndarray,
           a: np.ndarray, b: np.ndarray) -> PerturbationCurve:
    moments = [NodeMoments().add(e * a + (e * e) * b) for e in eps]
    delta_mean = np.array([d.mean for d in moments])
    slope = float(a.mean())
    curvature = float(b.mean())
    fit_res = float(np.max(np.abs(delta_mean - (slope * eps + curvature * eps * eps))))
    return PerturbationCurve(
        name=name, eps=eps, delta_mean=delta_mean,
        delta_stderr=np.array([d.stderr for d in moments]),
        baseline_mean=float(base_cost.mean()), baseline_stderr=_stderr(base_cost),
        slope=slope, slope_stderr=_stderr(a), curvature=curvature, fit_max_residual=fit_res,
    )


class OptimalitySweep:
    """The optimality verifier, fed baseline chunks in path order (fold_chunks).

    which="J1" is the check of verify_follower_optimality, "J2" that of
    verify_leader_optimality; the follower's filter re-solves run once, here.
    add runs all directions of a chunk's ensemble through one pass of the
    sensitivity kernel and keeps only each path's cost and its a, b, so
    chunks fed in path order report exactly what one ensemble of all their
    paths reports.  curves holds one PerturbationCurve per direction over the
    paths added so far, and rows(tol) gives verify's optimality, slope and
    curvature rows of each direction.  proven_scope is False for leader
    checks with control-dependent diffusion, where no verification theorem
    backs the test; such runs are labelled outside proven scope and a
    failure there contradicts nothing.

    J1 shifts the follower's control by each direction; the baseline is the
    ensemble itself.  J2 shifts the leader's control by each direction and
    the follower's by its response's change; the baseline is the ensemble
    moved by one more response, to the gap between the follower's response
    to the unshifted filtered control, read from eq.follower_filter, and the
    ensemble's follower control f . xhat (about 5e-11 on the benchmark model).
    """

    def __init__(self, eq: EquilibriumSolution, which: str, directions: dict[str, np.ndarray], eps_list):
        self.eq, self.which, self.eps = eq, which, _symmetrize_eps(eps_list)
        self.names, self.v = list(directions), np.array(list(directions.values()), dtype=float)
        k = len(self.v)
        if which == "J2":
            fp, u2hat = eq.follower_filter, eq.u2hat
            self.u1_lead = eq.P.control(fp.xhat[::2], fp.theta_hat[::2], u2hat[::2])
            n = eq.model.grid.steps
            self.du1 = np.array([follower_response(eq, u2hat + lift(v, n)) - self.u1_lead for v in self.v])
        self.pairs = [(0, 0)] + [p for i in range(1, k + 1) for p in ((0, i), (i, i))]
        nodes = eq.model.nodes
        self.proven_scope = which == "J1" or bool(np.all(nodes("D1") == 0.0) and np.all(nodes("D2") == 0.0))
        self.parts: list[np.ndarray] = []  # per chunk: base cost, then a and b of each direction

    def add(self, chunk: Chunk) -> "OptimalitySweep":
        ens = chunk.ens
        v, u1 = self.v, np.asarray(ens.u1, dtype=float)
        if self.which == "J1":
            v1, v2, controls = v, np.zeros_like(v), [u1, *v]
            states = lambda xk, dx: [xk, *dx]
        else:
            # One more response moves the baseline to the follower's response.
            v1 = np.concatenate([[self.u1_lead - u1], self.du1])
            v2 = np.concatenate([np.zeros_like(v[:1]), v])
            controls = [ens.u2, *v]
            states = lambda xk, dx: [xk + dx[0], *dx[1:]]
        nodes = zip(ens.x, sensitivity_nodes(self.eq.model, v1, v2, ens.noise))
        forms = _pair_forms(self.eq.model, self.which, ens.m, (states(xk, dx) for xk, dx in nodes), controls,
                            self.pairs)
        forms[1::2] *= 2.0  # a = 2 form(base, dx)
        self.parts.append(forms)
        return self

    @property
    def curves(self) -> list[PerturbationCurve]:
        cols = np.concatenate(self.parts, axis=1)
        return [_curve(name, self.eps, cols[0], cols[2 * i + 1], cols[2 * i + 2]) for i, name in enumerate(self.names)]

    def rows(self, tol) -> list[CheckRow]:
        player = "follower" if self.which == "J1" else "leader"
        allowance = tol.dt_coeff * self.eq.model.grid.dt
        rows = []
        for c in self.curves:
            rows += [check_row(f"{player}_optimality_{c.name}", "statistical", -c.min_delta_margin(tol.stderr_mult),
                               0.0, f"min over eps of dJ + {tol.stderr_mult:g} stderr, negated"),
                     check_row(f"{player}_slope_{c.name}", "statistical", abs(c.slope),
                               tol.stderr_mult * c.slope_stderr + allowance * (1.0 + abs(c.baseline_mean)),
                               f"{tol.stderr_mult:g} stderr + O(dt) allowance"),
                     check_row(f"{player}_curvature_{c.name}", "statistical", -c.curvature, 0.0)]
        return rows


def verify_follower_optimality(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                               directions: dict[str, np.ndarray], eps_list) -> OptimalitySweep:
    """Check that no tested follower deviation improves the follower's cost.

    The leader's control is frozen pathwise as the realized equilibrium
    process; the follower's deterministic equilibrium control is shifted by
    eps times each direction and the state follows under the baseline noise.
    A zero direction yields exactly zero differences.
    """
    if np.asarray(baseline.u1).ndim != 1:
        raise ValueError("baseline follower control must be deterministic")
    return OptimalitySweep(eq, "J1", directions, eps_list).add(Chunk(eq, baseline))


def follower_response(eq: EquilibriumSolution, u2hat) -> np.ndarray:
    """The follower's optimal deterministic control for a filtered leader control.

    u2hat is a (2N+1,) half-grid path or (N+1,) node samples, read linearly
    between nodes.  Re-solves the filtering pair under u2hat and evaluates
    the follower's control law at the nodes.
    """
    u2hat = lift(u2hat, eq.model.grid.steps)
    fp = solve_follower_filter(eq.model, eq.P, u2hat)
    return eq.P.control(fp.xhat[::2], fp.theta_hat[::2], u2hat[::2])


def verify_leader_optimality(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                             directions: dict[str, np.ndarray], eps_list) -> OptimalitySweep:
    """Check that no tested leader deviation improves the leader's cost.

    The filtered leader control is shifted deterministically, the follower
    re-optimizes (filter re-solve plus response formula), and the state
    follows the pathwise-frozen leader process plus the shift under the
    baseline noise.
    """
    return OptimalitySweep(eq, "J2", directions, eps_list).add(Chunk(eq, baseline))


def verify_optimality_chunked(eq: EquilibriumSolution, which: str,
                              directions: dict[str, np.ndarray], eps_list,
                              seed: int, m: int) -> OptimalitySweep:
    """The optimality verifier on m fresh closed-loop paths, fed chunk by chunk by fold_chunks.

    Per-path noise streams make the result that of one ensemble of all m paths.
    """
    sweep, = fold_chunks(eq, seed, m, [OptimalitySweep(eq, which, directions, eps_list)])
    return sweep


@dataclass(frozen=True)
class GridSearchResult:
    """Brute-force constant-feedback sweep for the follower.

    Controls u1(t) = alpha * xhat(t) + beta over a rectangular (alpha, beta)
    grid, leader process frozen; equilibrium cost should not exceed the grid
    minimum beyond Monte-Carlo resolution.
    """

    alphas: np.ndarray
    betas: np.ndarray
    cost_mean: np.ndarray
    cost_stderr: np.ndarray
    best_alpha: float
    best_beta: float
    best_mean: float
    best_stderr: float
    equilibrium_mean: float

    def dominance_margin(self, stderr_mult: float) -> float:
        """best grid cost + allowance - equilibrium cost (>= 0 means pass)."""
        return self.best_mean + stderr_mult * self.best_stderr - self.equilibrium_mean


# Feature k of the grid cost pairs basis responses (i, j) with weight c; it
# multiplies the monomial [1, alpha, beta, alpha^2, alpha*beta, beta^2][k].
# The last pair, the baseline with itself, is the baseline's own cost.
_GRID_FEATURES = ((0, 0, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 1, 1.0), (1, 2, 2.0), (2, 2, 1.0), (3, 3, 1.0))


def grid_features(eq: EquilibriumSolution, baseline: TrajectoryEnsemble) -> np.ndarray:
    """Per path of a baseline ensemble: its six grid features, then its own cost.

    Under u1 = alpha * xhat + beta the state is x0 + alpha * e1 + beta * e2,
    with x0 the state at u1 = 0 and e1, e2 the responses to u1 = xhat and
    u1 = 1, so each path's cost is a quadratic form in (1, alpha, beta) with
    six features.  x0 is the baseline less its response to its own follower
    control, so one pass of the sensitivity kernel gives all three.  The
    baseline's own cost, the equilibrium cost, is a seventh form of the same
    pass, bit for bit pathwise_J1.  Grid means come from the feature means
    (grid_result), grid stderrs from the covariance of the features.
    """
    model = eq.model
    xhat = eq.closed_loop.xhat[::2, 0]
    v1 = np.array([baseline.u1, xhat, np.ones_like(xhat)])
    nodes = zip(baseline.x, sensitivity_nodes(model, v1, np.zeros_like(v1), baseline.noise))
    forms = _pair_forms(model, "J1", baseline.m, ([xk - dx[0], dx[1], dx[2], xk] for xk, dx in nodes),
                        [np.zeros_like(xhat), *v1[1:], baseline.u1], [(i, j) for i, j, _ in _GRID_FEATURES])
    return forms * np.array([c for _, _, c in _GRID_FEATURES])[:, None]


def grid_result(features: np.ndarray, alphas, betas) -> GridSearchResult:
    """The constant-feedback grid from grid_features columns, every point in closed form."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    base_cost = features[-1]
    features = features[:-1]
    m = features.shape[1]
    feature_mean = features.mean(axis=1)

    a, b = np.meshgrid(alphas, betas, indexing="ij")
    monomials = np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)
    mean = (monomials * feature_mean).sum(axis=-1)
    if m < 2:
        stderr = np.zeros_like(mean)
    else:
        centered = features - feature_mean[:, None]
        cov = np.array([[(ci * cj).sum() for cj in centered] for ci in centered]) / (m - 1)
        var = (monomials[..., :, None] * cov * monomials[..., None, :]).sum(axis=(-2, -1))
        stderr = np.sqrt(np.maximum(var, 0.0)) / np.sqrt(m)

    bi, bj = np.unravel_index(int(np.argmin(mean)), mean.shape)
    return GridSearchResult(
        alphas=alphas, betas=betas, cost_mean=mean, cost_stderr=stderr,
        best_alpha=float(alphas[bi]), best_beta=float(betas[bj]),
        best_mean=float(mean[bi, bj]), best_stderr=float(stderr[bi, bj]),
        equilibrium_mean=float(base_cost.mean()),
    )


def gain_grid_search(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                     alphas, betas) -> GridSearchResult:
    """Constant-feedback grid for the follower on every path of one baseline ensemble."""
    return grid_result(grid_features(eq, baseline), alphas, betas)


@dataclass
class GridDominance(Check):
    """grid_dominance: the equilibrium's J1 against the best point of the 21 x 21 grid
    on [-3, 3]^2, on the first PATHS paths of the chunks."""

    PATHS = 4000
    parts: list = field(default_factory=list)

    def add(self, chunk: Chunk) -> None:
        first = chunk.ens.noise.first_path
        if first < self.PATHS:
            self.parts.append(grid_features(self.eq, chunk.ens)[:, :self.PATHS - first])

    def result(self) -> GridSearchResult:
        return grid_result(np.concatenate(self.parts, axis=1), np.linspace(-3, 3, 21), np.linspace(-3, 3, 21))

    def rows(self, tol) -> list[CheckRow]:
        grid = self.result()
        return [check_row("grid_dominance", "statistical", -grid.dominance_margin(tol.grid_stderr_mult), 0.0,
                          f"best grid ({grid.best_alpha!r},{grid.best_beta!r}) J1={grid.best_mean!r}")]
