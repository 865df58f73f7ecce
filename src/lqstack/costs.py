"""Monte-Carlo cost estimation and perturbation-based optimality verification.

Costs are trapezoidal quadratures of the quadratic running terms plus the
terminal term, averaged over paths.  Optimality checks perturb the
equilibrium control processes (not the feedback laws): the baseline controls
are frozen as realized processes, a deterministic direction scaled by
epsilon is added, and the state follows under the baseline noise (common
random numbers), so cost differences carry very low variance.  For leader
deviations the follower re-optimizes first: the filtered pair is re-solved
under the shifted filtered control and the follower's response drives the
state, which is the leader-follower discipline.

No epsilon is simulated.  The Euler map is affine in a deterministic control
shift and the follower's response is affine in the filtered leader shift, so
along every path J(eps) - J(0) = eps * a + eps^2 * b exactly.  One
sensitivity simulation per direction, the unit shift differenced against the
baseline, gives each path's a and b; every eps, the slope E[a] and the
curvature E[b] then follow in closed form (pathwise sensitivities, as in
Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 7).  The
constant-feedback grid search is likewise a per-path quadratic form in
(alpha, beta) assembled from three simulations.

Means and variances over paths are elementwise products reduced with
sum/mean, never BLAS products over the path axis, so results do not depend
on the thread count.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution
from .filtering import solve_follower_filter
from .model import LQModel
from .riccati import DeterministicPath
from .simulate import TrajectoryEnsemble, generate_noise, simulate_closed_loop, simulate_open_loop

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
    m = len(samples)
    if m < 2:
        return 0.0
    return float(samples.std(ddof=1) / np.sqrt(m))


def _cost_form(model: LQModel, which: str, x: np.ndarray, u: np.ndarray,
               y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-path symmetric bilinear form of a player's cost: J = form(x, u, x, u).

    States are (m, N+1); controls are (N+1,) shared or (m, N+1) per path.
    In-place updates keep the temporaries to one (m, N+1) array.
    """
    state_weight, control_weight, terminal = _WEIGHTS[which]
    q = model.nodes(state_weight)
    r = model.nodes(control_weight)
    integrand = q * x
    integrand *= y
    integrand += r * w * u
    integrand *= 0.5
    running = np.trapezoid(integrand, dx=model.grid.dt, axis=1)
    return running + 0.5 * getattr(model, terminal) * x[:, -1] * y[:, -1]


def pathwise_J1(model: LQModel, ens: TrajectoryEnsemble) -> np.ndarray:
    return _cost_form(model, "J1", ens.x, ens.u1, ens.x, ens.u1)


def pathwise_J2(model: LQModel, ens: TrajectoryEnsemble) -> np.ndarray:
    return _cost_form(model, "J2", ens.x, ens.u2, ens.x, ens.u2)


def estimate_J1(model: LQModel, ens: TrajectoryEnsemble) -> CostEstimate:
    """Follower cost: trapezoid of (Q1 x^2 + R1 u1^2)/2 plus G1 x(T)^2 / 2.

    Taken directly under the simulation measure; with a deterministic
    observation drift the density factor does not change the joint law of
    the state with its own noise, so no reweighting is needed.
    """
    j = pathwise_J1(model, ens)
    return CostEstimate(mean=float(j.mean()), stderr=_stderr(j), paths=len(j), which="J1")


def estimate_J2(model: LQModel, ens: TrajectoryEnsemble) -> CostEstimate:
    """Leader cost, same quadrature with (Q2, R2, G2, u2)."""
    j = pathwise_J2(model, ens)
    return CostEstimate(mean=float(j.mean()), stderr=_stderr(j), paths=len(j), which="J2")


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

    def min_delta_margin(self, stderr_mult: float = 3.0) -> float:
        """min over eps of delta_mean + stderr_mult * stderr (>= 0 means pass)."""
        return float(np.min(self.delta_mean + stderr_mult * self.delta_stderr))


@dataclass(frozen=True)
class PerturbationReport:
    """All directions of one optimality check.

    proven_scope is False for leader checks with control-dependent diffusion,
    where no verification theorem backs the test; such runs are labelled
    outside proven scope and a failure there contradicts nothing.
    """

    which: str
    curves: list[PerturbationCurve]
    proven_scope: bool


def _symmetrize_eps(eps_list) -> np.ndarray:
    magnitudes = {abs(float(e)) for e in eps_list} - {0.0}
    if not magnitudes:
        raise ValueError("epsilon list must contain nonzero values")
    return np.array(sorted({s * m for m in magnitudes for s in (-1.0, 1.0)}))


def _curve(name: str, eps: np.ndarray, base_cost: np.ndarray,
           a: np.ndarray, b: np.ndarray) -> PerturbationCurve:
    deltas = [e * a + (e * e) * b for e in eps]
    delta_mean = np.array([d.mean() for d in deltas])
    slope = float(a.mean())
    curvature = float(b.mean())
    fit_res = float(np.max(np.abs(delta_mean - (slope * eps + curvature * eps * eps))))
    return PerturbationCurve(
        name=name, eps=eps, delta_mean=delta_mean,
        delta_stderr=np.array([_stderr(d) for d in deltas]),
        baseline_mean=float(base_cost.mean()), baseline_stderr=_stderr(base_cost),
        slope=slope, slope_stderr=_stderr(a), curvature=curvature, fit_max_residual=fit_res,
    )


def _shifted(path: DeterministicPath, v: np.ndarray) -> DeterministicPath:
    """path + v, with v read linearly between nodes."""
    return DeterministicPath(nodes=path.nodes + v,
                             mids=path.half_values()[1::2] + 0.5 * (v[:-1] + v[1:]))


def _sweep(eq: EquilibriumSolution, which: str, directions: dict[str, np.ndarray], eps_list,
           baselines: Iterable[TrajectoryEnsemble]) -> PerturbationReport:
    """The optimality verifier, streaming over chunks of baseline paths.

    which="J1" shifts the follower's deterministic control by each direction
    with the leader process frozen; which="J2" shifts the frozen leader
    process and lets the follower respond to the shifted filtered control.
    Per chunk the baseline and one unit-shift run per direction are
    simulated; only each path's cost and its a, b coefficients are kept, so
    a chunked run matches the run on all paths at once.
    """
    model = eq.model
    eps = _symmetrize_eps(eps_list)
    dirs = {name: np.asarray(v, dtype=float) for name, v in directions.items()}
    if which == "J2":
        u2hat = eq.u2hat_path()
        u1_lead = follower_response(eq, u2hat)
        responses = {name: follower_response(eq, _shifted(u2hat, v)) for name, v in dirs.items()}

    base_parts: list[np.ndarray] = []
    ab_parts: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {name: [] for name in dirs}
    for ens in baselines:
        u1 = np.asarray(ens.u1, dtype=float) if which == "J1" else u1_lead
        base = simulate_open_loop(model, u1, ens.u2, ens.noise)
        u = base.u1 if which == "J1" else base.u2
        base_parts.append(_cost_form(model, which, base.x, u, base.x, u))
        for name, v in dirs.items():
            # Only the state of the run is kept, and it is overwritten by the
            # difference: peak memory stays at the baseline plus one run.
            dx = (simulate_open_loop(model, u1 + v, ens.u2, ens.noise) if which == "J1" else
                  simulate_open_loop(model, responses[name], ens.u2 + v, ens.noise)).x
            dx -= base.x
            ab_parts[name].append((2.0 * _cost_form(model, which, base.x, u, dx, v),
                                   _cost_form(model, which, dx, v, dx, v)))
            del dx

    base_cost = np.concatenate(base_parts)
    curves = [_curve(name, eps, base_cost, np.concatenate([p[0] for p in parts]),
                     np.concatenate([p[1] for p in parts]))
              for name, parts in ab_parts.items()]
    proven = which == "J1" or bool(np.all(model.nodes("D1") == 0.0) and np.all(model.nodes("D2") == 0.0))
    return PerturbationReport(which=which, curves=curves, proven_scope=proven)


def verify_follower_optimality(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                               directions: dict[str, np.ndarray], eps_list) -> PerturbationReport:
    """Check that no tested follower deviation improves the follower's cost.

    The leader's control is frozen pathwise as the realized equilibrium
    process; the follower's deterministic equilibrium control is shifted by
    eps times each direction and the state follows under the baseline noise.
    A zero direction yields exactly zero differences.
    """
    if np.asarray(baseline.u1).ndim != 1:
        raise ValueError("baseline follower control must be deterministic")
    return _sweep(eq, "J1", directions, eps_list, [baseline])


def follower_response(eq: EquilibriumSolution, u2hat: DeterministicPath) -> np.ndarray:
    """The follower's optimal deterministic control for a filtered leader control.

    Re-solves the filtering pair under u2hat and evaluates the follower's
    control law at the nodes.
    """
    fp = solve_follower_filter(eq.model, eq.P, u2hat)
    return eq.blocks.follower.control(fp.xhat.nodes, fp.theta_hat.nodes, u2hat.nodes)


def verify_leader_optimality(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                             directions: dict[str, np.ndarray], eps_list) -> PerturbationReport:
    """Check that no tested leader deviation improves the leader's cost.

    The filtered leader control is shifted deterministically, the follower
    re-optimizes (filter re-solve plus response formula), and the state
    follows the pathwise-frozen leader process plus the shift under the
    baseline noise.
    """
    return _sweep(eq, "J2", directions, eps_list, [baseline])


def verify_optimality_chunked(eq: EquilibriumSolution, which: str,
                              directions: dict[str, np.ndarray], eps_list,
                              seed: int, m: int, chunk: int = 10000) -> PerturbationReport:
    """Memory-bounded variant of the optimality verifiers.

    Streams paths in chunks: per chunk the closed loop is simulated to freeze
    the leader process and the sensitivity runs follow before the chunk is
    discarded.  Per-path determinism of the noise streams makes the result
    identical to the monolithic run with m paths.
    """
    system = eq.closed_loop()
    chunks = (simulate_closed_loop(system, generate_noise(seed, min(chunk, m - first), eq.model.grid,
                                                          first_path=first))
              for first in range(0, m, chunk))
    return _sweep(eq, which, directions, eps_list, chunks)


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
    equilibrium_stderr: float

    def dominance_margin(self, stderr_mult: float = 2.0) -> float:
        """best grid cost + allowance - equilibrium cost (>= 0 means pass)."""
        return self.best_mean + stderr_mult * self.best_stderr - self.equilibrium_mean


# Feature k of the grid cost pairs basis responses (i, j) with weight c; it
# multiplies the monomial [1, alpha, beta, alpha^2, alpha*beta, beta^2][k].
_GRID_FEATURES = ((0, 0, 1.0), (0, 1, 2.0), (0, 2, 2.0), (1, 1, 1.0), (1, 2, 2.0), (2, 2, 1.0))


def gain_grid_search(eq: EquilibriumSolution, baseline: TrajectoryEnsemble,
                     alphas, betas) -> GridSearchResult:
    """Constant-feedback grid for the follower, every point in closed form.

    Under u1 = alpha * xhat + beta the state is x0 + alpha * e1 + beta * e2,
    with x0 simulated at u1 = 0 and e1, e2 the responses to u1 = xhat and
    u1 = 1, so each path's cost is a quadratic form in (1, alpha, beta) with
    six features.  Grid means come from the feature means and grid stderrs
    from the covariance of the features.  The equilibrium cost is the
    baseline ensemble's own.
    """
    model = eq.model
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    u2_frozen = baseline.u2
    noise = baseline.noise
    xhat = eq.xhat_scalar_path().nodes
    base_cost = pathwise_J1(model, baseline)

    zero = np.zeros_like(xhat)
    x0 = simulate_open_loop(model, zero, u2_frozen, noise).x
    basis = [(x0, zero)] + [(simulate_open_loop(model, u1, u2_frozen, noise).x - x0, u1)
                            for u1 in (xhat, np.ones_like(xhat))]
    features = np.stack([c * _cost_form(model, "J1", *basis[i], *basis[j])
                         for i, j, c in _GRID_FEATURES])
    m = features.shape[1]
    feature_mean = features.mean(axis=1)

    a, b = np.meshgrid(alphas, betas, indexing="ij")
    monomials = np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)
    mean = (monomials * feature_mean).sum(axis=-1)
    if m < 2:
        stderr = np.zeros_like(mean)
    else:
        centered = features - feature_mean[:, None]
        cov = (centered[:, None, :] * centered[None, :, :]).sum(axis=-1) / (m - 1)
        var = (monomials[..., :, None] * cov * monomials[..., None, :]).sum(axis=(-2, -1))
        stderr = np.sqrt(np.maximum(var, 0.0)) / np.sqrt(m)

    bi, bj = np.unravel_index(int(np.argmin(mean)), mean.shape)
    return GridSearchResult(
        alphas=alphas, betas=betas, cost_mean=mean, cost_stderr=stderr,
        best_alpha=float(alphas[bi]), best_beta=float(betas[bj]),
        best_mean=float(mean[bi, bj]), best_stderr=float(stderr[bi, bj]),
        equilibrium_mean=float(base_cost.mean()), equilibrium_stderr=_stderr(base_cost),
    )
