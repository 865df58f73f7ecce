"""Command-line pipeline: validate | solve | simulate | verify.

JSON problem files in, CSV artifacts out.  Exit codes: 0 ok, 1 validation
failure (validate reports solver failures this way too), 2 parse failure,
3 solver failure (Riccati blow-up, a gain inverse degenerating, a filter
solution or a simulated path going non-finite, with the failing time in the
message; nothing is written), 4 verification failure (the report is still
written).

Every output is a pure function of the problem file, the flags and the seed;
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs as costs_mod
from . import equilibrium as eq_mod
from . import reporting
from .errors import (H3Violated, LQStackError, M1NotInvertible, M2NotInvertible,
                     ModelValidationError, ParseError, SolverError)
from .filtering import solve_follower_filter
from .model import LQModel, check_hypotheses, load_model
# Unused here; perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .riccati import solve_follower_P  # noqa: F401
from .simulate import backfill_theta, closed_loop_chunks, density_process

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass(frozen=True)
class Tolerances:
    """Verification tolerances; defaults match the module contracts.

    Algebraic identities are relative bounds; statistical checks use
    stderr_mult standard errors plus dt_coeff * dt * scale for the
    first-order discretization bias of the Euler ensemble.
    """

    det_tol: float = 1e-10
    blow_up_factor: float = 1e8
    algebraic_rel: float = 1e-8
    gain_rel: float = 1e-10
    structural_rel: float = 1e-9
    sigma_rel: float = 1e-12
    drift_coeff: float = 200.0
    stderr_mult: float = 3.0
    dt_coeff: float = 2.0
    grid_stderr_mult: float = 2.0

    def override(self, pairs: dict[str, float]) -> "Tolerances":
        unknown = set(pairs) - set(self.__dataclass_fields__)
        if unknown:
            raise ParseError(f"unknown tolerance name(s): {', '.join(sorted(unknown))}")
        bad = [name for name, value in pairs.items() if not 0.0 <= value < np.inf]
        if bad:
            raise ParseError(f"tolerance(s) must be finite and >= 0: {', '.join(sorted(bad))}")
        return replace(self, **pairs)


@dataclass(frozen=True)
class RunConfig:
    model_path: str
    out_dir: str = "."
    seed: int = 42
    paths: int = 20000
    steps: int | None = None
    eps: tuple = (0.05, 0.1, 0.2)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        # Every statistical check needs a sample standard deviation.
        if self.paths < 2:
            raise ParseError(f"paths must be >= 2, got {self.paths}")
        if self.steps is not None and self.steps < 2:
            raise ParseError(f"steps must be >= 2, got {self.steps}")
        if self.seed < 0:
            raise ParseError(f"seed must be >= 0, got {self.seed}")
        if not self.eps or not all(0.0 < abs(e) < np.inf for e in self.eps):
            raise ParseError("epsilon values must be a non-empty list of finite, nonzero numbers")


def _load(config: RunConfig) -> LQModel:
    return load_model(config.model_path, steps_override=config.steps)


def cmd_validate(config: RunConfig) -> int:
    """Print one pass/fail line per standing hypothesis.

    Once H1, H2 and H4 hold, the solver calls of solve run (without writing
    anything): H3, H5 and H6 are read from their guards, and any other solver
    failure prints a (solve) FAIL line.
    """
    model = _load(config)
    report = check_hypotheses(model)
    ok = True
    for name in ("H1", "H2", "H4"):
        violations = report[name]
        status = "PASS" if not violations else "FAIL"
        ok &= not violations
        detail = "" if not violations else " (" + "; ".join(f"{v.error}: {v.detail}" for v in violations) + ")"
        print(f"({name}) {status}{detail}")
    guarded = (("H3", H3Violated), ("H5", M1NotInvertible), ("H6", M2NotInvertible))
    if not ok:
        for name, _ in guarded:
            print(f"({name}) SKIPPED (requires a valid model)")
        return EXIT_VALIDATION
    error = None
    try:
        eq = _solve(config, model)
        solve_follower_filter(model, eq.P, eq.u2hat_path())
    except SolverError as exc:
        error = exc
    # A hypothesis passes once the solve has run every check of it.  The
    # leader solve, the only raiser of M1/M2NotInvertible, starts after the
    # last H3 check; the filters, raising a plain SolverError, start after
    # the leader solve.  A Riccati blow-up leaves all three open.
    past_leader = error is None or type(error) is SolverError
    past_h3 = past_leader or isinstance(error, (M1NotInvertible, M2NotInvertible))
    for (name, cls), settled in zip(guarded, (past_h3, past_leader, past_leader)):
        if isinstance(error, cls):
            print(f"({name}) FAIL ({error})")
        else:
            print(f"({name}) " + ("PASS" if settled else "SKIPPED (the solve stopped first)"))
    if error is not None and not isinstance(error, tuple(cls for _, cls in guarded)):
        print(f"(solve) FAIL ({error})")
    return EXIT_OK if error is None else EXIT_VALIDATION


def _solve(config: RunConfig, model: LQModel) -> eq_mod.EquilibriumSolution:
    tol = config.tolerances
    return eq_mod.solve_equilibrium(model, det_tol=tol.det_tol, blow_up_factor=tol.blow_up_factor)


def cmd_solve(config: RunConfig) -> int:
    """Run the deterministic pipeline and write riccati/gains/xhat CSVs."""
    model = _load(config)
    eq = _solve(config, model)
    # Nothing below reads the coefficient blocks or the sigmas; releasing
    # them first keeps the filter pass below the memory peak of the solve.
    P, leader, gains, xhat, u2hat = eq.P, eq.leader, eq.gains, eq.xhat, eq.u2hat_path()
    del eq
    times = model.grid.times()
    reporting.ensure_dir(config.out_dir)
    out = lambda name: f"{config.out_dir}/{name}"
    fp = solve_follower_filter(model, P, u2hat)
    reporting.write_riccati_csv(out("riccati.csv"), times, P.values, leader.p1, leader.p2)
    reporting.write_gains_csv(out("gains.csv"), times, gains)
    reporting.write_xhat_csv(out("xhat.csv"), times, fp, xhat)
    print(f"solved: P(0)={float(P.values[0])!r}, min|det| gain guards: "
          f"{float(leader.min_det_m1)!r}, {float(leader.min_det_m2)!r}")
    print(f"wrote {out('riccati.csv')}, {out('gains.csv')}, {out('xhat.csv')}")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    """Closed-loop Monte-Carlo run: trajectories.csv and costs.csv.

    One pass over path chunks, as verify makes: each chunk leaves its
    per-path costs, the first also its first paths for the export, so memory
    is set by the chunk size.  Nothing is written before the last chunk.
    """
    model = _load(config)
    eq = _solve(config, model)
    j1, j2, head = [], [], None
    for ens in closed_loop_chunks(eq.closed_loop(), config.seed, config.paths):
        if head is None:
            head = ens.head(reporting.TRAJECTORY_PATHS)
        j1.append(costs_mod.pathwise_J1(model, ens))
        j2.append(costs_mod.pathwise_J2(model, ens))
        del ens  # else it stays alive while the next chunk is simulated
    j1 = costs_mod.cost_estimate("J1", np.concatenate(j1))
    j2 = costs_mod.cost_estimate("J2", np.concatenate(j2))
    reporting.ensure_dir(config.out_dir)
    reporting.write_trajectories_csv(f"{config.out_dir}/trajectories.csv", head)
    reporting.write_costs_csv(f"{config.out_dir}/costs.csv", [j1, j2])
    print(f"J1 = {j1.mean!r} (stderr {j1.stderr!r}), J2 = {j2.mean!r} (stderr {j2.stderr!r}), M = {config.paths}")
    return EXIT_OK


def _verify_rows(config: RunConfig, model: LQModel, eq) -> list[reporting.CheckRow]:
    tol = config.tolerances
    rows: list[reporting.CheckRow] = []
    n = model.grid.steps
    dt = model.grid.dt
    mult = f"{tol.stderr_mult:g} stderr"

    def add(name, kind, residual, tolerance, note=""):
        rows.append(reporting.CheckRow(name=name, kind=kind, residual=float(residual),
                                       tolerance=float(tolerance), passed=bool(residual <= tolerance),
                                       note=note))

    # Exact terminal/initial data.
    term = max(
        float(np.max(np.abs(eq.leader.p1[-1] - eq.blocks.gbar))),
        float(np.max(np.abs(eq.leader.p2[-1]))),
        abs(eq.P.values[-1] - model.G1),
        float(np.max(np.abs(eq.xhat.nodes[0] - np.array([model.x0, 0.0])))),
    )
    add("terminal_data", "algebraic", term, 0.0, "stored bit-exactly")

    # Gain-matrix identity between the two eliminations of the adjoint diffusion.
    sig_scale = float(np.max(np.abs(eq.sigmas.s1))) + 1.0
    add("sigma_identity", "algebraic",
        np.max(np.abs(eq.sigmas.s1 - (eq.sigmas.s2 + eq.sigmas.s3))), tol.sigma_rel * sig_scale)

    # Follower control: gain form vs the filtered-feedback substitution.
    gc = eq_mod.gain_consistency_residual(eq)
    add("gain_consistency", "algebraic", gc.max_abs, tol.gain_rel * gc.scale, "two control representations")

    # The follower filter driven by the leader's filtered feedback must
    # reproduce the first component of the augmented estimate (same ODE,
    # 4th-order discretizations).
    xh = eq.xhat.nodes
    u2hat = eq.u2hat_path()
    fp = solve_follower_filter(model, eq.P, u2hat)
    route_gap = float(np.max(np.abs(fp.xhat.nodes - xh[:, 0])))
    xh_scale = float(np.max(np.abs(xh[:, 0]))) + 1.0
    add("filter_route_consistency", "algebraic", route_gap,
        max(tol.structural_rel, 1e2 * dt ** 4) * xh_scale)

    # Every Monte-Carlo row is a reduction over paths, so one pass over path
    # chunks folds each chunk into running maxima, per-node moments (merged
    # in chunk order) or per-path vectors: memory is set by the chunk size.
    t = model.grid.times()
    dirs = {"const": np.ones(n + 1), "ramp": t / model.grid.horizon,
            "sine": np.sin(2.0 * np.pi * t / model.grid.horizon)}
    sweeps = [costs_mod.OptimalitySweep(eq, which, dirs, config.eps) for which in ("J1", "J2")]
    checkpoints = [int(round(f * n)) for f in np.linspace(0.1, 1.0, 10)]
    density = not np.all(model.nodes("h") == 0.0)
    fs_moments, tower = eq_mod.NodeMoments(), eq_mod.NodeMoments()
    leader = eq_mod.LeaderStationarity(0.0, 0.0, 0.0)
    bsde_sums, z_T, grid_parts = [], [], []
    peak = {}

    def fold(name, values):
        peak[name] = float(np.maximum(peak.get(name, 0.0), np.max(np.abs(values))))  # NaN propagates

    for ens in closed_loop_chunks(eq.closed_loop(), config.seed, config.paths):
        theta = backfill_theta(model, eq.P, ens.x, ens.u2, eq.xhat_scalar_path(), u2hat, fp.theta_hat)
        recon = eq_mod.reconstruct_adjoints(eq, ens, theta)
        fold("z", recon.z)
        fold("z_2", recon.z[1])
        fold("y_T", recon.y[:, -1])
        fold("y_T_gap", recon.y[:, -1] - eq.blocks.gbar @ np.stack([ens.x[-1], ens.q[-1]]))
        fold("p", recon.p)
        leader = leader.merge(eq_mod.leader_stationarity_residual(eq, ens, recon))
        fs = eq_mod.follower_stationarity_residual(eq, ens, recon, fs_moments)
        bsde_sums.append(eq_mod.bsde_residual(eq, ens, recon).time_summed)
        tower.add(np.stack([ens.x[checkpoints], ens.q[checkpoints]], axis=1))
        if density:
            z_T.append(density_process(model, ens.noise))
        for sweep in sweeps:
            sweep.add(ens)
        if ens.noise.first_path < 4000:  # brute-force dominance on the first 4000 paths
            grid_parts.append(costs_mod.grid_features(eq, ens)[:, :4000 - ens.noise.first_path])
        del ens, theta, recon  # else they stay alive while the next chunk is simulated

    add("structural_zero", "algebraic", peak["z_2"], tol.structural_rel * (peak["z"] + 1.0))
    add("terminal_reconstruction", "algebraic", peak["y_T_gap"], 1e-12 * (peak["y_T"] + 1.0))
    add("leader_stationarity", "algebraic", leader.algebraic_max, tol.algebraic_rel * leader.scale)
    fs_tol = tol.stderr_mult * float(np.max(fs.stderr)) + tol.dt_coeff * dt * fs.scale
    add("follower_stationarity", "statistical", fs.max_abs, fs_tol, f"{mult} + O(dt) allowance")

    dr = eq_mod.drift_residuals(eq)
    add("drift_residual_follower", "order", dr.follower_max, tol.drift_coeff * dt * dt)
    add("drift_residual_leader", "order", dr.leader_max, tol.drift_coeff * dt * dt)

    br = eq_mod.BsdeResidual(np.concatenate(bsde_sums))
    add("bsde_residual", "statistical", br.rms, tol.dt_coeff * 10.0 * dt * (peak["p"] + 1.0), "first-order in dt")

    # Tower property with the first-order weak-error allowance.
    gap = np.abs(tower.mean - xh[checkpoints]) - tol.stderr_mult * tower.stderr
    x_scale = float(np.max(np.abs(xh))) + 1.0
    add("tower_property", "statistical", max(0.0, float(np.max(gap))), tol.dt_coeff * dt * x_scale,
        f"gap beyond {mult} vs O(dt) weak-error allowance")

    # Observation-density martingale.
    if density:
        zt = np.concatenate(z_T)
        add("density_martingale", "statistical", abs(float(zt.mean()) - 1.0),
            tol.stderr_mult * float(zt.std(ddof=1) / np.sqrt(len(zt))) + 1e-12)

    reports = [sweep.report() for sweep in sweeps]
    for rep, player in zip(reports, ("follower", "leader")):
        for c in rep.curves:
            add(f"{player}_optimality_{c.name}", "statistical", -c.min_delta_margin(tol.stderr_mult), 0.0,
                f"min over eps of dJ + {mult}, negated")
            slope_tol = tol.stderr_mult * c.slope_stderr + tol.dt_coeff * dt * (1.0 + abs(c.baseline_mean))
            add(f"{player}_slope_{c.name}", "statistical", abs(c.slope), slope_tol,
                f"{mult} + O(dt) allowance")
            add(f"{player}_curvature_{c.name}", "statistical", -c.curvature, 0.0)

    grid = costs_mod.grid_result(np.concatenate(grid_parts, axis=1), np.linspace(-3, 3, 21),
                                 np.linspace(-3, 3, 21))
    add("grid_dominance", "statistical", -grid.dominance_margin(tol.grid_stderr_mult), 0.0,
        f"best grid ({grid.best_alpha!r},{grid.best_beta!r}) J1={grid.best_mean!r}")

    reporting.ensure_dir(config.out_dir)
    reporting.write_perturbation_csv(f"{config.out_dir}/perturbations.csv", reports, tol.stderr_mult)
    reporting.write_grid_csv(f"{config.out_dir}/grid_search.csv", grid)
    return rows


def cmd_verify(config: RunConfig) -> int:
    """Full identity and optimality suite; writes verify_report.csv."""
    model = _load(config)
    eq = _solve(config, model)
    rows = _verify_rows(config, model, eq)
    reporting.ensure_dir(config.out_dir)
    reporting.write_verify_csv(f"{config.out_dir}/verify_report.csv", rows)
    ok = True
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{status} {r.name} [{r.kind}] residual={r.residual!r} tol={r.tolerance!r}")
    print(f"report: {config.out_dir}/verify_report.csv")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lqstack",
                                     description="Leader-follower LQ game solver and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("solve", cmd_solve),
                     ("simulate", cmd_simulate), ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="JSON problem file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--paths", type=int, default=20000)
        p.add_argument("--steps", type=int, default=None, help="override the grid steps")
        p.add_argument("--eps", default="0.05,0.1,0.2", help="comma-separated epsilon magnitudes")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        p.set_defaults(func=fn)
    return parser


def _config_from_args(args) -> RunConfig:
    try:
        eps = tuple(float(x) for x in str(args.eps).split(",") if x.strip())
    except ValueError as exc:
        raise ParseError(f"bad --eps list: {args.eps}") from exc
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            raise ParseError(f"bad --tol item (expected NAME=VALUE): {item}")
        key, _, val = item.partition("=")
        try:
            overrides[key.strip()] = float(val)
        except ValueError as exc:
            raise ParseError(f"bad --tol value: {item}") from exc
    return RunConfig(model_path=args.model, out_dir=args.out, seed=args.seed,
                     paths=args.paths, steps=args.steps, eps=eps,
                     tolerances=Tolerances().override(overrides))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.func(config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ModelValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except LQStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
