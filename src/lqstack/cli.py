"""Command-line pipeline: validate | solve | simulate | verify.

JSON problem files in, CSV artifacts out.  Exit codes: 0 ok, 1 validation
failure (validate reports solver failures this way too), 2 parse failure,
3 solver failure (Riccati blow-up, a gain inverse degenerating, a filter
solution or a simulated path going non-finite, with the failing time in the
message; nothing is written), 4 verification failure (the report is still
written).

Every output is a pure function of the problem file, the flags and the seed;
reruns are byte-identical.

simulate and verify each make one pass over closed-loop chunks through
equilibrium.fold_chunks.  verify's rows come from its list of check objects
(equilibrium and costs), in report order; simulate folds each chunk's
per-path costs.
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
from .model import LQModel, check_hypotheses, load_model
# solve_follower_P is unused here; perfbench/test_perfbench.py checks that the tracer wraps this binding.
from .riccati import BLOW_UP_FACTOR, DET_TOL, solve_follower_P  # noqa: F401

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

    det_tol: float = DET_TOL
    blow_up_factor: float = BLOW_UP_FACTOR
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
        _solve(config, model)
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
    leader, cl = eq.leader, eq.closed_loop
    times = model.grid.times()
    reporting.ensure_dir(config.out_dir)
    out = lambda name: f"{config.out_dir}/{name}"
    reporting.write_riccati_csv(out("riccati.csv"), times, eq.P.p[::2], leader.p1[::2], leader.p2[::2])
    reporting.write_gains_csv(out("gains.csv"), times,
                              *(g[::2] for g in (cl.lx, cl.lxhat, cl.lhat, cl.f)))
    reporting.write_xhat_csv(out("xhat.csv"), times, eq.follower_filter, cl.xhat)
    print(f"solved: P(0)={float(eq.P.p[0])!r}, min|det| gain guards: "
          f"{float(leader.min_det_m1)!r}, {float(leader.min_det_m2)!r}")
    print(f"wrote {out('riccati.csv')}, {out('gains.csv')}, {out('xhat.csv')}")
    return EXIT_OK


class _PathCosts:
    """simulate's fold: the per-path J1 and J2 of every chunk, and copies of the first paths."""

    def __init__(self, model: LQModel):
        self.model, self.j1, self.j2, self.head = model, [], [], None

    def add(self, chunk: eq_mod.Chunk) -> None:
        ens = chunk.ens
        if self.head is None:
            self.head = ens.head(reporting.TRAJECTORY_PATHS)
        self.j1.append(costs_mod.pathwise_J1(self.model, ens))
        self.j2.append(costs_mod.pathwise_J2(self.model, ens))


def cmd_simulate(config: RunConfig) -> int:
    """Closed-loop Monte-Carlo run: trajectories.csv and costs.csv.

    One pass over path chunks, as verify makes: each chunk leaves its
    per-path costs, the first also its first paths for the export, so memory
    is set by the chunk size.  Nothing is written before the last chunk.
    """
    model = _load(config)
    eq = _solve(config, model)
    fold, = eq_mod.fold_chunks(eq, config.seed, config.paths, [_PathCosts(model)])
    j1 = costs_mod.cost_estimate("J1", np.concatenate(fold.j1))
    j2 = costs_mod.cost_estimate("J2", np.concatenate(fold.j2))
    reporting.ensure_dir(config.out_dir)
    reporting.write_trajectories_csv(f"{config.out_dir}/trajectories.csv", fold.head)
    reporting.write_costs_csv(f"{config.out_dir}/costs.csv", [j1, j2])
    print(f"J1 = {j1.mean!r} (stderr {j1.stderr!r}), J2 = {j2.mean!r} (stderr {j2.stderr!r}), M = {config.paths}")
    return EXIT_OK


def _verify_checks(config: RunConfig, model: LQModel, eq) -> list:
    """verify's checks in report order, after one pass over the closed-loop chunks.

    The last three, the follower's and the leader's sweeps and the grid, also
    give the results of perturbations.csv and grid_search.csv.
    """
    t = model.grid.times()
    horizon = model.grid.horizon
    dirs = {"const": np.ones_like(t), "ramp": t / horizon, "sine": np.sin(2.0 * np.pi * t / horizon)}
    checks = [eq_mod.Identities(eq), eq_mod.AdjointMaxima(eq), eq_mod.LeaderStationarity(eq),
              eq_mod.FollowerStationarity(eq), eq_mod.drift_residuals(eq), eq_mod.Bsde(eq), eq_mod.Tower(eq),
              eq_mod.Density(eq),
              *(costs_mod.OptimalitySweep(eq, which, dirs, config.eps) for which in ("J1", "J2")),
              costs_mod.GridDominance(eq)]
    return eq_mod.fold_chunks(eq, config.seed, config.paths, checks)


def cmd_verify(config: RunConfig) -> int:
    """Full identity and optimality suite: verify_report.csv, perturbations.csv and grid_search.csv."""
    model = _load(config)
    eq = _solve(config, model)
    tol = config.tolerances
    checks = _verify_checks(config, model, eq)
    rows = [row for check in checks for row in check.rows(tol)]
    *_, follower, leader, grid = checks
    reporting.ensure_dir(config.out_dir)
    reporting.write_perturbation_csv(f"{config.out_dir}/perturbations.csv", [follower, leader], tol.stderr_mult)
    reporting.write_grid_csv(f"{config.out_dir}/grid_search.csv", grid.result())
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
