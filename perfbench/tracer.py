"""Span tracing of lqstack from outside the package.

``Tracer.install`` replaces the package's public functions by wrappers at
every module attribute that holds them, so names bound with
``from .x import f`` (in ``cli``, ``costs``, ``equilibrium`` and the package
namespace) are traced as well; ``uninstall`` puts the originals back.  Each
spanned call records its name, layer, start, end, parent span and run id;
spans stay in memory until the run writes them out.  The hot inner
functions of the Riccati solves are counted, not spanned.

``layer_metrics`` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

LAYERS = ("model", "riccati", "filtering", "equilibrium", "simulate", "costs", "reporting", "cli")


def _noise_attrs(args, kwargs, result):
    seed, m, grid = args[:3]
    first = kwargs.get("first_path", args[3] if len(args) > 3 else 0)
    return {"key": [int(seed), grid.steps, grid.horizon], "first": int(first), "paths": int(m),
            "bytes": result.dw.nbytes + result.dwbar.nbytes}


def _euler_attrs(args, kwargs, result):
    arrays = (result.x, result.q, result.u1, result.u2) if result.q is not None else (result.x,)
    return {"path_steps": result.m * result.grid.steps, "bytes": sum(a.nbytes for a in arrays)}


def _array_attrs(args, kwargs, result):
    return {"bytes": getattr(result, "z", result).nbytes}


def _sweep_attrs(args, kwargs, result):
    return {"points": sum(len(c.eps) for c in result.curves)}


def _grid_attrs(args, kwargs, result):
    return {"points": int(result.cost_mean.size)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


_WRITERS = ("write_riccati_csv", "write_gains_csv", "write_xhat_csv", "write_trajectories_csv",
            "write_costs_csv", "write_verify_csv", "write_perturbation_csv", "write_grid_csv")

# module -> function -> (span name, attribute hook or None)
SPANNED = {
    "model": {"load_model": ("model.load", None), "validate_model": ("model.validate", None)},
    "riccati": {"solve_follower_P": ("riccati.follower_P", None),
                "assemble_leader_blocks": ("riccati.blocks", None),
                "solve_leader_riccati": ("riccati.leader", None),
                "compute_sigmas": ("riccati.sigmas", None)},
    "filtering": {"solve_follower_filter": ("filtering.follower_filter", None),
                  "solve_leader_xhat": ("filtering.leader_xhat", None)},
    "equilibrium": {"build_gains": ("equilibrium.gains", None),
                    "closed_loop_matrices": ("equilibrium.closed_loop", None),
                    "reconstruct_adjoints": ("equilibrium.reconstruct", None),
                    **{f: ("equilibrium.residuals", None)
                       for f in ("follower_stationarity_residual", "leader_stationarity_residual",
                                 "drift_residuals", "bsde_residual")}},
    "simulate": {"generate_noise": ("simulate.noise", _noise_attrs),
                 "simulate_closed_loop": ("simulate.euler", _euler_attrs),
                 "simulate_open_loop": ("simulate.euler", _euler_attrs),
                 "backfill_theta": ("simulate.backfill", _array_attrs),
                 "density_process": ("simulate.density", _array_attrs)},
    "costs": {"estimate_J1": ("costs.estimate", None), "estimate_J2": ("costs.estimate", None),
              "follower_response": ("costs.follower_response", None),
              "verify_follower_optimality": ("costs.follower_sweep", _sweep_attrs),
              "verify_leader_optimality": ("costs.leader_sweep", _sweep_attrs),
              "verify_optimality_chunked": ("costs.chunked_sweep", _sweep_attrs),
              "gain_grid_search": ("costs.grid_search", _grid_attrs)},
    "reporting": {f: ("reporting.write", _file_attrs) for f in _WRITERS},
    "cli": {f: (f"cli.{f}", None) for f in ("main", "cmd_validate", "cmd_solve", "cmd_simulate",
                                            "cmd_verify")},
}
COUNTED = {"riccati": ("gain_inverses", "rhs_p1", "rhs_p2")}


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.run = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _spanned(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self.run, self._stack[-1] if self._stack else None,
                        time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target at each lqstack module attribute bound to it."""
        modules = [importlib.import_module("lqstack")]
        modules += [importlib.import_module(f"lqstack.{m}") for m in LAYERS]
        wrappers = {}
        for mod, funcs in SPANNED.items():
            for func, (name, hook) in funcs.items():
                orig = getattr(importlib.import_module(f"lqstack.{mod}"), func)
                wrappers[id(orig)] = (orig, self._spanned(orig, name, hook))
        for mod, funcs in COUNTED.items():
            for func in funcs:
                orig = getattr(importlib.import_module(f"lqstack.{mod}"), func)
                wrappers[id(orig)] = (orig, self._counted(orig, f"{mod}.{func}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON object per span, times in ns on the process's perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "run": s.run, "parent": s.parent,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_paths(spans: list[Span]) -> int:
    """Paths drawn at least once: union of [first, first+paths) per stream key."""
    ranges: dict[tuple, list[tuple[int, int]]] = {}
    for s in spans:
        if s.name == "simulate.noise":
            ranges.setdefault(tuple(s.attrs["key"]), []).append(
                (s.attrs["first"], s.attrs["first"] + s.attrs["paths"]))
    total = 0
    for intervals in ranges.values():
        reach = None
        for lo, hi in sorted(intervals):
            if reach is None or lo > reach:
                total += hi - lo
                reach = hi
            elif hi > reach:
                total += hi - reach
                reach = hi
    return total


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    A layer's inclusive time sums its outermost spans (those with no
    ancestor in the same layer), child spans of other layers included; its
    self time sums each span's duration minus the time its children cover.
    """
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end - s.start)

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].layer == s.layer:
                return False
            p = by_id[p].parent
        return True

    def seconds(names) -> float:
        return sum(s.end - s.start for s in spans if s.name in names) / 1e9

    def attr_sum(names, key) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    def n_spans(name) -> int:
        return sum(1 for s in spans if s.name == name)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.inclusive_s"] = (sum(s.end - s.start for s in mine if outermost(s)) / 1e9, "s")
        m[f"{layer}.self_s"] = (sum(s.end - s.start - child_ns.get(s.id, 0) for s in mine) / 1e9, "s")

    rhs = counts.get("riccati.rhs_p1", 0) + counts.get("riccati.rhs_p2", 0)
    inverses = counts.get("riccati.gain_inverses", 0)
    euler_s = seconds({"simulate.euler"})
    path_steps = attr_sum({"simulate.euler"}, "path_steps")
    noise_paths = attr_sum({"simulate.noise"}, "paths")
    resims = sum(1 for s in spans if s.name == "simulate.euler" and s.parent is not None
                 and by_id[s.parent].layer == "costs")
    points = attr_sum({"costs.follower_sweep", "costs.leader_sweep", "costs.chunked_sweep",
                       "costs.grid_search"}, "points")
    m.update({
        "model.load_s": (seconds({"model.load"}), "s"),
        "riccati.follower_P_s": (seconds({"riccati.follower_P"}), "s"),
        "riccati.leader_s": (seconds({"riccati.leader"}), "s"),
        "riccati.sigmas_s": (seconds({"riccati.sigmas"}), "s"),
        "riccati.rhs_evals": (rhs, "count"),
        "riccati.gain_inverses": (inverses, "count"),
        "riccati.inverses_per_rhs": (_ratio(inverses, rhs), "ratio"),
        "filtering.follower_filter_s": (seconds({"filtering.follower_filter"}), "s"),
        "filtering.follower_filter_calls": (n_spans("filtering.follower_filter"), "count"),
        "filtering.leader_xhat_s": (seconds({"filtering.leader_xhat"}), "s"),
        "equilibrium.gains_s": (seconds({"equilibrium.gains"}), "s"),
        "equilibrium.closed_loop_s": (seconds({"equilibrium.closed_loop"}), "s"),
        "equilibrium.reconstruct_s": (seconds({"equilibrium.reconstruct"}), "s"),
        "equilibrium.residuals_s": (seconds({"equilibrium.residuals"}), "s"),
        "simulate.noise_s": (seconds({"simulate.noise"}), "s"),
        "simulate.noise_paths": (noise_paths, "count"),
        "simulate.noise_useful_ratio": (_ratio(_distinct_paths(spans), noise_paths), "ratio"),
        "simulate.euler_s": (euler_s, "s"),
        "simulate.euler_calls": (n_spans("simulate.euler"), "count"),
        "simulate.path_steps": (path_steps, "count"),
        "simulate.path_steps_per_s": (_ratio(path_steps, euler_s), "1/s"),
        "simulate.backfill_s": (seconds({"simulate.backfill"}), "s"),
        "simulate.density_s": (seconds({"simulate.density"}), "s"),
        "simulate.bytes_computed": (attr_sum({"simulate.noise", "simulate.euler", "simulate.backfill",
                                              "simulate.density"}, "bytes"), "B"),
        "costs.follower_sweep_s": (seconds({"costs.follower_sweep"}), "s"),
        "costs.leader_sweep_s": (seconds({"costs.leader_sweep"}), "s"),
        "costs.grid_search_s": (seconds({"costs.grid_search"}), "s"),
        "costs.resims": (resims, "count"),
        "costs.resims_per_point": (_ratio(resims, points), "ratio"),
        "reporting.write_s": (seconds({"reporting.write"}), "s"),
        "reporting.bytes_written": (attr_sum({"reporting.write"}, "bytes"), "B"),
        "trace.spans": (len(spans), "count"),
    })
    return m


# Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = ("simulate.path_steps", "simulate.noise_paths", "simulate.euler_calls", "costs.resims",
                "riccati.rhs_evals", "riccati.gain_inverses", "simulate.bytes_computed",
                "filtering.follower_filter_calls", "reporting.bytes_written", "trace.spans")
