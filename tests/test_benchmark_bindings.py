"""The benchmark's tracer binds to lqstack by name; these pin those bindings.

perfbench/tracer.py is loaded read-only from the repository, so a refactor
that renames a traced function, or changes how often the leader solve calls
a counted one, fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lqstack.cli import main
from lqstack.costs import (gain_grid_search, verify_follower_optimality, verify_leader_optimality,
                           verify_optimality_chunked)
from lqstack.equilibrium import solve_equilibrium
from lqstack.simulate import backfill_theta, generate_noise, simulate_closed_loop

from conftest import make_model, model_to_dict

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_traced_target_resolves(tracer):
    targets = [(mod, func) for mod, funcs in tracer.SPANNED.items() for func in funcs]
    targets += [(mod, func) for mod, funcs in tracer.COUNTED.items() for func in funcs]
    for mod, func in targets:
        assert callable(getattr(importlib.import_module(f"lqstack.{mod}"), func, None)), f"{mod}.{func}"


def test_traced_solve_counts_leader_stages(tracer, tmp_path):
    # A backward RK4 solve over N steps evaluates its right-hand side 4N + 1
    # times (four stages per step and the slope at node 0).  Each leader
    # equation does so once; the gain inverses run at every stage of the
    # first and once more over the half grid.
    steps = 40
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(make_model(steps=steps, D1=0.3, D2=0.2, C=0.4))))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert main(["solve", "--model", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        tr.uninstall()
    assert tr.counts == {"riccati.gain_inverses": 4 * steps + 2, "riccati.rhs_p1": 4 * steps + 1,
                         "riccati.rhs_p2": 4 * steps + 1}
    metrics = tracer.layer_metrics(tr.spans, tr.counts)
    assert metrics["riccati.rhs_evals"][0] == 2 * (4 * steps + 1)


def test_sweep_and_grid_hooks_read_their_results(tracer):
    # No benchmark workload calls the sweeps or the grid search, so their span
    # hooks are pinned here against what each traced function returns:
    # 2 directions x 4 signed eps per sweep, 3 x 5 grid points.
    eq = solve_equilibrium(make_model(steps=20, D1=0.3, D2=0.2))
    ens = simulate_closed_loop(eq.closed_loop, generate_noise(1, 50, eq.model.grid))
    t = eq.model.grid.times()
    dirs = {"const": np.ones_like(t), "ramp": t}
    results = {"verify_follower_optimality": verify_follower_optimality(eq, ens, dirs, [0.1, 0.2]),
               "verify_leader_optimality": verify_leader_optimality(eq, ens, dirs, [0.1, 0.2]),
               "verify_optimality_chunked": verify_optimality_chunked(eq, "J2", dirs, [0.1, 0.2], seed=1, m=50),
               "gain_grid_search": gain_grid_search(eq, ens, np.linspace(-1, 1, 3), np.linspace(-1, 1, 5))}
    points = {"gain_grid_search": 15}
    for func, result in results.items():
        _, hook = tracer.SPANNED["costs"][func]
        assert hook((), {}, result) == {"points": points.get(func, 8)}, func


def test_noise_hook_reads_the_bundle_as_drawn(tracer):
    # The simulate.noise hook runs after its span has closed, so it may only
    # read sizes: on a fresh bundle it draws nothing and reports the bytes
    # generate_noise drew, dw's and dwbar's.
    grid = make_model(steps=20).grid
    bundle = generate_noise(3, 70, grid, first_path=5)
    drawn = dict(vars(bundle))
    _, hook = tracer.SPANNED["simulate"]["generate_noise"]
    attrs = hook((3, 70, grid), {"first_path": 5}, bundle)
    assert vars(bundle).keys() == drawn.keys() and all(vars(bundle)[k] is v for k, v in drawn.items())
    assert attrs == {"key": [3, 20, grid.horizon], "first": 5, "paths": 70,
                     "bytes": bundle.dw.nbytes + bundle.dwbar.nbytes}
    assert attrs["bytes"] == 21 * 70 * 8


def test_backfill_hook_reads_the_offset_gain(tracer, tmp_path):
    # backfill_theta returns the follower's offset gain, a (2N+1, 2) array,
    # and the simulate.backfill hook reports its bytes.  A traced verify
    # solves it once, as the adjoints are first read; simulate never does
    steps = 40
    model = make_model(steps=steps, D1=0.3, D2=0.2)
    eq = solve_equilibrium(model)
    args = (eq.model, eq.P, eq.closed_loop.drift_x, eq.closed_loop.lx)
    gain = backfill_theta(*args)
    _, hook = tracer.SPANNED["simulate"]["backfill_theta"]
    assert hook(args, {}, gain) == {"bytes": (2 * steps + 1) * 2 * 8}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    for command, solves in (("verify", 1), ("simulate", 0)):
        tr = tracer.Tracer()
        tr.install()
        try:
            assert main([command, "--model", str(path), "--out", str(tmp_path / command), "--paths", "300"]) == 0
        finally:
            tr.uninstall()
        spans = [s for s in tr.spans if s.name == "simulate.backfill"]
        assert [s.attrs for s in spans] == [{"bytes": gain.nbytes}] * solves, command
