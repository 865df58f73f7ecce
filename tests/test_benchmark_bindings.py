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

import pytest

from lqstack.cli import main

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
