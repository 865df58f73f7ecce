import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqstack.errors import ModelValidationError, ParseError
from lqstack.model import (TimeGrid, check_hypotheses, load_model, model_from_dict,
                           sample_on_grid, validate_model)

from conftest import OutOfRange, make_model, model_to_dict, sample_at


def test_constant_model_accepted():
    m = make_model(steps=100, A=0.0, C=0.0, h=0.0)
    assert validate_model(m) is m


def test_validation_is_idempotent():
    m = make_model(steps=100)
    checked = validate_model(m)
    assert validate_model(checked) is checked


def test_zero_r1_rejected_under_h2():
    m = make_model(steps=100, R1=0.0)
    with pytest.raises(ModelValidationError) as info:
        validate_model(m)
    kinds = {(v.error, v.hypothesis) for v in info.value.violations}
    assert ("NonPositiveWeight", "H2") in kinds


def test_wrong_length_array_rejected():
    m = make_model(steps=100, Q1=np.ones(100))  # needs 101 entries
    with pytest.raises(ModelValidationError) as info:
        validate_model(m)
    assert any(v.error == "LengthMismatch" for v in info.value.violations)


def test_nonfinite_coefficient_rejected():
    m = make_model(steps=100, A=float("nan"))
    with pytest.raises(ModelValidationError) as info:
        validate_model(m)
    assert any(v.error == "NonFinite" and v.hypothesis == "H1" for v in info.value.violations)


def test_every_violation_reported_at_once():
    m = make_model(steps=100, R1=0.0, R2=-1.0, G1=-2.0, Q2=-0.5)
    report = check_hypotheses(m)
    assert len(report["H2"]) == 2  # R1 and G1
    assert len(report["H4"]) == 2  # R2 and Q2


def test_sample_at_constant():
    grid = TimeGrid(1.0, 100)
    assert sample_at(3.0, 0.37, grid) == 3.0


def test_sample_at_linear_interpolation():
    # grids require steps >= 2, so the two-node ramp uses midpoint values
    grid = TimeGrid(1.0, 2)
    values = np.array([0.0, 0.5, 1.0])
    assert sample_at(values, 0.5, grid) == 0.5
    assert sample_at(values, 0.25, grid) == 0.25


def test_sample_at_node_is_exact():
    grid = TimeGrid(1.0, 2)
    values = np.array([2.0, 2.0, 2.0])
    assert sample_at(values, 1.0, grid) == 2.0


def test_sample_at_out_of_range():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(OutOfRange):
        sample_at(1.0, 1.1, grid)
    with pytest.raises(OutOfRange):
        sample_at(1.0, -0.1, grid)
    # within tolerance is clamped, not rejected
    assert sample_at(np.linspace(0, 1, 11), 1.0 + 1e-13, grid) == 1.0


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=40),
       st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_node_samples_match_stored_entries(steps, node, horizon):
    node = min(node, steps)
    grid = TimeGrid(horizon, steps)
    rng = np.random.default_rng(steps * 1000 + node)
    values = rng.standard_normal(steps + 1)
    t = node * grid.dt
    assert sample_at(values, t, grid) == values[node]


@given(st.integers(min_value=2, max_value=20), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_refined_grid_matches_pointwise_sampling(steps, refine):
    grid = TimeGrid(1.0, steps)
    rng = np.random.default_rng(steps + 31 * refine)
    values = rng.standard_normal(steps + 1)
    fine = sample_on_grid(values, grid, refine)
    times = np.linspace(0.0, grid.horizon, refine * steps + 1)
    direct = np.array([sample_at(values, t, grid) for t in times])
    assert np.allclose(fine, direct, rtol=0, atol=1e-14)
    assert np.array_equal(fine[::refine], values)


def test_grid_invariants():
    with pytest.raises(ModelValidationError):
        TimeGrid(1.0, 1)
    with pytest.raises(ModelValidationError):
        TimeGrid(-1.0, 10)
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == 2.0
    assert np.all(np.diff(times) > 0)


def test_model_json_round_trip(tmp_path):
    m = make_model(steps=50, Q1=np.linspace(1.0, 2.0, 51))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(m)))
    loaded = load_model(path)
    assert loaded.grid.steps == 50
    assert np.array_equal(np.asarray(loaded.Q1), np.asarray(m.Q1))
    assert loaded.G2 == m.G2


def test_model_json_missing_key():
    with pytest.raises(ParseError):
        model_from_dict({"A": 1.0})


def test_model_json_bad_types():
    d = model_to_dict(make_model(steps=10))
    d["R1"] = "one"
    with pytest.raises(ParseError):
        model_from_dict(d)
    d2 = model_to_dict(make_model(steps=10))
    d2["steps"] = 10.5
    with pytest.raises(ParseError):
        model_from_dict(d2)


def test_steps_override():
    d = model_to_dict(make_model(steps=10))
    m = model_from_dict(d, steps_override=64)
    assert m.grid.steps == 64
