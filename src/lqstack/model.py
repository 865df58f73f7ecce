"""Problem data for the scalar LQ leader-follower game.

The game is posed on a uniform time grid over [0, T].  The state follows

    dx = [A x + B1 u1 + B2 u2] dt + [C x + D1 u1 + D2 u2] dW,   x(0) = x0,

the follower observes dY = h dt + dWbar (h deterministic), and the players
minimize quadratic costs with running weights (Q1, R1), (Q2, R2) and terminal
weights G1, G2.  All coefficients are deterministic functions of time, given
either as constants or as arrays sampled at the grid nodes (linear
interpolation off-node).

Standing hypotheses checked here:

    H1: dynamics coefficients A, B1, B2, C, D1, D2, h finite and well-formed,
    H2: Q1 >= 0, R1 > 0, G1 >= 0,
    H4: Q2 >= 0, R2 > 0, G2 >= 0.

H3 (invertibility of D1^2 P + R1) and H5/H6 (leader gain inverses) depend on
the Riccati solutions and are monitored by the solvers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ModelValidationError, ParseError

Coefficient = Union[float, np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / steps, k = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ModelValidationError(
                [Violation("NonFinite", "grid", f"horizon must be positive and finite, got {self.horizon}")]
            )
        if self.steps < 2:
            raise ModelValidationError(
                [Violation("LengthMismatch", "grid", f"steps must be >= 2, got {self.steps}")]
            )

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """Node times."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class Violation:
    """One failed check, named by error class and by standing hypothesis."""

    error: str
    hypothesis: str
    detail: str


def lift(values, steps: int) -> np.ndarray:
    """Half-grid samples (index j at t = j * dt/2) of a deterministic path.

    Node samples, shape (steps+1, ...), are read linearly between nodes:
    node k goes to index 2k, the midpoint of [t_k, t_k+1] to 2k+1.
    Half-grid samples, shape (2*steps+1, ...), are returned unchanged; any
    other length raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 2 * steps + 1:
        return values
    if len(values) != steps + 1:
        raise ValueError(f"expected {steps + 1} node or {2 * steps + 1} half-grid samples, got {len(values)}")
    out = np.empty((2 * steps + 1, *values.shape[1:]))
    out[::2] = values
    linear_midpoints(out)
    return out


def linear_midpoints(half: np.ndarray) -> np.ndarray:
    """Set every odd row of a half-grid array to 0.5 * (a + b) of its two even
    neighbours, in place, and return the odd rows (a view)."""
    mids = np.add(half[:-2:2], half[2::2], out=half[1::2])
    mids *= 0.5
    return mids


def sample_on_grid(fn: Coefficient, grid: TimeGrid, refine: int = 1) -> np.ndarray:
    """Coefficient values on the nodes (refine=1) or on the half grid (refine=2).

    Node values are copied exactly (no interpolation error at nodes);
    midpoints interpolate linearly (lift).
    """
    if refine not in (1, 2):
        raise ValueError(f"refine must be 1 or 2, got {refine}")
    if np.isscalar(fn) or np.ndim(fn) == 0:
        return np.full(refine * grid.steps + 1, float(fn))
    values = np.array(fn, dtype=float)
    return values if refine == 1 else lift(values, grid.steps)


_DYNAMICS = ("A", "B1", "B2", "C", "D1", "D2", "h")
_WEIGHTS = {"Q1": "H2", "R1": "H2", "Q2": "H4", "R2": "H4"}


@dataclass(frozen=True)
class LQModel:
    """All problem coefficients plus the time grid.

    Immutable after construction; safe to share across workers.
    """

    A: Coefficient
    B1: Coefficient
    B2: Coefficient
    C: Coefficient
    D1: Coefficient
    D2: Coefficient
    h: Coefficient
    Q1: Coefficient
    R1: Coefficient
    Q2: Coefficient
    R2: Coefficient
    G1: float
    G2: float
    x0: float
    grid: TimeGrid

    def __post_init__(self):
        # Array coefficients become defensive read-only copies, so the model
        # is genuinely immutable after construction.
        for name in (*_DYNAMICS, *_WEIGHTS):
            value = getattr(self, name)
            if not (np.isscalar(value) or np.ndim(value) == 0):
                frozen = np.array(value, dtype=float)
                frozen.setflags(write=False)
                object.__setattr__(self, name, frozen)

    def nodes(self, name: str, refine: int = 1) -> np.ndarray:
        """Sampled values of one coefficient on the (refined) grid."""
        return sample_on_grid(getattr(self, name), self.grid, refine)


def _coefficient_violations(name: str, fn: Coefficient, grid: TimeGrid, hypothesis: str) -> list[Violation]:
    out = []
    if np.isscalar(fn) or np.ndim(fn) == 0:
        if not np.isfinite(fn):
            out.append(Violation("NonFinite", hypothesis, f"{name} is not finite"))
        return out
    values = np.asarray(fn, dtype=float)
    if values.ndim != 1 or len(values) != grid.steps + 1:
        out.append(
            Violation(
                "LengthMismatch",
                hypothesis,
                f"{name} has length {values.shape}, expected {grid.steps + 1}",
            )
        )
        return out
    if not np.all(np.isfinite(values)):
        out.append(Violation("NonFinite", hypothesis, f"{name} contains non-finite entries"))
    return out


def check_hypotheses(model: LQModel) -> dict[str, list[Violation]]:
    """Evaluate every pre-solve hypothesis, keyed H1/H2/H4 (H3 is solver-time).

    Returns a dict with one entry per hypothesis; an empty list means pass.
    """
    report: dict[str, list[Violation]] = {"H1": [], "H2": [], "H4": []}

    for name in _DYNAMICS:
        report["H1"].extend(_coefficient_violations(name, getattr(model, name), model.grid, "H1"))

    for name, hyp in _WEIGHTS.items():
        fn = getattr(model, name)
        structural = _coefficient_violations(name, fn, model.grid, hyp)
        report[hyp].extend(structural)
        if structural:
            continue
        values = sample_on_grid(fn, model.grid)
        if name.startswith("R"):
            if np.any(values <= 0.0):
                k = int(np.argmax(values <= 0.0))
                report[hyp].append(
                    Violation("NonPositiveWeight", hyp, f"{name} <= 0 at node {k} (value {values[k]})")
                )
        else:
            if np.any(values < 0.0):
                k = int(np.argmax(values < 0.0))
                report[hyp].append(
                    Violation("NegativeWeight", hyp, f"{name} < 0 at node {k} (value {values[k]})")
                )

    for name, value, hyp in (("G1", model.G1, "H2"), ("G2", model.G2, "H4")):
        if not np.isfinite(value):
            report[hyp].append(Violation("NonFinite", hyp, f"{name} is not finite"))
        elif value < 0.0:
            report[hyp].append(Violation("NegativeWeight", hyp, f"{name} < 0 (value {value})"))

    if not np.isfinite(model.x0):
        report["H1"].append(Violation("NonFinite", "H1", "x0 is not finite"))

    return report


def validate_model(model: LQModel) -> LQModel:
    """Return the model unchanged if every checkable hypothesis holds.

    Raises ModelValidationError listing every violation otherwise.
    Idempotent: validating an already-validated model returns the same object.
    """
    report = check_hypotheses(model)
    violations = [v for vs in report.values() for v in vs]
    if violations:
        raise ModelValidationError(violations)
    return model


_MODEL_KEYS = ("A", "B1", "B2", "C", "D1", "D2", "h", "Q1", "R1", "Q2", "R2")


def model_from_dict(data: dict, steps_override: int | None = None) -> LQModel:
    """Build an LQModel from the JSON problem schema.

    Schema: each of A,B1,B2,C,D1,D2,h,Q1,R1,Q2,R2 is a number or an array of
    steps+1 numbers; G1,G2,x0,T are numbers; steps is an integer.
    Raises ParseError on structural problems (validation is separate).
    """
    if not isinstance(data, dict):
        raise ParseError(f"model file must contain a JSON object, got {type(data).__name__}")
    missing = [k for k in (*_MODEL_KEYS, "G1", "G2", "x0", "T", "steps") if k not in data]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")

    def number(key):
        v = data[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"key {key!r} must be a number, got {type(v).__name__}")
        return float(v)

    steps = data["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ParseError(f"key 'steps' must be an integer, got {type(steps).__name__}")
    if steps_override is not None:
        steps = steps_override

    coeffs = {}
    for key in _MODEL_KEYS:
        v = data[key]
        if isinstance(v, list):
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
                raise ParseError(f"key {key!r} array must contain numbers only")
            coeffs[key] = np.asarray(v, dtype=float)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            coeffs[key] = float(v)
        else:
            raise ParseError(f"key {key!r} must be a number or array, got {type(v).__name__}")

    try:
        grid = TimeGrid(horizon=number("T"), steps=steps)
    except ModelValidationError as exc:
        raise ParseError(str(exc)) from exc
    return LQModel(
        **coeffs,
        G1=number("G1"),
        G2=number("G2"),
        x0=number("x0"),
        grid=grid,
    )


def load_model(path, steps_override: int | None = None) -> LQModel:
    """Read a JSON problem file. ParseError on malformed content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data, steps_override=steps_override)
