"""Exception hierarchy shared by the solver modules."""

from __future__ import annotations


class LQStackError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LQStackError):
    """Malformed problem file (bad JSON, wrong types, missing keys)."""


class ModelValidationError(LQStackError):
    """One or more standing hypotheses on the problem data fail.

    Carries the full list of violations; the message names every violated
    hypothesis so a single run reports everything that is wrong.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"({v.hypothesis}) {v.error}: {v.detail}" for v in self.violations)
        super().__init__(f"model validation failed: {lines}")


class OutOfRange(LQStackError):
    """Time argument outside [0, T] beyond tolerance."""


class SolverError(LQStackError):
    """Base class for failures during the ODE solves and the Euler simulations.

    Attributes:
        time: forward time at which the failure was detected.
    """

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at t={time:.6g})")
        self.time = time


class RiccatiBlowUp(SolverError):
    """A backward Riccati solution exceeded the blow-up bound or went non-finite."""


class H3Violated(SolverError):
    """The follower control-weight inverse (D1^2 P + R1)^-1 degenerates."""


class M1NotInvertible(SolverError):
    """Hypothesis (H5) fails: the first gain matrix inverse does not exist."""


class M2NotInvertible(SolverError):
    """Hypothesis (H6) fails: the second gain matrix inverse does not exist."""


class NonFiniteState(SolverError):
    """A simulated path produced a non-finite state value."""

    def __init__(self, path: int, step: int, time: float):
        super().__init__(f"non-finite state on path {path} at step {step}", time)
        self.path = path
        self.step = step
