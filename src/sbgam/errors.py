"""Exception types shared across the package.

The command line layer maps these onto exit codes, so the hierarchy matters:
``InputError`` covers everything wrong with data or configuration before a
fit can start, ``FitError`` covers failures of the iteration itself.
"""

from __future__ import annotations

import numbers

__all__ = [
    "SbgamError",
    "InputError",
    "InitializerError",
    "FitError",
    "NonConvergenceError",
    "DegenerateWeightError",
]


class SbgamError(Exception):
    """Base class for all package errors."""


class InputError(SbgamError):
    """Invalid data, grid, bandwidth or configuration."""


def is_number(value, kind=numbers.Real) -> bool:
    """Whether value is an instance of the numeric kind; bools are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def require_integer(name: str, value, least: int) -> None:
    """Raise InputError unless value is an integer, not a bool, of at
    least `least`."""
    if not is_number(value, numbers.Integral) or value < least:
        raise InputError(f"{name} must be an integer of at least {least}")


class InitializerError(InputError):
    """The constant-model starting value is not finite.

    Raised when g(mean(y)) cannot be formed, for example an all-zero
    Bernoulli response.
    """


class FitError(SbgamError):
    """A fit started but could not be completed."""


class NonConvergenceError(FitError):
    """Iteration limit reached before the convergence test was met.

    Carries the recorded change norms so callers can inspect how the
    iteration was behaving when it was cut off, and which loop stopped:
    ``loop`` is "outer" for the Newton steps and "inner" for the
    backfitting sweeps of one step.
    """

    def __init__(self, message: str, history: list | None = None,
                 loop: str = "outer"):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.loop = loop


class DegenerateWeightError(FitError):
    """A smoothed weight fell below the positivity floor.

    Usually means the data leave a region of the grid effectively empty at
    the chosen bandwidth.
    """

    def __init__(self, dim: int, location: float, value: float, floor: float):
        super().__init__(
            f"smoothed weight {value:.3e} at x_{dim + 1} = {location:.4f} "
            f"is below the positivity floor {floor:.3e}; widen the bandwidth "
            f"or coarsen the grid"
        )
        self.dim = dim
        self.location = location
        self.value = value
        self.floor = floor
