"""Exception types shared across the package.

Each maps to a distinct CLI exit code so scripted callers can tell
validation problems, blown enumeration budgets, and numerical blow-ups apart.
"""

from __future__ import annotations


class GameValidationError(ValueError):
    """A spec, policy, config, or argument failed validation."""

    exit_code = 2


class EnumerationCapExceeded(RuntimeError):
    """An enumeration would exceed the configured cap (``required``: a count, or a power)."""

    exit_code = 3

    def __init__(self, message: str, required: int | str, cap: int):
        super().__init__(f"{message}: needs {required} > cap {cap}")
        self.required = required
        self.cap = cap


class NumericInstabilityError(RuntimeError):
    """A float solver (the PDE time stepper, the open-loop demo) produced non-finite values."""

    exit_code = 4
