"""Error taxonomy shared across the toolkit.

Two families matter to callers: bad input (InputError) and broken numerical
guarantees (NumericalContractError).  The CLI maps them to exit codes 1 and 2.
Plain OverflowError is allowed to escape from gamma-type evaluations whose
true value exceeds float range; it is not wrapped.
"""

import numpy as np


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(ToolkitError):
    """Arguments or data outside an operation's documented domain."""


class NumericalContractError(ToolkitError):
    """An internal numerical guarantee failed; the result would be garbage."""


class DomainError(InputError):
    """Argument outside the mathematical domain of the operation."""


class RangeError(InputError):
    """Argument outside the guarded parameter range."""


class PoleError(InputError):
    """Evaluation requested exactly at a pole."""


class ParseError(InputError):
    """Malformed file content.  Carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(InputError):
    """Data fails a structural invariant (shapes, norms, schema keys)."""


class DimensionError(InputError):
    """Operation not defined on a sphere of this dimension."""


class UnsupportedDimension(InputError):
    """No known closed form or conjecture for this dimension."""


class CoincidentPointsError(InputError):
    """Two points closer than the coincidence threshold in a singular kernel."""


class DegenerateFit(InputError):
    """Fit impossible: the abscissae carry no spread."""


class NegativeVarianceError(NumericalContractError):
    """A square identity produced a negative value beyond float-noise tolerance."""


def _require_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """`value` as a Python int.  DomainError for a bool, a non-integer or a
    value below `minimum`; RangeError above the guard `maximum`.  numpy
    integers are accepted."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise RangeError(f"{name}={value} exceeds guard {maximum}")
    return int(value)
