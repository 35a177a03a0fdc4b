"""Exception hierarchy shared across the package, and the checks of a
numeric parameter, neither of which takes a ``bool``: ``True`` is no number."""

import math
import operator
from numbers import Real


class DriftBenchError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DriftBenchError, ValueError):
    """A caller supplied an invalid parameter or configuration value."""


class DataError(DriftBenchError):
    """Input data (CSV files, windows) is malformed or unusable."""


class InvalidSplitError(DriftBenchError, ValueError):
    """A split point leaves one side of the window empty."""


def as_int(name: str, value, low: int | None = None) -> int:
    """``value`` as a plain int, at least ``low`` when given: ``operator.index``
    takes a numpy integer and refuses a float, even 2.0, NaN or inf."""
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, not a bool, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and not value >= low:
        raise ParameterError(f"{name} must be >= {low}, got {value!r}")
    return value


def finite_positive(name: str, value, what: str = "a finite positive number"):
    """``value`` once it is a real number in (0, inf); ``what`` is what the
    error message says it must be."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value < math.inf):
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    return value
