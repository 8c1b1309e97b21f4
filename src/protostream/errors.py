"""Exception types shared across the package, and the integer and real
number checks that raise one.

The command line maps these onto process exit codes: usage errors exit
with 2, data/format errors with 3, numeric errors with 4.
"""

import math
import numbers


class UsageError(ValueError):
    """Caller misuse: bad configuration values, empty inputs, missing files."""


class DataFormatError(ValueError):
    """Malformed or inconsistent data: feature files, manifests, result logs."""


class NumericError(ArithmeticError):
    """Non-finite values or impossible arithmetic (division by zero accuracy)."""


def require_int(value, what: str) -> int:
    """value as an int: Python and numpy integers pass; bool, float, str and
    anything else is a UsageError naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_seed(value, what: str = "seed") -> int:
    """value as a non-negative int, the seeds numpy generators accept."""
    seed = require_int(value, what)
    if seed < 0:
        raise UsageError(f"{what} must be non-negative, got {seed}")
    return seed


def require_real(value, what: str) -> float:
    """value as a float: finite Python and numpy reals pass; bool, str, NaN,
    +-inf and anything else is a UsageError naming what."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise UsageError(f"{what} must be a finite number, got {value!r}")
    return float(value)
