"""Exception types shared across the package, and the integer check that
raises one.

The command line maps these onto process exit codes: usage errors exit
with 2, data/format errors with 3, numeric errors with 4.
"""

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
