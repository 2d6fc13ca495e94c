"""Exception types shared across the package, and the checks of numeric
arguments that raise them, keyed by the argument: real and integer for a
scalar, reals for an array within its own bounds (MAX_FLOAT asks for
finite elements), floats for an array that may hold nan. A caller checks
only an array's structure."""

import math
import numbers

import numpy as np


class ScatterError(Exception):
    """Base class for every error raised by this package.

    key names the offending parameter when one is to blame, else None.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class DomainError(ScatterError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation was requested exactly on a non-integrable singularity."""


class PoleError(DomainError):
    """A closed-form expression was evaluated at (or too near) a pole."""


class RangeError(ScatterError, ValueError):
    """A numerical control parameter violates its documented constraint."""


class UnsupportedModelError(ScatterError, TypeError):
    """The requested operation has no closed form for this potential model."""


class ConfigError(ScatterError, ValueError):
    """A run configuration is malformed; the message names the offending key."""


class ConvergenceError(ScatterError, RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance.

    Carries the best available estimate so callers can inspect how far the
    computation got.
    """

    def __init__(self, message, estimate=None, error_estimate=None,
                 key=None):
        super().__init__(message, key)
        self.estimate = estimate
        self.error_estimate = error_estimate


# The one check of a numeric argument: its type (a bool is not a number),
# then finiteness, then its bound, each refusal a DomainError keyed by key.
def _number(value, key, kind, what):
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = number and math.isfinite(value)
    except OverflowError:  # an int past the floats
        finite = False
    if number and not finite:
        raise DomainError(f"{key} must be finite, got {value!r}", key=key)
    if not (number and isinstance(value, kind)):
        raise DomainError(f"{key} must be {what}, got {value!r}", key=key)


def real(value, key, positive=False):
    """value as a float if it is a finite real number, > 0 if positive."""
    _number(value, key, numbers.Real, "a real number")
    if positive and not value > 0:
        raise DomainError(f"{key} must be positive, got {value!r}", key=key)
    return float(value)


def integer(value, key, minimum=0):
    """value as an int if it is an integer >= minimum."""
    _number(value, key, numbers.Integral, "an integer")
    if value < minimum:
        raise DomainError(f"{key} must be >= {minimum}, got {value!r}",
                          key=key)
    return int(value)


MAX_FLOAT = float(np.finfo(float).max)


def floats(value, key):
    """value as a float ndarray if numpy can read it as one."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be real numbers, got {value!r}",
                          key=key) from None


def reals(value, key, low=-math.inf, high=math.inf):
    """value as a float ndarray if numpy can convert it and every element
    lies in [low, high], where no nan lies."""
    out = floats(value, key)
    # a nan is the min and the max, and fails both comparisons
    if out.size and not (out.min() >= low and out.max() <= high):
        bad = out.flat[np.argmin((out >= low) & (out <= high))]
        raise DomainError(f"{key} must lie in [{float(low)!r}, "
                          f"{float(high)!r}], got {float(bad)!r}", key=key)
    return out
