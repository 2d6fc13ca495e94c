"""Exception types shared across the package."""


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
