"""Exception types shared across the toolkit.

Numerical failures carry the diagnostic that triggered them (condition
estimate, offending eigenvalue, residual) so callers can report without
re-deriving it.
"""

from __future__ import annotations


class FusionKitError(Exception):
    """Base class for all toolkit errors."""


class NotPSD(FusionKitError):
    """Matrix required to be positive semidefinite is not."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotPD(FusionKitError):
    """Matrix required to be positive definite is not."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class Singular(FusionKitError):
    """A factorization target is numerically singular."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class SingularInformation(Singular):
    """Information matrix cannot be inverted; carries a null-space basis."""

    def __init__(self, message: str, null_space=None, condition: float | None = None):
        super().__init__(message, condition=condition)
        self.null_space = null_space


class NotSampleable(FusionKitError):
    """Prior cannot produce samples (information-only prior)."""


class NoPriorInfo(FusionKitError):
    """Prior cannot supply an information matrix."""


class NoScore(FusionKitError):
    """Prior has no score function; Monte-Carlo prior information unavailable."""


class RouteDisagreement(FusionKitError):
    """Independent algebraic routes to the same matrix disagree beyond tolerance.

    Raised by a pair's factorization, for its routes or its synergy matrices;
    signals a numerical-conditioning problem in the inputs.
    """

    def __init__(self, message: str, max_relative_error: float | None = None):
        super().__init__(message)
        self.max_relative_error = max_relative_error


class FormDisagreement(FusionKitError):
    """Two published forms of one gradient or per-sample information disagree."""

    def __init__(self, message: str, max_relative_error: float | None = None):
        super().__init__(message)
        self.max_relative_error = max_relative_error


class Inadmissible(FusionKitError):
    """Whitened cross-correlation has singular values >= 1."""

    def __init__(self, message: str, sigma_max: float | None = None):
        super().__init__(message)
        self.sigma_max = sigma_max


class NoRoot(FusionKitError):
    """Budget equation has no root on the admissible branch."""

    def __init__(self, message: str, attainable_min: float | None = None):
        super().__init__(message)
        self.attainable_min = attainable_min


class DegenerateBudget(FusionKitError):
    """Budget equation is independent of the multiplier (all singular values at 1)."""

    def __init__(self, message: str, attainable_value: float | None = None):
        super().__init__(message)
        self.attainable_value = attainable_value


class NonFinite(FusionKitError):
    """A function evaluation produced non-finite values."""
