"""Exception types shared across the package."""

from __future__ import annotations


class GfaberError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(GfaberError, ArithmeticError):
    """An iterative evaluation failed to converge within its budget."""


class SeriesError(ConvergenceError):
    """A power series or continued fraction hit its term cap.

    Attributes
    ----------
    name : str
        Name of the function being evaluated.
    args_used : tuple
        The arguments that triggered the failure.
    """

    def __init__(self, name, args_used):
        self.name = name
        self.args_used = tuple(args_used)
        super().__init__(
            f"{name} did not converge within the term cap for arguments "
            f"{self.args_used}"
        )


class QuadratureError(ConvergenceError):
    """Adaptive integration hit its subdivision cap.

    Attributes
    ----------
    partial : float
        Best available estimate of the integral.
    error_estimate : float
        Accumulated error estimate for ``partial``.
    intervals : int
        Number of subintervals examined before giving up.
    """

    def __init__(self, partial, error_estimate, intervals):
        self.partial = partial
        self.error_estimate = error_estimate
        self.intervals = intervals
        super().__init__(
            f"integration did not reach the requested tolerance after "
            f"{intervals} subintervals (partial result {partial!r}, "
            f"error estimate {error_estimate!r})"
        )


class FitConvergenceError(ConvergenceError):
    """A curve fit failed to produce a usable minimizer."""


class NonFiniteResidualError(GfaberError, ArithmeticError):
    """The least-squares residual became non-finite during iteration.

    Attributes
    ----------
    params : tuple
        Parameter vector at which the residual was non-finite.
    """

    def __init__(self, params):
        self.params = tuple(params)
        super().__init__(
            f"residual evaluation returned non-finite values at parameters "
            f"{self.params}"
        )


class OverflowLogValue(GfaberError, OverflowError):
    """A result exceeds the double range; its natural log is reported.

    Attributes
    ----------
    log_value : float
        Natural logarithm of the (positive) out-of-range result.
    """

    def __init__(self, name, log_value):
        self.log_value = log_value
        super().__init__(
            f"{name} overflows a double; log of the result is {log_value!r}"
        )


class NotTabulatedError(GfaberError, LookupError):
    """Requested a built-in constant that is not tabulated."""
