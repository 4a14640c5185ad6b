"""Exception types shared across the library."""

from __future__ import annotations


class UncLabError(Exception):
    """Base class for all library-specific errors."""


class InvalidParameter(UncLabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class NonConvergent(UncLabError):
    """A series or search did not meet its tolerance within its budget."""


class DegenerateState(UncLabError):
    """All Fourier coefficients vanish; the state cannot be normalized."""


class DivergentMoment(UncLabError):
    """The requested moment does not exist (non-summable n^2 |C_n|^2)."""


class ToleranceNotMet(UncLabError):
    """Quadrature would exceed its evaluation cap before meeting its tolerance."""


class NotAttainable(UncLabError):
    """No alpha with uncertainty product below epsilon was found.

    This is the expected outcome for families violating the dominance
    condition, not a failure of the search.  ``best_product`` is the
    smallest product seen anywhere on the search path (profiles need not
    be monotone); ``edge_product`` is the value at the search budget's
    edge, i.e. the level the product settles toward for large alpha.
    """

    def __init__(
        self,
        message: str,
        best_alpha: float,
        best_product: float,
        edge_alpha: float,
        edge_product: float,
    ):
        super().__init__(message)
        self.best_alpha = best_alpha
        self.best_product = best_product
        self.edge_alpha = edge_alpha
        self.edge_product = edge_product


class NoBracket(UncLabError):
    """No sign change of product(alpha) - target inside the search window."""

    def __init__(self, message: str, alpha_lo: float, alpha_hi: float):
        super().__init__(message)
        self.alpha_lo = alpha_lo
        self.alpha_hi = alpha_hi
