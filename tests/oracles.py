"""Independent reference values that the library itself does not need."""

import math

import numpy as np

from unclab import InvalidParameter, NonConvergent

_PHI_SLACK = 1e-12


def evaluate_state(s, phi: float) -> complex:
    """f(phi) = A sum_{|n|<=N} C_n e^{i n phi} of a TruncatedSpectrum, phi in [-pi, pi]."""
    if not (-math.pi - _PHI_SLACK <= phi <= math.pi + _PHI_SLACK):
        raise InvalidParameter(f"phi must lie in [-pi, pi], got {phi!r}")
    phases = np.exp(1j * phi * np.arange(-s.cutoff, s.cutoff + 1))
    return math.sqrt(s.norm_sq) * complex(np.dot(s.coeffs, phases))


def exp_xi_resummed(alpha: float, k_max: int = 200_000) -> float:
    """xi(alpha) for the exponential family via the single-shell resummation.

        xi = 2 sum_{k>=1} (-1)^k k^{-2} (coth(alpha) + k) e^{-alpha k}

    Terms alternate with decreasing magnitude, so the remainder is bounded
    by the first omitted term; NonConvergent if that bound is still above
    the rounding floor at k_max.
    """
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    coth = 1.0 / math.tanh(alpha)
    terms: list[float] = []
    k = 1
    sign = -1.0
    while k <= k_max:
        t = sign * (coth + k) / (k * k) * math.exp(-alpha * k)
        terms.append(t)
        if abs(t) <= 1e-17 * max(1.0, coth):
            return 2.0 * math.fsum(terms)
        sign = -sign
        k += 1
    raise NonConvergent(
        f"xi resummation: remainder bound {abs(terms[-1]):.3e} above the "
        f"rounding floor after k_max={k_max} terms at alpha={alpha}"
    )
