"""Closed-form evaluators for the exponential and polynomial families.

These serve as fast production paths for sweeps and searches and as
analytic oracles for the generic series engine.  Everything is written
through tanh / expm1 / log1p so nothing overflows up to very large alpha.

Exponential family C_n = e^{-alpha |n|}  (u = e^{-alpha}):
    sigma_Lz^2 = 2 u^2 / (1 - u^2)^2            [= 1 / (2 sinh^2 alpha)]
    sigma_phi^2 = pi^2/3 + 4 Li2(-u) + g(alpha)
    g(alpha)   = -4 tanh(alpha) ln(1 + u)
    <cos phi>  = 1 / cosh(alpha) = 2 u / (1 + u^2)
    sigma_sin^2 = tanh(alpha) (1 - u^2) / 2
    sigma_cos^2 = (1 - u^2)^3 / (2 (1 + u^2)^2)   (no cancellation at small alpha)
    2 pi |f(pi)|^2 = (1-u)^3 / ((1+u^2)(1+u))

Polynomial family C_n = |n|^{-alpha}, C_0 = 0:
    |A|^2       = 1 / (4 pi zeta(2 alpha))
    sigma_Lz^2  = zeta(2 alpha - 2) / zeta(2 alpha)   (alpha > 3/2 only)
    sigma_phi^2 has no closed form; it is delegated to the series engine.

The truncation tails of both families are closed forms too, and the
series engine (spectrum.build_spectrum) chooses their windows from them:
sum_{|n|>N} |C_n|^2 = 2 q^{N+1} / (1 - q), q = e^{-2 alpha}, or
2 zeta(2 alpha, N+1); the n^2-weighted tail is a geometric n^2 sum, or
2 zeta(2 alpha - 2, N+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentMoment, InvalidParameter
from .families import polynomial_family
from .moments import PI_SQ_OVER_3, _state_bound, phi_moments
from .spectrum import _riemann_zeta, build_spectrum
from .special import dilog

# Window tolerance for the polynomial sigma_phi^2 series; the xi sum
# converges like N^{1-2 alpha} so this stays cheap down to alpha = 1.51.
POLY_PHI_REL_TOL = 1e-8


@dataclass(frozen=True)
class ExpFamilyEval:
    """Closed-form moment set of the exponential family at one alpha."""

    alpha: float
    var_phi: float
    var_lz: float
    g_value: float
    mean_cos: float
    var_sin: float
    var_cos: float
    state_bound: float  # (1/2) |1 - 2 pi |f(pi)|^2|


@dataclass(frozen=True)
class PolyFamilyEval:
    """Polynomial-family moments: zeta closed forms plus the series xi."""

    alpha: float
    var_lz: float
    var_phi: float
    state_bound: float  # (1/2) |1 - 2 pi |f(pi)|^2| of the series window


def exp_closed(alpha: float) -> ExpFamilyEval:
    """Evaluate every exponential-family closed form at ``alpha``."""
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    u = math.exp(-alpha)
    one_minus_u2 = -math.expm1(-2.0 * alpha)  # 1 - u^2, exact for tiny alpha
    th = math.tanh(alpha)
    var_lz = 2.0 * u * u / (one_minus_u2 * one_minus_u2)
    li2 = dilog(-u).value
    g = -4.0 * th * math.log1p(u)
    var_phi = PI_SQ_OVER_3 + 4.0 * li2 + g
    mean_cos = 2.0 * u / (1.0 + u * u)  # 1 / cosh(alpha), finite for any alpha
    var_sin = th * one_minus_u2 / 2.0
    var_cos = one_minus_u2**3 / (2.0 * (1.0 + u * u) ** 2)
    # (1/2) |1 - 2 pi |f(pi)|^2| as u (2 - u + u^2) / ((1+u^2)(1+u)): no
    # 1 - (1 - tiny) cancellation at large alpha
    state_bound = u * (2.0 - u + u * u) / ((1.0 + u * u) * (1.0 + u))
    return ExpFamilyEval(
        alpha=float(alpha),
        var_phi=var_phi,
        var_lz=var_lz,
        g_value=g,
        mean_cos=mean_cos,
        var_sin=var_sin,
        var_cos=var_cos,
        state_bound=state_bound,
    )


def _poly_eval(alpha: float) -> PolyFamilyEval:
    """Polynomial-family moments at ``alpha``; DivergentMoment for alpha <= 3/2."""
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    if alpha <= 1.5:
        raise DivergentMoment(
            f"polynomial family needs alpha > 3/2 for a finite sigma_Lz; "
            f"got alpha={alpha}"
        )
    # the build's mass and n^2 tail tests read the same two totals
    var_lz = _riemann_zeta(2.0 * alpha - 2.0) / _riemann_zeta(2.0 * alpha)
    spec = build_spectrum(polynomial_family(), alpha, rel_tol=POLY_PHI_REL_TOL)
    _, _, var_phi = phi_moments(spec)
    return PolyFamilyEval(
        alpha=float(alpha),
        var_lz=var_lz,
        var_phi=var_phi,
        state_bound=_state_bound(spec),
    )


poly_closed = _poly_eval  # the public name of the same function object
