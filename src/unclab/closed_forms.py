"""Closed-form evaluators for the exponential and polynomial families.

These serve as fast production paths for sweeps and searches and as
analytic oracles for the generic series engine.  Everything is written
through tanh / expm1 / ln1p so nothing overflows up to very large alpha.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentMoment, InvalidParameter, NonConvergent
from .families import polynomial_family
from .moments import PI_SQ_OVER_3, phi_moments
from .spectrum import TruncatedSpectrum, build_spectrum
from .special import dilog, ln1p, zeta

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
    dilog_value: float
    mean_cos: float
    var_sin: float
    var_cos: float


@dataclass(frozen=True)
class PolyFamilyEval:
    """Polynomial-family moments: zeta closed forms plus the series xi."""

    alpha: float
    var_lz: float
    var_phi: float
    norm_sq: float


def exp_closed(alpha: float) -> ExpFamilyEval:
    """Evaluate every exponential-family closed form at ``alpha``."""
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    u = math.exp(-alpha)
    one_minus_u2 = -math.expm1(-2.0 * alpha)  # 1 - u^2, exact for tiny alpha
    th = math.tanh(alpha)
    var_lz = 2.0 * u * u / (one_minus_u2 * one_minus_u2)
    li2 = dilog(-u).value
    g = -4.0 * th * ln1p(u)
    var_phi = PI_SQ_OVER_3 + 4.0 * li2 + g
    mean_cos = 2.0 * u / (1.0 + u * u)  # 1 / cosh(alpha), finite for any alpha
    var_sin = th * one_minus_u2 / 2.0
    var_cos = one_minus_u2**3 / (2.0 * (1.0 + u * u) ** 2)
    return ExpFamilyEval(
        alpha=float(alpha),
        var_phi=var_phi,
        var_lz=var_lz,
        g_value=g,
        dilog_value=li2,
        mean_cos=mean_cos,
        var_sin=var_sin,
        var_cos=var_cos,
    )


def exp_state_bound(alpha: float) -> float:
    """(1/2) |1 - 2 pi |f(pi)|^2| for the exponential family.

    Written as u (2 - u + u^2) / ((1+u^2)(1+u)) with u = e^{-alpha}, which
    avoids the 1 - (1 - tiny) cancellation at large alpha.
    """
    if not (alpha > 0.0):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    u = math.exp(-alpha)
    return u * (2.0 - u + u * u) / ((1.0 + u * u) * (1.0 + u))


def _poly_eval(alpha: float) -> tuple[PolyFamilyEval, TruncatedSpectrum]:
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    if alpha <= 1.5:
        raise DivergentMoment(
            f"polynomial family needs alpha > 3/2 for a finite sigma_Lz; "
            f"got alpha={alpha}"
        )
    z_norm = zeta(2.0 * alpha).value
    var_lz = zeta(2.0 * alpha - 2.0).value / z_norm
    spec = build_spectrum(polynomial_family(), alpha, rel_tol=POLY_PHI_REL_TOL)
    _, _, var_phi = phi_moments(spec)
    ev = PolyFamilyEval(
        alpha=float(alpha),
        var_lz=var_lz,
        var_phi=var_phi,
        norm_sq=1.0 / (4.0 * math.pi * z_norm),
    )
    return ev, spec


def poly_closed(alpha: float) -> PolyFamilyEval:
    """Polynomial-family moments at ``alpha``; DivergentMoment for alpha <= 3/2."""
    ev, _ = _poly_eval(alpha)
    return ev


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
