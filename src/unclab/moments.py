"""Angle, angular-momentum and trig-operator moments of a truncated state.

Everything here evaluates the coefficient-space series directly; the
quadrature module provides the independent cross-check.  Off-diagonal
double sums are folded into shells k = n - m, S_k = sum_n conj(C_n) C_{n+k},
and one compensated reduction over k.  Every function here reads the
state's ``s.shells``, one FFT autocorrelation of the window made on first
read.  Its error is absolute, about eps * sum |C_n|^2 on every shell, not
relative to |S_k|: the far shells of a fast-decaying state are rounding
noise at that level.  Summed with weights 1/k^2 (xi) and 1/k
(<phi>), it grows by at most pi^2/6 and ln(2N) + 1.

Sign conventions, fixed by requiring agreement with quadrature of the
explicit state (and with the uniform/two-mode closed values):

    <phi>      = 4 pi |A|^2 sum_{k>=1} (-1)^k Im(S_k) / k
    xi         = 2        sum_{k>=1} (-1)^k Re(S_k) / k^2
    <phi^2>    = pi^2/3 + 4 pi |A|^2 xi
    <cos phi>  = 2 pi |A|^2 Re(S_1),   <sin phi> = -2 pi |A|^2 Im(S_1)
    <cos^2>    = 1/2 + pi |A|^2 Re(S_2), <sin^2> = 1 - <cos^2>

The negative-k half of each shell sum is folded in through S_{-k} =
conj(S_k), which keeps the Hermitian-form results exactly real instead of
leaving a rounding-level imaginary part to assert away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentMoment
from .spectrum import TruncatedSpectrum, boundary_density

PI_SQ_OVER_3 = math.pi ** 2 / 3.0
HR_BOUND_SQ = 0.25  # (hbar/2)^2 with hbar = 1


@dataclass(frozen=True)
class MomentReport:
    """Angle and angular-momentum moments of one state (hbar = 1)."""

    mean_phi: float
    second_phi: float
    var_phi: float
    mean_lz: float
    second_lz: float
    var_lz: float
    xi: float
    product_sq: float      # var_phi * var_lz
    hr_bound_sq: float     # 0.25, the naive Heisenberg-Robertson square
    state_bound: float     # (1/2) |1 - 2 pi |f(pi)|^2|


@dataclass(frozen=True)
class TrigReport:
    """sin/cos operator moments and their uncertainty-relation residuals."""

    mean_sin: float
    mean_cos: float
    var_sin: float
    var_cos: float
    sin_relation_residual: float  # var_lz * var_sin - <cos>^2 / 4
    cos_relation_residual: float  # var_lz * var_cos - <sin>^2 / 4


def _phi_from_shells(s: TruncatedSpectrum) -> tuple[float, float, float, float]:
    """(<phi>, <phi^2>, var_phi, xi) from the state's shells S_1 .. S_{2N}."""
    shells = s.shells
    if shells.size == 0:
        return 0.0, PI_SQ_OVER_3, PI_SQ_OVER_3, 0.0
    k = np.arange(1, shells.size + 1, dtype=float)
    signs = np.where(np.arange(1, shells.size + 1) % 2 == 0, 1.0, -1.0)
    four_pi_a2 = 4.0 * math.pi * s.norm_sq
    xi = 2.0 * math.fsum(signs * shells.real / (k * k))
    mean = four_pi_a2 * math.fsum(signs * shells.imag / k)
    second = PI_SQ_OVER_3 + four_pi_a2 * xi
    return mean, second, second - mean * mean, xi


def _state_bound(s: TruncatedSpectrum) -> float:  # (1/2) |1 - 2 pi |f(pi)|^2|
    return 0.5 * abs(1.0 - 2.0 * math.pi * boundary_density(s))


def xi_sum(s: TruncatedSpectrum) -> float:
    """The off-diagonal double series sum_{m != n} C_m* C_n (-1)^{n-m}/(n-m)^2.

    Real by Hermiticity of the kernel; evaluated shell-by-shell with an
    exact compensated reduction.
    """
    return _phi_from_shells(s)[3]


def phi_moments(s: TruncatedSpectrum) -> tuple[float, float, float]:
    """(<phi>, <phi^2>, var_phi) from the coefficient series."""
    return _phi_from_shells(s)[:3]


def lz_moments(s: TruncatedSpectrum) -> tuple[float, float, float]:
    """(<L_z>, <L_z^2>, var_lz) in units of hbar and hbar^2.

    Values are exact moments of the truncated state (Parseval duals of the
    quadrature route); ``s.tail_bound`` records how much n^2 |C_n|^2 mass
    the truncation dropped from the ideal family member.  Raises
    DivergentMoment when that series does not exist at all.
    """
    if s.lz_divergent:
        raise DivergentMoment(
            f"family {s.family_name!r} at alpha={s.alpha}: sum n^2 |C_n|^2 "
            "diverges, sigma_Lz does not exist"
        )
    two_pi_a2 = 2.0 * math.pi * s.norm_sq
    mean = two_pi_a2 * s.sum_n1
    second = two_pi_a2 * s.sum_n2
    return mean, second, second - mean * mean


def uncertainty_report(s: TruncatedSpectrum) -> MomentReport:
    """Full angle/angular-momentum moment set plus both lower bounds."""
    mean_phi, second_phi, var_phi, xi = _phi_from_shells(s)
    mean_lz, second_lz, var_lz = lz_moments(s)
    return MomentReport(
        mean_phi=mean_phi,
        second_phi=second_phi,
        var_phi=var_phi,
        mean_lz=mean_lz,
        second_lz=second_lz,
        var_lz=var_lz,
        xi=xi,
        product_sq=var_phi * var_lz,
        hr_bound_sq=HR_BOUND_SQ,
        state_bound=_state_bound(s),
    )


def trig_report(s: TruncatedSpectrum) -> TrigReport:
    """sin/cos moments via the n <-> n+-1, n+-2 coefficient couplings.

    For states whose angular-momentum variance diverges the residuals are
    reported as +inf (the trig relations hold trivially).
    """
    pi_a2 = math.pi * s.norm_sq
    # S_1 and S_2; a single mode (N = 0) has no shells
    s1, s2 = map(complex, s.shells[:2]) if s.cutoff else (0j, 0j)
    mean_cos = 2.0 * pi_a2 * s1.real
    mean_sin = -2.0 * pi_a2 * s1.imag
    cos_sq = 0.5 + pi_a2 * s2.real
    sin_sq = 0.5 - pi_a2 * s2.real
    var_cos = cos_sq - mean_cos * mean_cos
    var_sin = sin_sq - mean_sin * mean_sin
    if s.lz_divergent:
        sin_res = math.inf
        cos_res = math.inf
    else:
        _, _, var_lz = lz_moments(s)
        sin_res = var_lz * var_sin - 0.25 * mean_cos * mean_cos
        cos_res = var_lz * var_cos - 0.25 * mean_sin * mean_sin
    return TrigReport(
        mean_sin=mean_sin,
        mean_cos=mean_cos,
        var_sin=var_sin,
        var_cos=var_cos,
        sin_relation_residual=sin_res,
        cos_relation_residual=cos_res,
    )
