"""Special functions used by the closed-form evaluators.

Real dilogarithm on [-1, 0] and Hurwitz zeta for real s > 1, a > 0 (the
Riemann zeta at a = 1).  Both are pure and carry explicit truncation-error
estimates so callers can check their own budgets.  The dilogarithm is a
fixed Horner polynomial in y = -ln(1 - z), the Bernoulli expansion of DLMF
25.12 ('t Hooft and Veltman, Nucl. Phys. B153 (1979) 365), so it runs no
loop that depends on z.  The polynomial closed forms also read the Riemann
zeta over whole arrays of s, past its pole, from the private ``_zeta_entire``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

_EPS = 2.220446049250313e-16
_TINY = 5e-324  # the smallest subnormal

# Bernoulli numbers B_2, B_4, B_6, B_8, B_10 for the Euler-Maclaurin tail.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)

# zeta: direct terms of the Riemann zeta before the Euler-Maclaurin tail.
_ZETA_N0 = 20
# zeta: number of Euler-Maclaurin correction terms.
_ZETA_EM_TERMS = 4
# zeta: ln(|B_10| / 10! / (eps / 2)), the first omitted correction over half an ulp.
_LN_LEAD = math.log(abs(_BERNOULLI[-1]) / math.factorial(10) / (0.5 * _EPS))

# _zeta_entire: logarithms of the direct terms 1..20 and of the tail boundary
# b = 21, and the Euler-Maclaurin weights B_2j / (2j)! b^(1-2j), j = 1..4.
_LN_TERMS = np.log(np.arange(1.0, _ZETA_N0 + 2.0))
_EM_COEFFS = np.array([
    _BERNOULLI[j] / math.factorial(2 * j + 2) * (_ZETA_N0 + 1.0) ** (-2 * j - 1)
    for j in range(_ZETA_EM_TERMS)
])
_RISING_SHIFTS = np.arange(2.0 * _ZETA_EM_TERMS - 1.0)  # s + 0 .. s + 6

# dilog: B_2k / (2k + 1)!, k = 12 down to 1, the Horner coefficients of P in
# Li2(z) = y - y^2/4 + y^3 P(y^2), y = -ln(1 - z)
_LI2_COEFFS = (
    -5.581785874325009e-21,  # B_24 / 25!
    2.395218621026187e-19,  # B_22 / 23!
    -1.0356517612181247e-17,  # B_20 / 21!
    4.518980029619918e-16,  # B_18 / 19!
    -1.9939295860721074e-14,  # B_16 / 17!
    8.921691020456452e-13,  # B_14 / 15!
    -4.0647616451442256e-11,  # B_12 / 13!
    1.8978869988971e-09,  # B_10 / 11!
    -9.185773074661964e-08,  # B_8 / 9!
    4.72411186696901e-06,  # B_6 / 7!
    -0.0002777777777777778,  # B_4 / 5!
    0.027777777777777776,  # B_2 / 3!
)
# dilog: B_26 / 27!, the coefficient of the first omitted term y^27
_LI2_NEXT = 1.3091507554183213e-22


@dataclass(frozen=True)
class EvalResult:
    """Value of a special function plus an upper bound on truncation error."""

    value: float
    est_error: float
    terms_used: int


def dilog(z: float) -> EvalResult:
    """Real dilogarithm Li2(z) = sum_{k>=1} z^k / k^2 for z in [-1, 0].

    With y = -ln(1 - z), in [-ln 2, 0], Li2(z) = sum_{n>=0} B_n y^(n+1) / (n+1)!
    (DLMF 25.12; 't Hooft and Veltman 1979), which converges for |y| < 2 pi.
    Its odd Bernoulli numbers past B_1 = -1/2 vanish, so it is
    y - y^2/4 + y^3 P(y^2), P a polynomial of 12 terms summed by Horner's rule,
    and the three parts are added by fsum.

    The error estimate is a true bound.  Past y^2 the terms alternate in
    sign, as B_2k does, and fall by (y / 2 pi)^2 < 0.013 per step for
    |y| <= ln 2, so the truncation error is below the first omitted term,
    |B_26| / 27! |y|^27 (below 1e-26).  The three parts share the sign of y,
    so |value| >= |y| with no cancellation, and d Li2 / dy = y / (e^y - 1)
    is at most 2 ln 2 there: the rounding of y by log1p and of the sum
    stays below 4 eps |value|.  A subnormal floor covers the rest.
    """
    if not (-1.0 <= z <= 0.0) or math.isnan(z):
        raise InvalidParameter(f"dilog requires z in [-1, 0], got {z!r}")
    y = -math.log1p(-z)
    w = y * y
    p = 0.0
    for c in _LI2_COEFFS:
        p = p * w + c
    value = math.fsum((y, -0.25 * w, y * w * p))
    err = _LI2_NEXT * abs(y) ** 27 + 4.0 * _EPS * abs(value) + _TINY
    return EvalResult(value, err, len(_LI2_COEFFS) + 2)


def zeta(s: float, a: float = 1) -> EvalResult:
    """Hurwitz zeta sum_{k>=0} (k + a)^-s for real s > 1 and a > 0 (DLMF 25.11).

    Terms below a boundary b are summed directly, then the Euler-Maclaurin
    tail from b with four Bernoulli corrections.  The error estimate is the
    magnitude of the first omitted correction, a true bound because x^-s is
    completely monotone, plus rounding.  The Riemann zeta (a = 1) starts
    the tail at b = 21, after 20 direct terms; any other a starts it where
    that correction, |B_10| / 10! (s)_9 b^(-s-9), is below half an ulp of
    a^-s, a lower bound on the value, so the value is accurate to rounding
    at a cost that does not grow with a.
    """
    if math.isnan(s) or s <= 1.0:
        raise InvalidParameter(
            f"zeta requires s > 1 (s <= 1 is the divergent regime), got {s!r}"
        )
    if not (0.0 < a < math.inf):
        raise InvalidParameter(f"zeta requires a finite a > 0, got {a!r}")
    if s == math.inf:  # only a^-s can survive
        return EvalResult(a**-s, 0.0, 1)
    if a == 1:
        n0 = _ZETA_N0
    else:  # in logarithms, which neither overflow nor underflow
        ln_rising = math.lgamma(s + 9.0) - math.lgamma(s) if s < 1e300 else 9.0 * math.log(s)
        ln_a = math.log(a)
        ln_b = ln_a + (_LN_LEAD + ln_rising - 9.0 * ln_a) / (s + 9.0)
        n0 = max(0, math.ceil(math.exp(ln_b) - a))
    direct = math.fsum([(a + k) ** (-s) for k in range(n0)])
    boundary = float(a + n0)
    # integral term + half-weight at the boundary
    tail = boundary ** (1.0 - s) / (s - 1.0) + 0.5 * boundary ** (-s)
    corrections = []
    # s (s+1) ... (s+2j) b^(-s-2j-1), kept as one product so that neither
    # the rising factorial overflows nor the power underflows on its own
    scaled = s * boundary ** (-s - 1.0)
    fact = 2.0
    err_term = 0.0
    for j, b2j in enumerate(_BERNOULLI):
        if scaled == 0.0:  # so is every later term
            break
        term = b2j / fact * scaled
        if j < _ZETA_EM_TERMS:
            corrections.append(term)
        else:
            err_term = abs(term)
            break
        scaled *= (s + 2 * j + 1) * (s + 2 * j + 2) / (boundary * boundary)
        fact *= (2 * j + 3) * (2 * j + 4)
    value = direct + tail + math.fsum(corrections)
    # relative rounding, and an absolute floor for subnormal terms
    err = err_term + 4.0 * _EPS * abs(value) + (n0 + 8) * _TINY
    return EvalResult(value, err, n0 + _ZETA_EM_TERMS)


def _zeta_entire(s) -> np.ndarray:
    """zeta(s) - 1/(s - 1) elementwise over an array of real s >= 0.

    The entire part of the Riemann zeta, Euler's gamma at s = 1, by the sum
    ``zeta`` takes at a = 1: the 20 direct terms, then the Euler-Maclaurin
    tail from b = 21 with four Bernoulli corrections, whose integral term
    b^(1-s) / (s - 1) loses its pole as (b^(1-s) - 1) / (s - 1).  The sum
    continues zeta analytically below s = 1, and its first omitted correction,
    |B_10| / 10! (s)_9 b^(-s-9), is below 5e-16 for every s >= 0 (largest
    near s = 0.9).  Each element is reduced on its own, so a value does not
    depend on the array it sits in.
    """
    s = np.asarray(s, dtype=float)
    # k^-s, k = 1..21, held at e^-700 = 1e-304 or more: far below every
    # value, and normal numbers, which exp returns much faster than 0
    powers = np.exp(np.maximum(np.multiply.outer(s, -_LN_TERMS), -700.0))
    u = np.where(s == 1.0, 1e-300, 1.0 - s)  # expm1(u ln b) / u is ln b at a tiny u
    integral = np.expm1(_LN_TERMS[-1] * u) / -u
    # (s)_1, (s)_3, (s)_5, (s)_7 by one running product; past s = 1e3 every
    # b^-s is 0, and the clip keeps the product finite
    rising = np.cumprod(np.minimum(s, 1e3)[..., None] + _RISING_SHIFTS, axis=-1)[..., ::2]
    tail = ((rising * _EM_COEFFS).sum(axis=-1) + 0.5) * powers[..., -1] + integral
    return powers[..., :-1].sum(axis=-1) + tail
