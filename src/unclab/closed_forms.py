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

Polynomial family C_n = |n|^{-alpha}, C_0 = 0 (f is the normalized state):
    |A|^2       = 1 / (4 pi zeta(2 alpha))
    sigma_Lz^2  = zeta(2 alpha - 2) / zeta(2 alpha)   (+inf for alpha <= 3/2)
    f(phi)      = 2 A R(phi),  R(phi) = Re Li_alpha(e^{i phi}) = sum_{n>=1} n^-alpha cos(n phi)
    R(pi t)     = a pi^(alpha-1) t^(alpha-1) + sum_j b_j pi^(2j) t^(2j)  for 0 < t <= 1,
    a = pi / (2 cos(pi alpha / 2) Gamma(alpha)),  b_j = (-1)^j zeta(alpha - 2j) / (2j)!
                  (DLMF 25.12.12; a and b_((m-1)/2) have opposite poles at odd alpha = m)
    sigma_phi^2 = (2 pi^2 / zeta(2 alpha)) int_0^1 t^2 R(pi t)^2 dt   (<phi> = 0),
                  a Gram sum of power integrals
    2 pi |f(pi)|^2 = 2 eta(alpha)^2 / zeta(2 alpha),  eta(alpha) = (1 - 2^(1-alpha)) zeta(alpha)

The truncation tails of both families are closed forms too, and the
series engine (spectrum.build_spectrum) chooses their windows from them:
sum_{|n|>N} |C_n|^2 = 2 q^{N+1} / (1 - q), q = e^{-2 alpha}, or
2 zeta(2 alpha, N+1); the n^2-weighted tail is a geometric n^2 sum, or
2 zeta(2 alpha - 2, N+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentMoment, InvalidParameter
from .moments import PI_SQ_OVER_3
from .special import _zeta_entire, dilog

_EULER_GAMMA = 0.5772156649015329
# b_j kept, j < _NJ: past j = alpha / 2 they fall like 4^-j, so the last is
# about 4^-32 = 5e-20 of the first.  The pole pair (see _poly_moments) sits at
# J = floor(alpha / 2); for J >= _NJ it lies past the kept terms and below 1e-55.
_NJ = 32
_J = np.arange(_NJ)
_TAYLOR = np.array(  # (-1)^j pi^(2j) / (2j)!, so b_j pi^(2j) = _TAYLOR[j] zeta(alpha - 2j)
    [(-1) ** j * math.pi ** (2 * j) / math.factorial(2 * j) for j in range(_NJ)]
)
_HILBERT = 1.0 / (2.0 * np.add.outer(_J, _J) + 3.0)  # int_0^1 t^(2 + 2j + 2l) dt
# Power series in eps of the pair, with eps^k, k = 1..56: their terms fall
# like 2^-k / k for |eps| <= 1, below 3e-19 at k = 56.
_K = np.arange(1.0, 57.0)
_ZETA_K = np.append(np.nan, _zeta_entire(_K[1:]) + 1.0 / (_K[1:] - 1.0))  # zeta(k)
# h_m(eps) = eps ln pi + ln((pi eps / 2) / sin(pi eps / 2)) - ln(Gamma(m + eps) / Gamma(m)),
# one row of eps^k coefficients per J = (m - 1) / 2.  From
#   ln((pi eps / 2) / sin(pi eps / 2)) = sum_(k >= 1) zeta(2k) (eps / 2)^2k / k    (DLMF 4.19)
#   ln Gamma(1 + eps) = -log1p(eps) + eps (1 - gamma)
#                       + sum_(k >= 2) (-1)^k (zeta(k) - 1) eps^k / k              (DLMF 5.7.3)
#   ln(Gamma(m + eps) / Gamma(m)) = ln Gamma(1 + eps) + sum_(1 <= i < m) log1p(eps / i)
# the coefficient of eps^k, with S_k = sum_(2 <= i < m) i^-k, is
#   k = 1: ln pi - 1 + gamma - S_1;  k >= 2: (1 - eta(k)) / k for even k,
#   (zeta(k) - 1) / k for odd k, plus (-1)^k S_k / k.
# The log1p(eps) terms cancel for m >= 3; row 0 (m = 1) leaves its
# + log1p(eps) out, as a series it converges too slowly near eps = 1.  The
# last row, for no pair, is 0.
_H_TABLE = np.zeros((_NJ + 1, _K.size))
_H_TABLE[:_NJ] = np.where(
    _K % 2 == 0, 1.0 - (1.0 - 2.0 ** (1.0 - _K)) * _ZETA_K, _ZETA_K - 1.0
) / _K
_H_TABLE[:_NJ, 0] = math.log(math.pi) - 1.0 + _EULER_GAMMA
_H_TABLE[1:_NJ] += (-1.0) ** _K / _K * np.cumsum(  # S_k, m = 3, 5, ..: every other i
    np.arange(2.0, 2.0 * _NJ)[:, None] ** -_K, axis=0
)[::2]
# Per table row J (the last: no pair): the columns past J, at J, and at J + 1;
# P = (-1)^J pi^(m-1) / (m-1)!; and q = m + 2l + 2 (see _poly_moments)
_ROWS = np.arange(_NJ + 1.0)[:, None]
_AFTER, _AT, _NEXT = _J > _ROWS, _J == _ROWS, _J == _ROWS + 1.0
_PAIR_P = np.append(_TAYLOR, 0.0)
_PAIR_Q = 2.0 * (_ROWS + _J) + 3.0
_EVEN_SHIFTS = np.array([0.0, -2.0])  # the zeta(2 alpha), zeta(2 alpha - 2) columns
_LN_2 = math.log(2.0)
_TWO_PI_SQ = 2.0 * math.pi**2
# Past this alpha, every alpha-dependent part of var_lz, var_phi and the
# state bound is below 2^-9900 of them, so they are evaluated here; nothing
# overflows.
_ALPHA_FLAT = 1e4
# Rows per array evaluation: a block's largest temporaries, the Gram
# products of a quarter of _NJ, then stay near 64 KB each.
_BLOCK = 32


def _pair_scalars(alpha: float) -> tuple[float, float, float, float, float, float]:
    """The per-alpha scalars of _poly_moments: its table row (min(J, _NJ)),
    eps, the reflection factor at J + 1, log1p(eps) if m = 1, the pair's self
    integral 2 / (r (r + eps) (r + 2 eps)), r = 2m + 1, and 1 - 2^(1 - alpha)."""
    half = math.floor(0.5 * alpha)
    eps = alpha - (2.0 * half + 1.0)
    row = min(half, _NJ)
    # -cos(pi eps / 2) 2 (2 pi)^(eps - 2) Gamma(2 - eps), the cosine as
    # sin(pi (1 - |eps|) / 2): exactly 0 at even alpha, where zeta(-2k) = 0
    first = (-math.sin(0.5 * math.pi * (1.0 - abs(eps)))
             * 2.0 * (2.0 * math.pi) ** (eps - 2.0) * math.gamma(2.0 - eps))
    r = 4.0 * row + 3.0
    return (row, eps, first, math.log1p(eps) if half == 0 else 0.0,
            2.0 / (r * (r + eps) * (r + 2.0 * eps)), -math.expm1((1.0 - alpha) * _LN_2))


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
    """Closed-form moment set of the polynomial family at one alpha."""

    alpha: float
    var_lz: float
    var_phi: float
    state_bound: float  # (1/2) |1 - 2 pi |f(pi)|^2|


def exp_closed(alpha: float) -> ExpFamilyEval:
    """Evaluate every exponential-family closed form at ``alpha``."""
    if not (alpha > 0.0):
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


def _poly_moments(alphas: list[float]) -> list[list[float]]:
    """(var_lz, var_phi, state_bound) of the polynomial family at each alpha > 1/2.

    The array work runs on one row per alpha and every reduction along a
    row, so a value does not depend on the other alphas it is evaluated with.
    zeta(2 alpha) and zeta(2 alpha - 2), for |A|^2 and sigma_Lz^2, are two
    more columns of the one _zeta_entire call that gives zeta(alpha - 2j).

    R(pi t) = a' t^(alpha-1) + sum_j b'_j t^2j with a' = a pi^(alpha-1) and
    b'_j = b_j pi^2j (module docstring).  Write alpha = m + eps, m = 2J + 1
    odd, eps in [-1, 1) (exact).  The terms a' t^(alpha-1) and b'_J t^(m-1)
    carry opposite poles at eps = 0, so they are paired as
    c t^(m-1) (t^eps - 1) / eps + (a' + b'_J) t^(m-1), with the finite
    c = a' eps = -P e^h and a' + b'_J = P (Z - expm1(h) / eps), where
    P = (-1)^J pi^(m-1) / (m-1)!, Z = zeta(1 + eps) - 1/eps and h as in
    _H_TABLE.  Past J the arguments alpha - 2j are negative and reflect to
    zeta(alpha - 2j) = (-1)^(j-J) cos(pi eps / 2) 2 (2 pi)^-x Gamma(x) zeta(x),
    x = 2j + 1 - alpha > 1 (DLMF 25.4.2), whose Gamma factor follows by
    recurrence in j.
    """
    row, eps, first, log_m1, self_w, eta_factor = np.array(
        [_pair_scalars(a) for a in alphas]
    ).T
    row = row.astype(np.intp)
    after, pair = _AFTER[row], _AT[row]
    # zeta(alpha - 2j) up to J, zeta(2j + 1 - alpha) past it; Z at the pair
    column = np.array(alphas)[:, None]
    d = column - 2.0 * _J
    x = np.where(after, 1.0 - d, d)
    s_even = 2.0 * column + _EVEN_SHIFTS  # 2 alpha, 2 alpha - 2
    z_all = _zeta_entire(np.concatenate((x, s_even), axis=1))
    z = z_all[:, :_NJ]
    # zeta(2 alpha - 2) = +inf at and below alpha = 3/2, where its series diverges
    poles = np.divide(1.0, s_even - 1.0, out=np.full(s_even.shape, np.inf), where=s_even > 1.0)
    zeta_2a, zeta_2a_minus_2 = (z_all[:, _NJ:] + poles).T
    x1 = x - 1.0
    zeta = z + 1.0 / np.where(pair, 1.0, x1)  # its pair column is replaced below
    # the reflection factors past J by recurrence from ``first``
    step = np.where(_NEXT[row], first[:, None], x1 * (x1 - 1.0) / (-4.0 * np.pi**2))
    b = _TAYLOR * zeta * np.cumprod(np.where(after, step, 1.0), axis=1)
    # the pole pair; at eps = 0, expm1(h) / eps is h'(0), the first coefficient
    # plus the 1 of log1p(eps) in row 0
    h = (eps[:, None] ** _K * _H_TABLE[row]).sum(axis=1) + log_m1
    ratio = np.divide(np.expm1(h), eps, out=_H_TABLE[row, 0] + (row == 0), where=eps != 0.0)
    p = _PAIR_P[row]
    c = -p * np.exp(h)
    z_pair = np.where(pair, z, 0.0).sum(axis=1)
    b = np.where(pair, (p * (z_pair - ratio))[:, None], b)
    # int_0^1 t^2 R(pi t)^2 dt: t^(m-1) (t^eps - 1) / eps has the integrals
    # -1 / (q (q + eps)) against t^2l, q = m + 2l + 2, and self_w against itself
    q = _PAIR_Q[row]
    cross = (b / (q * (q + eps[:, None]))).sum(axis=1)
    # the Gram sum by quarters of 8 j: 64 KB temporaries, which stay inside
    # malloc's top pad, where whole (rows, _NJ, _NJ) products may be returned
    # to the system at every free and faulted back in.  numpy sums a row's
    # 1024 products by halves of halves, so this tree keeps the sum's bits
    q = [(b[:, j:j + 8, None] * b[:, None, :] * _HILBERT[j:j + 8]).sum(axis=(1, 2))
         for j in range(0, _NJ, 8)]
    gram = (q[0] + q[1]) + (q[2] + q[3])
    var_phi = (gram + c * (c * self_w - 2.0 * cross)) * _TWO_PI_SQ / zeta_2a
    # eta(alpha) = (1 - 2^(1 - alpha)) zeta(alpha), zeta(alpha) from column 0;
    # at alpha = 1 that is 0 * inf, whose limit is ln 2
    at_1 = column[:, 0] == 1.0
    pole = 1.0 / np.where(at_1, 1.0, column[:, 0] - 1.0)
    eta = np.where(at_1, _LN_2, eta_factor * (z[:, 0] + pole))
    state_bound = 0.5 * abs(1.0 - 2.0 * eta * eta / zeta_2a)
    return np.column_stack((zeta_2a_minus_2 / zeta_2a, var_phi, state_bound)).tolist()


def _poly_grid(alphas) -> list[PolyFamilyEval]:
    """Polynomial-family moments at each alpha of the sequence ``alphas``,
    evaluated in array blocks of _BLOCK rows.  var_lz is +inf at and below
    alpha = 3/2, where sum n^2 |C_n|^2 diverges; at and below 1/2 the state
    is not normalizable and var_phi and state_bound are NaN."""
    for alpha in alphas:
        if not (alpha > 0.0):
            raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    flat = [min(a, _ALPHA_FLAT) for a in alphas if a > 0.5]
    moments = iter([
        row
        for i in range(0, len(flat), _BLOCK)
        for row in _poly_moments(flat[i : i + _BLOCK])
    ])
    lost = (math.inf, math.nan, math.nan)  # no normalizable state
    return [PolyFamilyEval(float(a), *(next(moments) if a > 0.5 else lost)) for a in alphas]


def _poly_eval(alpha: float) -> PolyFamilyEval:
    """Polynomial-family moments at ``alpha``; DivergentMoment for alpha <= 3/2."""
    (rec,) = _poly_grid([alpha])
    if math.isinf(rec.var_lz):
        raise DivergentMoment(
            f"polynomial family needs alpha > 3/2 for a finite sigma_Lz; got alpha={alpha}"
        )
    return rec


poly_closed = _poly_eval  # the public name of the same function object
