#!/usr/bin/env python3
"""Regenerate tests/poly_reference.csv: polynomial-family references in mpmath.

For C_n = |n|^-alpha (C_0 = 0) the state is f(phi) = 2 A Re Li_alpha(e^{i phi})
with |A|^2 = 1 / (4 pi zeta(2 alpha)), so, with phi = pi t,

    var_lz      = zeta(2 alpha - 2) / zeta(2 alpha),
    var_phi     = (2 pi^2 / zeta(2 alpha)) int_0^1 t^2 R(pi t)^2 dt,
    state_bound = |1 - 2 eta(alpha)^2 / zeta(2 alpha)| / 2,

where R = Re Li_alpha(e^{i phi}).  R is expanded by DLMF 25.12.12,

    R(pi t) = a pi^(alpha-1) t^(alpha-1) + sum_j b_j pi^(2j) t^(2j),
    a = pi / (2 cos(pi alpha / 2) Gamma(alpha)),  b_j = (-1)^j zeta(alpha-2j) / (2j)!,

at an odd integer alpha = m by its limit DLMF 25.12.13, where the pair
a t^(m-1+eps) + b_((m-1)/2) t^(m-1) becomes c t^(m-1) (H_(m-1) - ln(pi t)),
c = (-1)^((m-1)/2) pi^(m-1) / (m-1)!.  Every integral is then a power
integral in closed form.  This is the textbook form, not the library's
pole-paired float64 form, and runs at 60 working digits, well above the 24
the 1/eps^2 poles cost at alpha = m +- 1e-12.  Two alphas are also checked
against mpmath quadrature of polylog itself.

Run from the repository root (takes a few minutes):

    python tests/make_poly_reference.py
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = 60
DIGITS = 30  # written to the table
OUT = Path(__file__).with_name("poly_reference.csv")


def _points() -> list[tuple[float, str]]:
    """(alpha, label) pairs: fig2 rows, points around every odd and even
    integer up to 50, far or awkward alphas, and alphas in (1/2, 3/2], where
    the state is normalizable but sigma_Lz diverges."""
    fig2 = np.geomspace(1.6, 50.0, 160)
    pts = [(float(fig2[i]), "fig2") for i in [*range(0, 160, 8), 159]]
    for n in range(2, 51):
        kind = "odd" if n % 2 else "even"
        pts.append((float(n), kind))
        for k in range(1, 13):
            pts += [(n - 10.0**-k, kind), (n + 10.0**-k, kind)]
    extra = (1.5000001, 1.51, 1.75, 2.5, 60.0, 79.0, 81.0, 150.0, 1000.0, 8192.0, 1e4)
    pts += [(a, "extra") for a in extra]
    below = [0.51, 0.6, 0.75, 1.0, 1.2, 1.4, 1.5]
    below += [1.0 + s * 10.0**-k for k in range(1, 13) for s in (-1, 1)]  # 0.9 .. 1.1
    pts += [(a, "below") for a in below]
    return pts


def _gram(coef: list, powers: list) -> mp.mpf:
    """int_0^1 t^2 (sum_i coef_i t^powers_i)^2 dt."""
    total = mp.mpf(0)
    for ci, pi_ in zip(coef, powers):
        for cj, pj in zip(coef, powers):
            total += ci * cj / (pi_ + pj + 3)
    return total


# Enough j that the dropped b_j pi^2j lie below 10^-(DIGITS + 10): past
# j = alpha / 2 they fall at least like 6 * 4^-j, and faster before.
JMAX = int((DIGITS + 11) * 1.661) + 1


def var_phi(alpha: float) -> mp.mpf:
    a = mp.mpf(alpha)
    pi = mp.pi
    odd = a == int(a) and int(a) % 2 == 1
    m = int(a) if odd else None
    coef, powers = [], []
    for j in range(JMAX):
        if odd and 2 * j == m - 1:
            continue
        coef.append((-1) ** j * mp.zeta(a - 2 * j) * pi ** (2 * j) / mp.factorial(2 * j))
        powers.append(mp.mpf(2 * j))
    if not odd:
        coef.append(pi**a / (2 * mp.cos(pi * a / 2) * mp.gamma(a)))  # a pi^(alpha-1)
        powers.append(a - 1)
        integral = _gram(coef, powers)
    else:
        jj = (m - 1) // 2
        c = (-1) ** jj * pi ** (m - 1) / mp.factorial(m - 1)
        coef.append(c * (mp.harmonic(m - 1) - mp.log(pi)))
        powers.append(mp.mpf(m - 1))
        # cross terms with c t^(m-1) (-ln t): int t^(q-1) ln t dt = -1/q^2
        integral = _gram(coef, powers)
        integral += 2 * (-c) * sum(
            ci * (-1 / (m + p + 2) ** 2) for ci, p in zip(coef, powers)
        )
        integral += c * c * 2 / mp.mpf(2 * m + 1) ** 3
    return 2 * pi**2 / mp.zeta(2 * a) * integral


def var_lz(alpha: float) -> str:
    """zeta(2 alpha - 2) / zeta(2 alpha) in DIGITS digits, "inf" where
    sum n^2 |C_n|^2 diverges (alpha <= 3/2)."""
    if alpha <= 1.5:
        return "inf"
    a = mp.mpf(alpha)
    return mp.nstr(mp.zeta(2 * a - 2) / mp.zeta(2 * a), DIGITS)


def state_bound(alpha: float) -> mp.mpf:
    a = mp.mpf(alpha)
    eta = mp.altzeta(a)
    return abs(1 - 2 * eta**2 / mp.zeta(2 * a)) / 2


def var_phi_by_quadrature(alpha: float) -> mp.mpf:
    """The same moment straight from polylog, for the cross-check."""
    a = mp.mpf(alpha)
    re_li = lambda phi: mp.re(mp.polylog(a, mp.expj(phi)))
    integral = mp.quad(lambda phi: phi**2 * re_li(phi) ** 2, [0, mp.pi / 2, mp.pi])
    return 2 / (mp.pi * mp.zeta(2 * a)) * integral


def main() -> int:
    mp.mp.dps = DPS
    with mp.workdps(25):
        for alpha in (0.75, 1.6, 4.3):
            series, quad = var_phi(alpha), var_phi_by_quadrature(alpha)
            rel = abs(series / quad - 1)
            print(f"alpha {alpha}: series vs polylog quadrature {mp.nstr(rel, 3)}")
            if rel > mp.mpf("1e-20"):
                print("series and quadrature disagree", file=sys.stderr)
                return 1
    rows = []
    for alpha, label in _points():
        rows.append((repr(alpha), label, mp.nstr(var_phi(alpha), DIGITS),
                     mp.nstr(state_bound(alpha), DIGITS), var_lz(alpha)))
    with OUT.open("w", newline="\n") as fh:
        fh.write(f"# {OUT.name}: written by {Path(__file__).name} at mpmath dps {DPS}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("alpha", "kind", "var_phi", "state_bound", "var_lz"))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
