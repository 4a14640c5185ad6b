#!/usr/bin/env python3
"""Regenerate tests/exp_reference.csv: exponential-family references in mpmath.

For C_n = e^(-alpha |n|) the state is the Poisson kernel
f(phi) = A sinh(alpha) / (cosh(alpha) - cos(phi)), with 2 pi A^2 coth(alpha) = 1,
and, with u = e^-alpha,

    var_lz      = sum n^2 u^2|n| / sum u^2|n| = 1 / (2 sinh^2 alpha),
    var_phi     = pi^2/3 + 4 Li2(-u) - 4 tanh(alpha) ln(1 + u),
    product     = sqrt(var_phi var_lz),
    state_bound = |1 - 2 pi |f(pi)|^2| / 2 = (1 - tanh(alpha) tanh^2(alpha / 2)) / 2.

Li2 is mpmath's polylog, not the library's series.  The rows are those of
the figure sweeps (scripts/reproduce_figures.py): every 4th row of fig1_exp
(alpha in [0.05, 5], 300 linear steps), every 8th of fig2_exp (alpha in
[1.6, 50], 160 log steps), and the last row of each.  The values are taken
at 40 digits; the state bound's cancellation near alpha = 50 (22 digits)
runs on extra working digits.  Three alphas are also checked against
mpmath quadrature of the density and sums of the series.

Run from the repository root (takes about a second):

    python tests/make_exp_reference.py
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = 40
DIGITS = 30  # written to the table
OUT = Path(__file__).with_name("exp_reference.csv")


def _points() -> list[tuple[float, str]]:
    """(alpha, label) pairs: the fig1_exp and fig2_exp rows of the table."""
    fig1 = np.linspace(0.05, 5.0, 300)
    fig2 = np.geomspace(1.6, 50.0, 160)
    return ([(float(fig1[i]), "fig1") for i in [*range(0, 300, 4), 299]]
            + [(float(fig2[i]), "fig2") for i in [*range(0, 160, 8), 159]])


def moments(alpha: float) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    """(var_phi, var_lz, product, state_bound) at ``alpha``."""
    a = mp.mpf(alpha)
    u = mp.exp(-a)
    var_lz = 1 / (2 * mp.sinh(a) ** 2)
    var_phi = mp.pi**2 / 3 + 4 * mp.polylog(2, -u) - 4 * mp.tanh(a) * mp.log1p(u)
    with mp.extradps(30):
        state_bound = (1 - mp.tanh(a) * mp.tanh(a / 2) ** 2) / 2
    return var_phi, var_lz, mp.sqrt(var_phi * var_lz), +state_bound


def by_quadrature(alpha: float) -> tuple[mp.mpf, mp.mpf]:
    """(var_phi, var_lz) from the density and the coefficient series, for the cross-check."""
    a = mp.mpf(alpha)
    rho = lambda phi: mp.tanh(a) * (mp.sinh(a) / (mp.cosh(a) - mp.cos(phi))) ** 2 / (2 * mp.pi)
    var_phi = 2 * mp.quad(lambda phi: phi**2 * rho(phi), [0, a / 4, a, 4 * a, mp.pi])
    weight = lambda n: mp.exp(-2 * a * n)
    var_lz = mp.nsum(lambda n: n * n * weight(n), [1, mp.inf]) / (
        mp.mpf(0.5) + mp.nsum(weight, [1, mp.inf]))
    return var_phi, var_lz


def main() -> int:
    mp.mp.dps = DPS
    for alpha in (0.05, 1.0, 5.0):
        (var_phi, var_lz, _, _), (quad_phi, sum_lz) = moments(alpha), by_quadrature(alpha)
        rel = max(abs(var_phi / quad_phi - 1), abs(var_lz / sum_lz - 1))
        print(f"alpha {alpha}: closed forms vs quadrature and sums {mp.nstr(rel, 3)}")
        if rel > mp.mpf("1e-30"):
            print("closed forms and quadrature disagree", file=sys.stderr)
            return 1
    rows = [(repr(alpha), label, *(mp.nstr(v, DIGITS) for v in moments(alpha)))
            for alpha, label in _points()]
    with OUT.open("w", newline="\n") as fh:
        fh.write(f"# {OUT.name}: written by {Path(__file__).name} at mpmath dps {DPS}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("alpha", "kind", "var_phi", "var_lz", "product", "state_bound"))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
