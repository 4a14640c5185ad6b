"""Acceptance criteria: one test per criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see a pass line per
criterion.  hbar = 1 everywhere: variances in hbar^2, products in hbar.
"""

import math
import time

import numpy as np
import pytest

from unclab import (
    DivergentMoment,
    NotAttainable,
    build_spectrum,
    compare_report,
    dilog,
    exp_closed,
    exponential_family,
    find_alpha_star,
    find_bound_crossing,
    lz_moments,
    phi_moments,
    poly_closed,
    polynomial_family,
    table_family,
    trig_report,
    two_mode_family,
    uncertainty_report,
)

PI = math.pi
PI2_3 = PI**2 / 3.0
GRID_40 = np.geomspace(0.05, 10.0, 40)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_hr_bound_crossing(capsys):
    import json

    from unclab.cli import main as cli_main

    t0 = time.perf_counter()
    alpha = find_bound_crossing(exponential_family(), 0.5)
    elapsed = time.perf_counter() - t0
    rc = cli_main(["crossing", "--family", "exp", "--target", "0.5", "--json"])
    cli_alpha = json.loads(capsys.readouterr().out)["alpha"]
    ok = (
        abs(alpha - 1.29639) <= 5e-4
        and abs(cli_alpha - 1.29639) <= 5e-4
        and rc == 0
        and elapsed < 1.0
    )
    report(1, ok, f"crossing at alpha={alpha:.6f} (CLI: {cli_alpha:.6f}; "
                  f"target 1.29639 +- 5e-4), {elapsed * 1e3:.1f} ms")


def test_criterion_2_small_alpha_product_limit():
    t0 = time.perf_counter()
    ev = exp_closed(1e-3)
    closed_prod = ev.var_phi * ev.var_lz
    t_closed = time.perf_counter() - t0

    t0 = time.perf_counter()
    s = build_spectrum(exponential_family(), 1e-3)
    rep = uncertainty_report(s)
    t_series = time.perf_counter() - t0

    ok = (
        abs(closed_prod / 0.5 - 1.0) < 0.01
        and abs(rep.var_phi * rep.var_lz / 0.5 - 1.0) < 0.01
        and t_closed < 5.0
        and t_series < 60.0
    )
    report(
        2,
        ok,
        f"product_sq closed={closed_prod:.6f} ({t_closed * 1e3:.2f} ms), "
        f"series={rep.var_phi * rep.var_lz:.6f} (N={s.cutoff}, {t_series:.2f} s); "
        f"both within 1% of 0.5",
    )


def test_criterion_3_large_alpha_laws():
    ev = exp_closed(10.0)
    phi_dev = abs(ev.var_phi - PI2_3)
    lz_dev = abs(math.exp(20.0) * ev.var_lz / 2.0 - 1.0)
    ok = phi_dev < 1e-3 and lz_dev < 1e-4
    report(3, ok, f"alpha=10: |var_phi - pi^2/3| = {phi_dev:.2e} (< 1e-3), "
                  f"|e^20 var_lz / 2 - 1| = {lz_dev:.2e} (< 1e-4)")


def test_criterion_4_polynomial_limit_and_divergence():
    ev = poly_closed(50.0)
    prod_sq = ev.var_phi * ev.var_lz
    limit_ok = abs(prod_sq - (PI2_3 + 0.5)) < 1e-3
    try:
        poly_closed(1.5)
        diverged_closed = False
    except DivergentMoment:
        diverged_closed = True
    try:
        lz_moments(build_spectrum(polynomial_family(), 1.5, rel_tol=1e-6))
        diverged_series = False
    except DivergentMoment:
        diverged_series = True
    ok = limit_ok and diverged_closed and diverged_series
    report(4, ok, f"alpha=50: product_sq={prod_sq:.6f} vs {PI2_3 + 0.5:.6f} "
                  f"(< 1e-3); alpha=1.5 raises DivergentMoment on both routes")


def test_criterion_5_theorem_one_at_desk_scale():
    hits = []
    for eps in (0.5, 0.1, 0.01, 0.001):
        alpha = find_alpha_star(exponential_family(), eps)
        ev = exp_closed(alpha)
        hits.append(math.sqrt(ev.var_phi * ev.var_lz) < eps)
    try:
        find_alpha_star(polynomial_family(), 1.0)
        negative_ok = False
        detail_neg = "polynomial search unexpectedly succeeded"
    except NotAttainable as exc:
        # the profile settles at sqrt(pi^2/3 + 1/2) = 1.9468 at the budget
        # edge; its one-off dip (1.8604 near alpha = 2.89) stays above 1
        negative_ok = exc.edge_product >= 1.9 and exc.best_product >= 1.0
        detail_neg = (
            f"poly eps=1.0 NotAttainable, settles at {exc.edge_product:.5f} "
            f">= 1.9, path minimum {exc.best_product:.5f} >= 1.0"
        )
    ok = all(hits) and negative_ok
    report(5, ok, f"exp alpha* found for eps in {{0.5, 0.1, 0.01, 0.001}}; "
                  + detail_neg)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    all_ok = True
    for trial in range(20):
        window = int(rng.integers(1, 9))
        coeffs = {
            int(n): complex(rng.normal(), rng.normal())
            for n in range(-window, window + 1)
        }
        s = build_spectrum(table_family(f"rand{trial}", coeffs), 1.0)
        rep = compare_report(s, tol=1e-8)
        all_ok &= rep.all_passed
        worst = max(worst, max(r.diff for r in rep.rows if r.diff is not None))
    for alpha in (0.5, 1.0, 2.0):
        rep = compare_report(build_spectrum(exponential_family(), alpha), tol=1e-8)
        all_ok &= rep.all_passed
        worst = max(worst, max(r.diff for r in rep.rows if r.diff is not None))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    report(6, ok, f"20 random spectra + exp {{0.5, 1, 2}}: every moment within "
                  f"1e-8 of quadrature (worst |diff| = {worst:.2e}), "
                  f"{elapsed:.1f} s")


def test_criterion_7_two_mode_exact_fixture():
    s = build_spectrum(two_mode_family(), 1.0)
    _, _, var_lz = lz_moments(s)
    _, _, var_phi = phi_moments(s)
    lz_dev = abs(var_lz - 1.0)
    phi_dev = abs(var_phi - (PI2_3 + 0.5))
    ok = lz_dev <= 1e-12 and phi_dev <= 1e-12
    report(7, ok, f"C_(+-1)=1/2: |var_lz - 1| = {lz_dev:.2e}, "
                  f"|var_phi - (pi^2/3 + 1/2)| = {phi_dev:.2e} (both <= 1e-12)")


def test_criterion_8_state_dependent_bound_never_violated():
    worst = math.inf
    for a in GRID_40:
        ev = exp_closed(float(a))
        margin = math.sqrt(ev.var_phi * ev.var_lz) - ev.state_bound
        worst = min(worst, margin)
    ok = worst >= -1e-10
    report(8, ok, f"exp grid [0.05, 10] x 40: min(product - state_bound) = "
                  f"{worst:.3e} >= -1e-10")


def test_criterion_9_trig_relations_hold():
    worst = math.inf
    for a in GRID_40:
        tr = trig_report(build_spectrum(exponential_family(), float(a)))
        worst = min(worst, tr.sin_relation_residual, tr.cos_relation_residual)
    ok = worst >= -1e-12
    report(9, ok, f"exp grid [0.05, 10] x 40: min trig-relation residual = "
                  f"{worst:.3e} >= -1e-12")


def test_criterion_10_appendix_expansions():
    alphas = np.linspace(1e-3, 5e-2, 40)
    g = np.array([exp_closed(float(a)).g_value for a in alphas])
    li = np.array([dilog(-math.exp(-float(a))).value for a in alphas])
    cg = np.polynomial.polynomial.polyfit(alphas, g, [1, 2, 3])
    cl = np.polynomial.polynomial.polyfit(alphas, li, [0, 1, 2, 3])
    devs = {
        "g linear": cg[1] / (-4.0 * math.log(2.0)) - 1.0,
        "g quadratic": cg[2] / 2.0 - 1.0,
        "Li2 constant": cl[0] / (-(PI**2) / 12.0) - 1.0,
        "Li2 linear": cl[1] / math.log(2.0) - 1.0,
        "Li2 quadratic": cl[2] / (-0.25) - 1.0,
    }
    ok = all(abs(d) < 0.01 for d in devs.values())
    worst_name = max(devs, key=lambda k: abs(devs[k]))
    report(10, ok, f"fitted g ~ (-4 ln2) a + 2 a^2 and Li2 ~ -pi^2/12 + ln2 a "
                   f"- a^2/4 within 1% (worst: {worst_name} at "
                   f"{devs[worst_name]:+.2e})")
