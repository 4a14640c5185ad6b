"""Closed forms vs the generic series engine, plus the limit laws."""

import csv
import functools
import importlib.util
import math
import warnings
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from unclab import (
    DivergentMoment,
    InvalidParameter,
    NonConvergent,
    build_spectrum,
    dilog,
    exp_closed,
    exponential_family,
    lz_moments,
    phi_moments,
    poly_closed,
    polynomial_family,
    xi_sum,
    zeta,
)
from unclab import closed_forms, special, spectrum, sweep

from oracles import exp_xi_resummed

PI = math.pi
PI2_3 = PI**2 / 3.0
FIG2_GRID = np.geomspace(1.6, 50.0, 160)
_REFERENCE = Path(__file__).with_name("poly_reference.csv")
_EXP_REFERENCE = Path(__file__).with_name("exp_reference.csv")
_FIGURES_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"


class _Reference(NamedTuple):
    alpha: float
    kind: str
    var_phi: float
    state_bound: float
    var_lz: float


def _read_table(path: Path) -> list[dict[str, str]]:
    """The rows of a reference table or a sweep CSV, without its # lines."""
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@functools.cache
def _reference_rows() -> tuple[_Reference, ...]:
    return tuple(
        _Reference(float(r["alpha"]), r["kind"], float(r["var_phi"]),
                   float(r["state_bound"]), float(r["var_lz"]))
        for r in _read_table(_REFERENCE)
    )


class TestExpClosed:
    def test_structure_invariant(self):
        for a in (0.1, 1.0, 7.0):
            ev = exp_closed(a)
            assert ev.var_phi == pytest.approx(
                PI2_3 + 4.0 * dilog(-math.exp(-a)).value + ev.g_value, abs=1e-15
            )

    def test_alpha_one_frozen_values(self):
        ev = exp_closed(1.0)
        assert ev.var_phi == pytest.approx(0.98096306608776620, abs=1e-14)
        assert ev.var_lz == pytest.approx(0.36203083048315523, abs=1e-15)
        assert ev.mean_cos == pytest.approx(0.64805427366388540, abs=1e-15)
        assert ev.var_sin == pytest.approx(0.32926179757407123, abs=1e-15)
        assert ev.var_cos == pytest.approx(0.25076386081190270, abs=1e-15)

    def test_hr_crossing_point(self):
        ev = exp_closed(1.29639)
        assert ev.var_phi * ev.var_lz == pytest.approx(0.25, abs=5e-4)

    def test_small_alpha_product_law(self):
        ev = exp_closed(1e-3)
        assert abs(ev.var_phi / 1e-6 - 1.0) < 0.15
        assert abs(ev.var_phi * ev.var_lz / 0.5 - 1.0) < 0.01

    def test_large_alpha_laws(self):
        ev = exp_closed(10.0)
        assert abs(ev.var_phi - PI2_3) < 1e-3
        assert abs(math.exp(20.0) * ev.var_lz / 2.0 - 1.0) < 1e-4

    @pytest.mark.parametrize("alpha", [1e-3, 2e-3, 4e-3])
    def test_small_alpha_limit_laws(self, alpha):
        # sigma_phi^2 ~ alpha^2 and sigma_Lz^2 ~ 1 / (2 alpha^2) as alpha -> 0
        ev = exp_closed(alpha)
        assert abs(ev.var_phi / alpha**2 - 1.0) <= 0.02
        assert abs(2.0 * alpha**2 * ev.var_lz - 1.0) <= 0.02

    def test_large_alpha_limit_laws(self):
        # sigma_phi^2 -> pi^2/3 and sigma_Lz^2 ~ 2 e^{-2 alpha} as alpha -> inf
        ev = exp_closed(20.0)
        assert abs(ev.var_phi / PI2_3 - 1.0) <= 1e-4
        assert abs(math.exp(40.0) * ev.var_lz / 2.0 - 1.0) <= 1e-4

    def test_no_overflow_far_out(self):
        ev = exp_closed(500.0)
        assert ev.var_lz == pytest.approx(0.0, abs=1e-300)
        assert ev.var_phi == pytest.approx(PI2_3, abs=1e-12)
        assert ev.state_bound >= 0.0

    @pytest.mark.parametrize("alpha", [800.0, 1e308])
    def test_finite_beyond_cosh_overflow(self, alpha):
        ev = exp_closed(alpha)
        assert all(
            math.isfinite(getattr(ev, f))
            for f in ("var_phi", "var_lz", "g_value", "mean_cos", "var_sin", "var_cos")
        )
        assert math.isfinite(dilog(-math.exp(-alpha)).value)
        assert ev.mean_cos == 0.0
        assert ev.var_phi == pytest.approx(PI2_3, abs=1e-12)

    def test_mean_cos_is_sech(self):
        for a in np.geomspace(1e-3, 700.0, 400):
            sech = 1.0 / math.cosh(a)
            assert abs(exp_closed(a).mean_cos - sech) <= 4 * np.finfo(float).eps * sech

    def test_var_cos_keeps_full_precision_at_small_alpha(self):
        # reference: <cos^2> - <cos phi>^2 = (1 - u^2)/2 + u sech - sech^2,
        # cancelled in 60-digit arithmetic
        with mpmath.workdps(60):
            for a in np.geomspace(1e-8, 700.0, 400):
                x = mpmath.mpf(float(a))
                u, sech = mpmath.exp(-x), mpmath.sech(x)
                ref = (1 - u * u) / 2 + u * sech - sech * sech
                got = exp_closed(float(a)).var_cos
                assert abs(got - ref) <= 4 * np.finfo(float).eps * ref, a

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_agrees_with_series_engine(self, alpha):
        ev = exp_closed(alpha)
        s = build_spectrum(exponential_family(), alpha)
        _, _, var_phi = phi_moments(s)
        _, _, var_lz = lz_moments(s)
        assert abs(var_phi - ev.var_phi) <= 1e-9 * abs(ev.var_phi)
        assert abs(var_lz - ev.var_lz) <= 1e-9 * abs(ev.var_lz)

    def test_trig_completeness(self):
        # <sin^2> + <cos^2> = 1
        for a in (0.05, 0.7, 3.0, 20.0):
            ev = exp_closed(a)
            total = ev.var_sin + ev.var_cos + ev.mean_cos**2  # mean_sin = 0
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameter):
            exp_closed(0.0)
        with pytest.raises(InvalidParameter):
            exp_closed(-2.0)


class TestExpBoundary:
    def test_weight_matches_naive_expression(self):
        for a in (0.3, 1.0, 5.0):
            naive = 0.5 * (1.0 - math.tanh(a) * math.tanh(a / 2.0) ** 2)
            assert exp_closed(a).state_bound == pytest.approx(naive, rel=1e-14)

    def test_state_bound_is_cancellation_free_at_large_alpha(self):
        # 1 - 2 pi |f(pi)|^2 ~ 4 e^-alpha: the direct form loses digits,
        # the factored one does not
        a = 30.0
        want = math.exp(-a) * (2.0 - math.exp(-a) + math.exp(-2 * a)) / (
            (1.0 + math.exp(-2 * a)) * (1.0 + math.exp(-a))
        )
        bound = exp_closed(a).state_bound
        assert bound == pytest.approx(want, rel=1e-15)
        assert bound == pytest.approx(2.0 * math.exp(-a), rel=1e-12)


def _poly_record(alpha: float) -> "closed_forms.PolyFamilyEval":
    """The closed-form record at one alpha: poly_closed above 3/2, the grid
    evaluator at and below it, where poly_closed raises."""
    return poly_closed(alpha) if alpha > 1.5 else closed_forms._poly_grid([alpha])[0]


class TestPolyClosed:
    def test_alpha_two_zeta_ratio(self):
        ev = poly_closed(2.0)
        assert ev.var_lz == pytest.approx(15.0 / PI**2, abs=1e-12)
        norm_sq = 1.0 / (4.0 * PI * zeta(2.0 * 2.0).value)
        assert norm_sq == pytest.approx(1.0 / (4.0 * PI * (PI**4 / 90.0)), rel=1e-12)

    def test_large_alpha_product_limit(self):
        ev = poly_closed(50.0)
        assert ev.var_phi * ev.var_lz == pytest.approx(PI2_3 + 0.5, abs=1e-3)

    @pytest.mark.parametrize("alpha", [1.5, 1.2, 0.7])
    def test_divergent_below_three_halves(self, alpha):
        with pytest.raises(DivergentMoment):
            poly_closed(alpha)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameter, match="alpha must be positive, got 0.0"):
            poly_closed(0.0)

    def test_fig2_sweep_builds_no_window(self, counted):
        calls = counted(spectrum.build_spectrum)
        rows = sweep(polynomial_family(), 1.6, 50.0, 160, scale="log")
        assert len(rows) == 160 and calls == []

    def test_no_scalar_zeta_call(self, counted):
        # zeta(2 alpha) and zeta(2 alpha - 2) are columns of the array call
        # that gives zeta(alpha - 2j)
        calls = counted(special.zeta)
        rows = sweep(polynomial_family(), 1.6, 50.0, 160, scale="log")
        assert len(rows) == 160 and calls == []
        poly_closed(2.3)
        assert calls == []

    @pytest.mark.parametrize("alpha", [1e4, 1e308, math.inf])
    def test_far_alpha_is_finite_and_quiet(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = poly_closed(alpha)
        assert ev.var_lz == 1.0
        assert math.isfinite(ev.var_phi) and math.isfinite(ev.state_bound)

    def test_var_phi_against_series_on_tight_window(self):
        # independent route: the coefficient series on a window at rel_tol
        # 1e-12, which is affordable from alpha 1.6 up (N = 185545 there)
        for alpha in np.geomspace(1.6, 50.0, 12).tolist():
            ev = poly_closed(alpha)
            s = build_spectrum(polynomial_family(), alpha, rel_tol=1e-12)
            _, _, var_phi = phi_moments(s)
            assert ev.var_phi == pytest.approx(var_phi, rel=2e-12, abs=0.0), alpha

    @pytest.mark.parametrize("alpha, state_bound", [(2.0, 0.125), (4.0, 0.5 * 407700 / 518400)])
    def test_even_integer_is_a_removable_point(self, alpha, state_bound):
        # sin(pi alpha / 2) zeta(2j + 1 - alpha) is 0 * inf at j = alpha / 2;
        # there zeta(0) = -1/2 from the continuation.  The state bound is
        # exact: eta(2) = pi^2 / 12, eta(4) = 7 pi^4 / 720
        ev = poly_closed(alpha)
        ref = {row.alpha: row for row in _reference_rows()}
        assert ev.var_phi == pytest.approx(ref[alpha].var_phi, rel=1e-13, abs=0.0)
        assert ev.state_bound == pytest.approx(state_bound, rel=1e-14, abs=0.0)
        for side in (alpha - 1e-9, alpha + 1e-9):  # continuous through it
            assert poly_closed(side).var_phi == pytest.approx(ev.var_phi, rel=1e-8)

    def test_reference_table(self):
        # tests/poly_reference.csv, written by tests/make_poly_reference.py in
        # 60-digit mpmath; the README's Accuracy paragraph states these bounds
        rows = _reference_rows()
        assert len(rows) > 1200
        for row in rows:
            ev = _poly_record(row.alpha)
            assert ev.var_phi == pytest.approx(row.var_phi, rel=1e-12, abs=0.0), row
            bound = 1e-13 if row.kind == "fig2" else 1e-12
            assert ev.state_bound == pytest.approx(row.state_bound, rel=bound, abs=0.0), row

    def test_reference_table_var_lz(self):
        # zeta(2 alpha - 2) / zeta(2 alpha) from the array zeta, on every row;
        # +inf on the rows at and below 3/2
        for row in _reference_rows():
            ev = _poly_record(row.alpha)
            assert ev.var_lz == pytest.approx(row.var_lz, rel=1e-15, abs=0.0), row
        assert sum(row.var_lz == math.inf for row in _reference_rows()) == 31

    def test_alpha_one_is_a_removable_point(self):
        # at alpha = 1 both pole pairs cancel in the limit: h'(0) keeps the 1
        # of log1p(eps), and eta(1) = ln 2.  var_phi is
        # 12 int_0^1 t^2 ln^2(2 sin(pi t / 2)) dt
        ev = _poly_record(1.0)
        assert ev.var_phi == pytest.approx(1.41389875131727219284, rel=1e-14, abs=0.0)
        state_bound = 0.5 * (1.0 - 12.0 * math.log(2.0) ** 2 / PI**2)
        assert ev.state_bound == pytest.approx(state_bound, rel=1e-14, abs=0.0)

    def test_quiet_below_three_halves(self):
        # a grid over [1/2, 3/2], and 1 +- 2^-k and 3/2 - 2^-k down to the last bit
        near = [c + s * 2.0**-k for k in range(2, 54) for c, s in ((1.0, -1), (1.0, 1), (1.5, -1))]
        alphas = np.linspace(0.5, 1.5, 41).tolist() + near
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = closed_forms._poly_grid(alphas)
        assert all(rec.var_lz == math.inf for rec in recs)
        assert all(math.isfinite(rec.var_phi) for rec in recs[1:])
        assert math.isnan(recs[0].var_phi)  # alpha = 1/2: not normalizable

    def test_gram_by_quarters_keeps_the_whole_products_bits(self):
        # _poly_moments sums its Gram products by quarters of 8 j, added as
        # (q0 + q1) + (q2 + q3): numpy's pairwise sum of a row's 1024
        # products splits the same way, so the sweep bytes do not move
        rng = np.random.default_rng(2026)
        b = rng.standard_normal((32, 32)) * np.exp(rng.uniform(-30.0, 5.0, (32, 32)))
        hilbert = closed_forms._HILBERT
        whole = (b[:, :, None] * b[:, None, :] * hilbert).sum(axis=(1, 2))
        q = [(b[:, j:j + 8, None] * b[:, None, :] * hilbert[j:j + 8]).sum(axis=(1, 2))
             for j in range(0, 32, 8)]
        assert ((q[0] + q[1]) + (q[2] + q[3])).tolist() == whole.tolist()

    def test_reference_table_covers_the_poles(self):
        rows = _reference_rows()
        alphas = {row.alpha for row in rows}
        for m in range(3, 50, 2):
            assert {m - 1e-12, float(m), m + 1e-12} <= alphas
        assert {row.alpha for row in rows if row.kind == "fig2"} == set(FIG2_GRID[[*range(0, 160, 8), 159]])


# Per figure and column: the worst relative error of the figure CSVs over
# the reference rows, rounded up to one digit (the polynomial var_lz
# measures 5.0e-16 and is held at 1e-15).
_FIGURE_BOUNDS = {
    "fig1_exp": {"var_phi": 5e-14, "var_lz": 4e-16, "product": 3e-14, "state_bound": 4e-16},
    "fig2_exp": {"var_phi": 2e-16, "var_lz": 3e-16, "product": 2e-16, "state_bound": 2e-16},
    "fig2_poly": {"var_lz": 1e-15, "product": 9e-15},
}


class TestFigureReferences:
    def test_figure_csvs_against_reference_tables(self, tmp_path):
        # tests/exp_reference.csv (40-digit, tests/make_exp_reference.py) and
        # the var_lz column of tests/poly_reference.csv; the poly product
        # reference is sqrt(var_phi var_lz) of the table's 30-digit values
        spec = importlib.util.spec_from_file_location("reproduce_figures", _FIGURES_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.run(tmp_path) == 0
        figures = {
            name: {float(r["alpha"]): r for r in _read_table(tmp_path / f"{name}.csv")}
            for name in _FIGURE_BOUNDS
        }
        with mpmath.workdps(40):
            refs = [("fig1_exp" if r["kind"] == "fig1" else "fig2_exp", r)
                    for r in _read_table(_EXP_REFERENCE)]
            refs += [
                ("fig2_poly", {**r, "product": mpmath.sqrt(mpmath.mpf(r["var_phi"])
                                                           * mpmath.mpf(r["var_lz"]))})
                for r in _read_table(_REFERENCE) if r["kind"] == "fig2"
            ]
            worst = {}
            for name, ref in refs:
                row = figures[name][float(ref["alpha"])]
                for column in _FIGURE_BOUNDS[name]:
                    want = mpmath.mpf(ref[column])
                    rel = float(abs(mpmath.mpf(float(row[column])) - want) / want)
                    worst[name, column] = max(worst.get((name, column), 0.0), rel)
        assert len(refs) == 76 + 21 + 21
        for (name, column), rel in worst.items():
            assert rel <= _FIGURE_BOUNDS[name][column], (name, column, rel)


class TestXiResummed:
    def test_matches_generic_engine(self):
        s = build_spectrum(exponential_family(), 1.0)
        assert abs(exp_xi_resummed(1.0) - xi_sum(s)) < 1e-10

    def test_limit_alpha_large(self):
        assert abs(exp_xi_resummed(20.0)) < 1e-8

    def test_small_alpha_limit_recovers_uniform_variance_cancellation(self):
        # 2 tanh(a) xi(a) -> -pi^2/3; at a = 0.01 the gap is var_phi ~ a^2
        a = 0.01
        val = 2.0 * math.tanh(a) * exp_xi_resummed(a)
        assert val + PI2_3 == pytest.approx(a * a, rel=0.15)

    def test_monotone_increasing_combination(self):
        # tanh(a) xi(a) is monotone increasing in alpha
        grid = np.geomspace(0.05, 10.0, 24)
        vals = [math.tanh(a) * exp_xi_resummed(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergent):
            exp_xi_resummed(1e-4, k_max=100)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameter):
            exp_xi_resummed(0.0)


class TestAppendixExpansions:
    def test_g_small_alpha_coefficients(self):
        # g(alpha) = -4 ln2 alpha + 2 alpha^2 + O(alpha^3)
        alphas = np.linspace(1e-3, 5e-2, 30)
        g = np.array([exp_closed(a).g_value for a in alphas])
        c = np.polynomial.polynomial.polyfit(alphas, g, [1, 2, 3])
        assert abs(c[1] / (-4.0 * math.log(2.0)) - 1.0) < 0.01
        assert abs(c[2] / 2.0 - 1.0) < 0.01

    def test_g_cubic_remainder_is_bounded(self):
        for a in np.linspace(1e-3, 5e-2, 20):
            model = -4.0 * math.log(2.0) * a + 2.0 * a * a
            assert abs(exp_closed(a).g_value - model) <= 0.5 * a**3

    def test_dilog_small_alpha_coefficients(self):
        # Li2(-e^-a) = -pi^2/12 + ln2 a - a^2/4 + O(a^3)
        alphas = np.linspace(1e-3, 5e-2, 30)
        li = np.array([dilog(-math.exp(-a)).value for a in alphas])
        c = np.polynomial.polynomial.polyfit(alphas, li, [0, 1, 2, 3])
        assert abs(c[0] / (-(PI**2) / 12.0) - 1.0) < 0.01
        assert abs(c[1] / math.log(2.0) - 1.0) < 0.01
        assert abs(c[2] / (-0.25) - 1.0) < 0.01
