"""Adaptive Simpson, the shared FFT mesh, and the series-vs-quadrature comparison."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclab import (
    InvalidParameter,
    ToleranceNotMet,
    build_spectrum,
    compare_report,
    exp_closed,
    exponential_family,
    polynomial_family,
    single_mode_family,
    table_family,
    trig_report,
    two_mode_family,
    uncertainty_report,
)
from unclab import quadrature
from unclab.quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_EVALS,
    _gauss_bound,
    _gauss_legendre,
    _mesh_integrals,
    _panel_count,
    _rounding_floors,
    _strip_sums,
    adaptive_simpson,
    quad_norm,
    quad_phi_moment,
    quad_trig_moment,
)
from unclab.spectrum import _smooth_length

from oracles import evaluate_state

PI = math.pi
PI2_3 = PI**2 / 3.0

# The table state on which adaptive Simpson converged falsely
PINNED_TABLE = {
    0: 1.2403705806321854,
    -1: 0.97265625,
    -4: -1.9778407743282225j,
    6: 0.5706432505115271j,
    -6: -1.9279289510115802j,
}

# A real-valued state with complex coefficients: c_{-n} = conj(c_n)
HERMITIAN_TABLE = {
    0: 0.9,
    1: 0.4 - 0.3j,
    -1: 0.4 + 0.3j,
    3: 0.25j,
    -3: -0.25j,
    6: -0.5 + 0.2j,
    -6: -0.5 - 0.2j,
}

# A mirror-symmetric state that is not real-valued: c_{-n} = c_n, complex
EVEN_COMPLEX_TABLE = {
    0: 0.7,
    2: 0.3 + 0.4j,
    -2: 0.3 + 0.4j,
    5: -0.2j,
    -5: -0.2j,
}

# The complex table document that CI verifies, at alpha = 1: no mirror
# symmetry, and a nonzero <L_z>
COMPLEX_TABLE = {-4: -1.5j, -1: 0.75 + 0.25j, 0: 1.25, 3: -0.5 + 0.5j, 6: 0.625j}

# Wide spikes: phi and phi^2 need more panels than P (the first) or come
# close to their bound on P panels (the second)
SPIKE_TABLE = {0: 1.0, 200: 1.0, -200: 1.0}
COMPLEX_SPIKE_TABLE = {0: 1.0, 200: 1j, -197: 0.5}

# the nine mesh integrals, and the seven whose weights are trigonometric
# polynomials, so that every mesh of P >= 2N + 3 panels integrates them exactly
MESH_INTEGRALS = ("norm", "phi", "phi2", "sin", "cos", "sin2", "cos2", "lz2", "lz")
PERIODIC_INTEGRALS = ("norm", "sin", "cos", "sin2", "cos2", "lz2", "lz")

# compare row name -> the mesh integral that computes it directly
ROW_INTEGRALS = {
    "norm": "norm",
    "mean_phi": "phi",
    "second_phi": "phi2",
    "mean_lz": "lz",
    "second_lz": "lz2",
    "mean_sin": "sin",
    "mean_cos": "cos",
    "sin_sq": "sin2",
    "cos_sq": "cos2",
}


def mesh_integral(s, name: str):
    """One mesh integral at the default tolerance and budget, on its own pass."""
    return _mesh_integrals(s, (name,), DEFAULT_ABS_TOL, DEFAULT_MAX_EVALS)[name]


def exp_exact(alpha: float) -> dict[str, float]:
    ev = exp_closed(alpha)
    return {
        "norm": 1.0,
        "mean_phi": 0.0,
        "second_phi": ev.var_phi,
        "var_phi": ev.var_phi,
        "mean_lz": 0.0,
        "second_lz": ev.var_lz,
        "var_lz": ev.var_lz,
        "mean_sin": 0.0,
        "mean_cos": ev.mean_cos,
        "sin_sq": ev.var_sin,
        "cos_sq": ev.var_cos + ev.mean_cos**2,
        "var_sin": ev.var_sin,
        "var_cos": ev.var_cos,
    }


def _weight_transform(name: str, k: int):
    """Integral over [-pi, pi] of weight(phi) e^{i k phi}, exactly."""
    pi = mpmath.pi
    if name == "norm":
        return 2 * pi if k == 0 else 0
    if name == "phi":
        return 0 if k == 0 else -2j * pi * (-1) ** k / k
    if name == "phi2":
        return 2 * pi**3 / 3 if k == 0 else 4 * pi * (-1) ** k / k**2
    if name == "sin":
        return {1: 1j * pi, -1: -1j * pi}.get(k, 0)
    if name == "cos":
        return pi if abs(k) == 1 else 0
    sign = -1 if name == "sin2" else 1
    return {0: pi, 2: sign * pi / 2, -2: sign * pi / 2}.get(k, 0)


def finite_exact(s) -> dict[str, float]:
    """Moments of a finite-support state from exact pair integrals at 40 digits."""
    with mpmath.workdps(40):
        c = {n - s.cutoff: mpmath.mpc(complex(v)) for n, v in enumerate(s.coeffs)}
        c = {n: v for n, v in c.items() if v != 0}
        a2 = mpmath.mpf(s.norm_sq)

        def moment(name):
            return a2 * mpmath.fsum(
                mpmath.conj(c[m]) * c[n] * _weight_transform(name, n - m)
                for m in c
                for n in c
            ).real

        q = {name: moment(name) for name in ("norm", "phi", "phi2", "sin", "cos", "sin2", "cos2")}
        q["lz"] = 2 * mpmath.pi * a2 * mpmath.fsum(n * abs(v) ** 2 for n, v in c.items())
        q["lz2"] = 2 * mpmath.pi * a2 * mpmath.fsum(n * n * abs(v) ** 2 for n, v in c.items())
        rows = {
            "norm": q["norm"],
            "mean_phi": q["phi"],
            "second_phi": q["phi2"],
            "var_phi": q["phi2"] - q["phi"] ** 2,
            "mean_lz": q["lz"],
            "second_lz": q["lz2"],
            "var_lz": q["lz2"] - q["lz"] ** 2,
            "mean_sin": q["sin"],
            "mean_cos": q["cos"],
            "sin_sq": q["sin2"],
            "cos_sq": q["cos2"],
            "var_sin": q["sin2"] - q["sin"] ** 2,
            "var_cos": q["cos2"] - q["cos"] ** 2,
        }
        return {k: float(v) for k, v in rows.items()}


def bound_case(case: str):
    """(spectrum, exact moments) for the error-bound tests."""
    if case.startswith("exp"):
        alpha = float(case[3:])
        # rel_tol 1e-15 keeps the truncation far below the bounds checked
        return build_spectrum(exponential_family(), alpha, rel_tol=1e-15), exp_exact(alpha)
    family = {
        "single_mode": single_mode_family(2),
        "two_mode": two_mode_family(),
        "pinned": table_family("pinned", PINNED_TABLE),
        "hermitian": table_family("hermitian", HERMITIAN_TABLE),
        "even_complex": table_family("even_complex", EVEN_COMPLEX_TABLE),
        "spike": table_family("spike", SPIKE_TABLE),
        "complex_spike": table_family("complex_spike", COMPLEX_SPIKE_TABLE),
    }[case]
    s = build_spectrum(family, 1.0)
    return s, finite_exact(s)


BOUND_CASES = [
    "exp0.1", "exp1", "exp3", "single_mode", "two_mode", "pinned", "hermitian", "even_complex",
    "spike", "complex_spike",
]


def mesh_state(case: str):
    """A state for the mesh path tests; exp, poly and even_complex are even."""
    if case == "exp":
        return build_spectrum(exponential_family(), 0.3)
    if case == "poly":
        return build_spectrum(polynomial_family(), 2.2)
    table = {
        "even_complex": EVEN_COMPLEX_TABLE,
        "hermitian": HERMITIAN_TABLE,
        "pinned": PINNED_TABLE,
    }[case]
    return build_spectrum(table_family(case, table), 1.0)


def traced_mesh(s, monkeypatch, max_evals=DEFAULT_MAX_EVALS):
    """All nine mesh integrals, and (panels, values) of each pass that ran."""
    passes = []
    run = quadrature._mesh_pass

    def traced(s, panels, *args):
        values = run(s, panels, *args)
        passes.append((panels, values))
        return values

    monkeypatch.setattr(quadrature, "_mesh_pass", traced)
    return _mesh_integrals(s, MESH_INTEGRALS, DEFAULT_ABS_TOL, max_evals), passes


def even_tables(max_index=6):
    """Tables with c_{-n} = c_n: indices up to max_index, complex amplitudes."""
    entry = st.tuples(
        st.integers(0, max_index),
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
        ),
    )
    return (
        st.lists(entry, min_size=1, max_size=7)
        .map(lambda pairs: {sign * n: v for n, v in pairs for sign in (1, -1)})
        .filter(lambda d: any(abs(v) > 1e-6 for v in d.values()))
    )


class TestAdaptiveSimpson:
    def test_polynomial_is_exact(self):
        r = adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
        assert r.value == pytest.approx(2.0, abs=1e-13)

    def test_oscillatory(self):
        r = adaptive_simpson(lambda x: math.cos(7.0 * x) ** 2, -PI, PI)
        assert r.value == pytest.approx(PI, abs=1e-10)
        assert abs(r.value - PI) <= max(r.est_error, 1e-12)

    def test_error_estimate_is_honest(self):
        r = adaptive_simpson(lambda x: math.exp(-(x**2)), -3.0, 3.0, abs_tol=1e-9)
        want = math.sqrt(PI) * math.erf(3.0)
        assert abs(r.value - want) <= max(r.est_error, 1e-12)

    def test_evaluation_cap(self):
        with pytest.raises(ToleranceNotMet):
            adaptive_simpson(
                lambda x: math.sin(300.0 * x) ** 2, -PI, PI, abs_tol=1e-12, max_evals=40
            )

    def test_bad_interval(self):
        with pytest.raises(InvalidParameter):
            adaptive_simpson(math.sin, 1.0, 1.0)

    @pytest.mark.parametrize("abs_tol", [0.0, math.nan])
    def test_abs_tol_must_be_positive(self, abs_tol):
        with pytest.raises(InvalidParameter):
            adaptive_simpson(math.sin, 0.0, 1.0, abs_tol=abs_tol)


class TestPhiMomentQuadrature:
    def test_single_mode_second_moment(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        assert mesh_integral(s, "phi2").value == pytest.approx(PI2_3, abs=1e-10)

    def test_two_mode_second_moment_analytic(self):
        # integral of phi^2 cos^2(phi) / pi = pi^2/3 + 1/2
        s = build_spectrum(two_mode_family(), 1.0)
        assert mesh_integral(s, "phi2").value == pytest.approx(PI2_3 + 0.5, abs=1e-10)

    def test_exponential_first_moment_vanishes(self):
        s = build_spectrum(exponential_family(), 1.0)
        assert abs(mesh_integral(s, "phi").value) < 1e-10

    def test_power_domain(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        with pytest.raises(InvalidParameter):
            quad_phi_moment(s, 3)


class TestLzMomentQuadrature:
    def test_eigenstate(self):
        s = build_spectrum(single_mode_family(2), 1.0)
        assert mesh_integral(s, "lz2").value == pytest.approx(4.0, abs=1e-9)
        assert mesh_integral(s, "lz").value == pytest.approx(2.0, abs=1e-10)

    def test_two_mode(self):
        s = build_spectrum(two_mode_family(), 1.0)
        assert mesh_integral(s, "lz2").value == pytest.approx(1.0, abs=1e-9)
        assert abs(mesh_integral(s, "lz").value) < 1e-10

    def test_exponential_matches_closed_form(self):
        s = build_spectrum(exponential_family(), 1.0)
        want = 1.0 / (2.0 * math.sinh(1.0) ** 2)  # <Lz> = 0 so <Lz^2> = var
        assert mesh_integral(s, "lz2").value == pytest.approx(want, abs=1e-9)


class TestTrigMomentQuadrature:
    def test_single_mode(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        assert mesh_integral(s, "cos2").value == pytest.approx(0.5, abs=1e-10)
        assert abs(mesh_integral(s, "sin").value) < 1e-12

    def test_exponential_alpha_one(self):
        s = build_spectrum(exponential_family(), 1.0)
        assert mesh_integral(s, "cos").value == pytest.approx(
            1.0 / math.cosh(1.0), abs=1e-9
        )
        assert mesh_integral(s, "sin2").value == pytest.approx(
            0.32926179757407123, abs=1e-9
        )

    def test_weight_name_domain(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        with pytest.raises(InvalidParameter):
            quad_trig_moment(s, "tan")


class TestCompareReport:
    def test_exponential_all_pass(self):
        s = build_spectrum(exponential_family(), 1.0)
        rep = compare_report(s, tol=1e-8)
        assert rep.all_passed
        assert all(r.passed for r in rep.rows)

    def test_seeded_random_spectrum_passes(self):
        rng = np.random.default_rng(7)
        coeffs = {
            int(n): complex(rng.normal(), rng.normal())
            for n in range(-6, 7)
        }
        s = build_spectrum(table_family("seeded", coeffs), 1.0)
        assert compare_report(s, tol=1e-8).all_passed

    def test_divergent_polynomial_rows_not_applicable(self, monkeypatch):
        s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-5)
        derivative = []
        run = quadrature._mesh_pass

        def traced(s, panels, wants_derivative, even):
            derivative.append(wants_derivative)
            return run(s, panels, wants_derivative, even)

        monkeypatch.setattr(quadrature, "_mesh_pass", traced)
        rep = compare_report(s, tol=1e-8)
        na = [r for r in rep.rows if r.passed is None]
        assert [r.name for r in na] == ["mean_lz", "second_lz", "var_lz"]
        assert {r.note for r in na} == {"series-side sigma_Lz^2 divergent; not applicable"}
        assert rep.all_passed  # failures are data; n/a rows do not fail
        # no lz row reads f', so no mesh pass transforms it
        assert derivative and not any(derivative)

    def test_norm_row_closure(self):
        s = build_spectrum(exponential_family(), 0.3)
        rep = compare_report(s, tol=1e-8)
        norm_row = next(r for r in rep.rows if r.name == "norm")
        assert abs(norm_row.quadrature - 1.0) < 1e-10

    def test_as_dict_round_trips(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        d = compare_report(s, tol=1e-8).as_dict()
        assert d["all_passed"] is True
        assert {row["name"] for row in d["rows"]} >= {"norm", "var_phi"}

    @pytest.mark.parametrize("case", ["poly_divergent", "exp", "complex_table"])
    def test_series_column_is_the_reports(self, case):
        s = {
            "poly_divergent": lambda: build_spectrum(polynomial_family(), 1.4, rel_tol=1e-5),
            "exp": lambda: build_spectrum(exponential_family(), 1.0),
            "complex_table": lambda: build_spectrum(table_family(case, COMPLEX_TABLE), 1.0),
        }[case]()
        rep, tr = uncertainty_report(s), trig_report(s)
        moments = ("mean_phi", "second_phi", "var_phi", "mean_lz", "second_lz", "var_lz")
        want = {
            "norm": 1.0,
            **{name: getattr(rep, name) for name in moments},
            "mean_sin": tr.mean_sin,
            "mean_cos": tr.mean_cos,
            "sin_sq": tr.var_sin + tr.mean_sin**2,
            "cos_sq": tr.var_cos + tr.mean_cos**2,
            "var_sin": tr.var_sin,
            "var_cos": tr.var_cos,
        }
        rows = compare_report(s, tol=1e-8).rows
        assert [r.name for r in rows] == list(want)
        for r in rows:
            if s.lz_divergent and r.name.endswith("_lz"):
                assert r.series is None, r.name
            else:
                assert r.series == want[r.name], r.name
        assert s.lz_divergent == (case == "poly_divergent")


class TestErrorBounds:
    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_quad_functions_bound_their_error(self, case):
        s, exact = bound_case(case)
        for row, name in ROW_INTEGRALS.items():
            r = mesh_integral(s, name)
            assert abs(r.value - exact[row]) <= r.est_error, (row, r)

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_compare_rows_bound_their_error(self, case):
        s, exact = bound_case(case)
        for r in compare_report(s, tol=1e-9).rows:
            assert abs(r.quadrature - exact[r.name]) <= r.est_error, r

    def test_real_state_mean_lz_is_exactly_zero(self):
        s = build_spectrum(table_family("hermitian", HERMITIAN_TABLE), 1.0)
        assert mesh_integral(s, "lz").value == 0.0
        rows = {r.name: r for r in compare_report(s, tol=1e-9).rows}
        assert rows["mean_lz"].quadrature == 0.0

    @given(coeffs=even_tables())
    @settings(max_examples=25, deadline=None)
    def test_even_tables_bound_their_error(self, coeffs):
        s = build_spectrum(table_family("even", coeffs), 1.0)
        exact = finite_exact(s)
        for r in compare_report(s, tol=1e-9).rows:
            assert abs(r.quadrature - exact[r.name]) <= r.est_error, r

    @pytest.mark.parametrize("case", ["exp", "poly", "even_complex"])
    def test_even_state_odd_integrals_are_exactly_zero(self, case):
        s = mesh_state(case)
        for name in ("phi", "sin", "lz"):
            assert mesh_integral(s, name).value == 0.0, name
        rows = {r.name: r for r in compare_report(s, tol=1e-9).rows}
        for name in ("mean_phi", "mean_sin", "mean_lz"):
            assert rows[name].quadrature == 0.0, name

    def test_variance_rows_propagate_error(self):
        s = build_spectrum(table_family("pinned", PINNED_TABLE), 1.0)
        rows = {r.name: r for r in compare_report(s).rows}
        q1 = mesh_integral(s, "lz")
        q2 = mesh_integral(s, "lz2")
        assert rows["var_lz"].est_error == pytest.approx(
            q2.est_error + 2.0 * abs(q1.value) * q1.est_error
        )

    def test_not_applicable_rows_carry_no_bound(self):
        s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-5)
        d = compare_report(s, tol=1e-8).as_dict()
        for row in d["rows"]:
            if row["passed"] is None:
                assert row["est_error"] is None
            else:
                assert row["est_error"] > 0.0


class TestSharedMesh:
    def test_panel_count_is_smallest_smooth_above_bandwidth(self):
        def smooth(p):
            for f in (2, 3, 5):
                while p % f == 0:
                    p //= f
            return p == 1

        for cutoff in range(0, 3000):
            p = _panel_count(cutoff)
            need = max(2 * cutoff + 3, 32)
            assert p >= need and smooth(p)
            assert not any(smooth(q) for q in range(need, p))

    @pytest.mark.parametrize("which", ["exp", "table", "poly", "hermitian"])
    def test_fft_node_values_match_evaluate_state(self, which, monkeypatch):
        rng = np.random.default_rng(11)
        if which == "exp":
            s = build_spectrum(exponential_family(), 0.01)
        elif which == "poly":
            s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-6)
        elif which == "table":
            coeffs = {
                int(n): complex(rng.normal(), rng.normal())
                for n in rng.integers(-1100, 1101, size=60)
            }
            s = build_spectrum(table_family("wide", coeffs), 1.0)
        else:
            coeffs = {0: rng.normal()}
            for n in rng.integers(1, 1101, size=30):
                coeffs[int(n)] = complex(rng.normal(), rng.normal())
                coeffs[-int(n)] = coeffs[int(n)].conjugate()
            s = build_spectrum(table_family("wide", coeffs), 1.0)
        assert s.cutoff >= 1000
        outputs = []
        irfft = np.fft.irfft

        def recorded(*args, **kwargs):
            outputs.append(irfft(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(np.fft, "irfft", recorded)
        mesh_integral(s, "norm")
        # the first transform is f at the first offset: one row per real part
        rows = outputs[0]
        assert rows.shape == (2 if which == "table" else 1, _panel_count(s.cutoff))
        panels = rows.shape[1]
        h = 2.0 * PI / panels
        delta = h * _gauss_legendre()[0][0]
        values = math.sqrt(s.norm_sq) * (rows[0] + 1j * rows[1] if len(rows) == 2 else rows[0])
        scale = math.sqrt(s.norm_sq) * np.abs(s.coeffs).sum()
        for j in (0, 1, panels // 3, panels // 2, panels - 1):
            # the float nearest the node: -PI + delta + h * j rounds by
            # several ulps of pi, which f' turns into 1e-13 near phi = pi
            with mpmath.workdps(30):
                phi = float(-mpmath.pi + delta + 2 * mpmath.pi * j / panels)
            want = evaluate_state(s, phi)
            assert abs(values[j] - want) <= 1e-13 * scale, j

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double"
    )
    @pytest.mark.parametrize("N, P", [(21, 45), (17757, 36000)])
    def test_phasor_tables_match_mpmath(self, N, P):
        # the bounds of _rounding_floors: node phasors within 6 eps of
        # (-1)^n e^{i n delta_q}, weights within 8 eps of e^{i x_j}.  The
        # reference splits n = 150 a + b too, with 30-digit factors
        # multiplied in long double, which keeps it within 1e-3 eps.
        # sqrt(N + 1) rounds up to an odd number at N = 21.
        split = 150
        h = 2.0 * PI / P
        deltas = [h * u for u in _gauss_legendre()[0]]
        hi, lo, weights = quadrature._phasors(deltas, h, N + 1, P)
        assert weights.shape == (P,)
        # as _mesh_pass forms the rows
        phasors = np.multiply(hi[:, :, np.newaxis], lo[:, np.newaxis, :])
        phasors = phasors.reshape(len(deltas), -1)[:, : N + 1]
        eps = np.finfo(float).eps

        def reference(step, count, lead=1):
            # e^{i n step} lead, n < count, for an mpf step
            def table(values):
                out = np.empty(len(values), dtype=np.clongdouble)
                for i, z in enumerate(values):
                    re, im = float(z.real), float(z.imag)
                    out[i] = complex(re, im)
                    out[i] += np.longdouble(float(z.real - re))
                    out[i] += 1j * np.longdouble(float(z.imag - im))
                return out

            lo = table([mpmath.expj(b * step) for b in range(split)])
            hi = table([lead * mpmath.expj(a * split * step) for a in range(-(-count // split))])
            return np.multiply.outer(hi, lo).ravel()[:count]

        sign = np.where(np.arange(N + 1) % 2, -1.0, 1.0)
        with mpmath.workdps(30):
            for q, delta in enumerate(deltas):
                want = sign * reference(mpmath.mpf(delta), N + 1)
                assert np.max(np.abs(phasors[q] - want)) <= 6.0 * eps, q
            lead = mpmath.expj(mpmath.mpf(deltas[0]) - mpmath.pi)
            want = reference(mpmath.mpf(h), P, lead)
        assert np.max(np.abs(weights - want)) <= 8.0 * eps

    @pytest.mark.parametrize("case", ["exp", "hermitian", "pinned", "even_complex"])
    def test_parts_rebuild_the_coefficients(self, case):
        s = mesh_state(case)
        N = s.cutoff
        pos, neg = s.coeffs[N:], s.coeffs[N::-1]
        parts = quadrature._parts(s)
        if case in ("exp", "hermitian"):  # real-valued: g alone, g_n = c_n
            assert parts.shape == (1, N + 1)
            assert np.array_equal(parts[0], pos)
            return
        g, h = parts
        assert g[0].imag == 0.0 and h[0].imag == 0.0
        # c_n = g_n + i h_n and c_{-n} = conj(g_n) + i conj(h_n), n >= 0
        bound = 2.0 * np.finfo(float).eps * (np.abs(pos) + np.abs(neg))
        assert np.all(np.abs(g + 1j * h - pos) <= bound)
        assert np.all(np.abs(g.conj() + 1j * h.conj() - neg) <= bound)

    def test_gauss_legendre_rule_is_symmetric(self):
        nodes, weights = _gauss_legendre()
        ulp = np.finfo(float).eps
        for q in range(len(nodes)):
            assert abs(nodes[-1 - q] - (1.0 - nodes[q])) <= 4 * ulp, q
            assert abs(weights[-1 - q] - weights[q]) <= 4 * ulp * weights[q], q

    @pytest.mark.parametrize("case", ["exp", "poly", "even_complex", "hermitian", "pinned"])
    def test_every_state_takes_one_irfft_per_offset(self, case, monkeypatch):
        s = mesh_state(case)
        calls = {"ifft": 0, "irfft": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)

            return run

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        r = mesh_integral(s, "lz2")
        # one transform for f per length-P grid of nodes, real or complex, and
        # one for f' on the first grid alone; a mirror-symmetric state
        # (c_{-n} = c_n) is evaluated on half the grids
        grids = r.evaluations // _panel_count(s.cutoff)
        offsets = grids // 2 if case in ("exp", "poly", "even_complex") else grids
        assert calls == {"irfft": offsets + 1, "ifft": 0}
        calls["irfft"] = 0
        mesh_integral(s, "norm")  # no lz integral asked: no f'
        assert calls == {"irfft": offsets, "ifft": 0}

    def test_budget_is_checked_before_any_transform(self, monkeypatch):
        s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-8)

        def no_fft(*args, **kwargs):
            raise AssertionError("transform ran before the budget check")

        monkeypatch.setattr(np.fft, "ifft", no_fft)
        monkeypatch.setattr(np.fft, "irfft", no_fft)
        t0 = time.perf_counter()
        with pytest.raises(ToleranceNotMet):
            compare_report(s, tol=1e-8, max_evals=1000)
        assert time.perf_counter() - t0 < 1.0

    def test_tight_poly_verify_ends(self):
        # N = 17757: ran for more than 500 s under adaptive Simpson
        s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-8)
        rep = compare_report(s, tol=1e-8)
        assert rep.all_passed
        assert max(r.diff for r in rep.rows if r.diff is not None) < 1e-12

    def test_abs_tol_must_be_positive(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        for abs_tol in (0.0, math.nan):
            with pytest.raises(InvalidParameter):
                quad_norm(s, abs_tol=abs_tol)


class TestOnePass:
    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_one_pass_per_call(self, case, monkeypatch):
        s, _ = bound_case(case)
        q, passes = traced_mesh(s, monkeypatch)
        assert len(passes) == 1
        panels = passes[0][0]
        assert panels >= _panel_count(s.cutoff)
        assert {r.evaluations for r in q.values()} == {8 * panels}

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_periodic_integrals_report_their_rounding_floor(self, case, monkeypatch):
        s, _ = bound_case(case)
        q, [(panels, values)] = traced_mesh(s, monkeypatch)
        floors = _rounding_floors(values, panels)
        for name in PERIODIC_INTEGRALS:
            assert q[name].est_error == floors[name], name
        strips = _strip_sums(s)
        for power, name in enumerate(("phi", "phi2"), 1):
            bound = _gauss_bound(*strips, panels, power)
            assert q[name].est_error == bound + floors[name], name

    def test_gauss_bound_is_the_eight_node_theorem(self):
        # the (n+1)-point Gauss error on [-1, 1] is at most (64/15) M
        # rho^(-2n) / (rho^2 - 1) (Trefethen, ATAP, Thm 19.3); 8 nodes, n = 7,
        # times the half-width h/2 on each of the P panels
        panels = 405
        h = 2.0 * PI / panels
        for b in (0.01, 0.05, 0.2):
            t = 2.0 * b / h
            rho = t + math.hypot(t, 1.0)  # rho - 1/rho = 4 b / h
            for power in (1, 2):
                m = 3.0 * (PI + math.hypot(b, h / 2.0)) ** power
                expected = panels * (h / 2.0) * (64.0 / 15.0) * m * rho**-14 / (rho**2 - 1.0)
                got = _gauss_bound(np.array([b]), np.array([math.log(3.0)]), panels, power)
                assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("case", ["spike", "complex_spike", "pinned", "exp1"])
    def test_phi_bound_holds_on_the_first_mesh(self, case):
        # P panels, where the spikes' phi integrals carry the most truncation
        s, exact = bound_case(case)
        panels = _panel_count(s.cutoff)
        even = np.array_equal(s.coeffs, s.coeffs[::-1])
        values = quadrature._mesh_pass(s, panels, False, even)
        floors = _rounding_floors(values, panels)
        strips = _strip_sums(s)
        for power, (name, row) in enumerate([("phi", "mean_phi"), ("phi2", "second_phi")], 1):
            bound = _gauss_bound(*strips, panels, power)
            assert abs(values[name] - exact[row]) <= bound + floors[name], name

    @pytest.mark.parametrize("case, wider", [("spike", True), ("exp1", False)])
    def test_panels_are_chosen_by_the_phi_bound(self, case, wider, monkeypatch):
        s, _ = bound_case(case)
        _, [(panels, _)] = traced_mesh(s, monkeypatch)
        assert (panels > _panel_count(s.cutoff)) == wider

    def test_budget_error_names_the_chosen_panel_count(self, monkeypatch):
        s, _ = bound_case("spike")
        _, [(panels, _)] = traced_mesh(s, monkeypatch)
        assert panels > _panel_count(s.cutoff)
        # enough for every mesh the search passes, not for the one it picks
        with pytest.raises(ToleranceNotMet, match=f"on {panels} panels") as err:
            traced_mesh(s, monkeypatch, max_evals=8 * panels - 1)
        assert f"needs {8 * panels} node evaluations" in str(err.value)

    def test_panel_search_stops_at_the_budget(self, monkeypatch):
        s, _ = bound_case("spike")
        first = _panel_count(s.cutoff)
        tried = []
        bound = quadrature._gauss_bound

        def traced(b, log_m, panels, power):
            tried.append(panels)
            return bound(b, log_m, panels, power)

        monkeypatch.setattr(quadrature, "_gauss_bound", traced)
        # the budget admits the first mesh only, and the bound asks for more
        over = _smooth_length(first + 1)
        with pytest.raises(ToleranceNotMet, match=f"on {over} panels"):
            traced_mesh(s, monkeypatch, max_evals=8 * first)
        assert set(tried) == {first}


class TestConvergenceWithRelTol:
    def test_series_approaches_reference_state_as_rel_tol_tightens(self):
        # family-level check: moments of looser windows converge toward the
        # tightest window's quadrature values
        fam = exponential_family()
        ref = build_spectrum(fam, 0.3, rel_tol=1e-13)
        ref_phi2 = mesh_integral(ref, "phi2").value
        ref_lz2 = mesh_integral(ref, "lz2").value
        diffs = []
        for rel in (1e-4, 1e-7, 1e-10):
            s = build_spectrum(fam, 0.3, rel_tol=rel)
            from unclab import lz_moments, phi_moments

            _, second_phi, _ = phi_moments(s)
            _, second_lz, _ = lz_moments(s)
            diffs.append(abs(second_phi - ref_phi2) + abs(second_lz - ref_lz2))
        assert diffs[0] > diffs[2]
        assert all(d <= diffs[0] + 1e-12 for d in diffs)
        assert diffs[2] < 1e-8
