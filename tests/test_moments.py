"""Series moments against hand values, brute-force pair sums, and quadrature."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unclab import (
    CoefficientFamily,
    DivergentMoment,
    TrigReport,
    build_spectrum,
    compare_report,
    evaluate_family,
    exponential_family,
    family_from_dict,
    lz_moments,
    phi_moments,
    polynomial_family,
    single_mode_family,
    table_family,
    trig_report,
    two_mode_family,
    uncertainty_report,
    xi_sum,
)
from unclab import moments, spectrum

from oracles import exp_xi_resummed

PI = math.pi
PI2_3 = PI**2 / 3.0

# A table state on which adaptive Simpson converged falsely (Lyness 1969):
# its mean_lz quadrature was off by 9.4e-10 with est_error 4.2e-11, so the
# var_lz row missed tol 1e-9.
PINNED_TABLE = {
    0: 1.2403705806321854,
    -1: 0.97265625,
    -4: -1.9778407743282225j,
    6: 0.5706432505115271j,
    -6: -1.9279289510115802j,
}


EXP_PHASE = CoefficientFamily(
    "exp_phase", lambda n, a: np.exp(-a * np.abs(n) + 0.3j * n), is_real=False
)
MIXED_DOCUMENT = {
    "name": "mixed",
    "symmetric": False,
    "real": False,
    "entries": [
        {"n": -3, "expr": "exp", "scale": 0.5},
        {"n": 0, "expr": "exp"},
        {"n": 2, "expr": "poly", "scale": -1.5},
        {"n": 5, "expr": "table"},
    ],
    "table": {"1.0": [[5, 0.25, -0.75]]},
}


# ---------------------------------------------------------------------------
# brute-force pair-sum oracles (never shell-ordered; complex kernels kept)
# ---------------------------------------------------------------------------

def brute_xi(spec) -> complex:
    N = spec.cutoff
    total = 0.0 + 0.0j
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            if m == n:
                continue
            k = n - m
            total += (
                complex(spec.coeffs[m + N]).conjugate()
                * complex(spec.coeffs[n + N])
                * (-1.0) ** abs(k)
                / k**2
            )
    return total


def brute_mean_phi(spec) -> complex:
    N = spec.cutoff
    total = 0.0 + 0.0j
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            if m == n:
                continue
            k = n - m
            total += (
                complex(spec.coeffs[m + N]).conjugate()
                * complex(spec.coeffs[n + N])
                * (-1.0) ** abs(k)
                / (1j * k)
            )
    return 2.0 * PI * spec.norm_sq * total


def coeff_dicts(max_index=6):
    entry = st.tuples(
        st.integers(-max_index, max_index),
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
        ),
    )
    return (
        st.lists(entry, min_size=1, max_size=9)
        .map(dict)
        .filter(lambda d: any(abs(v) > 1e-6 for v in d.values()))
    )


class TestXiSum:
    def test_two_mode_is_one_eighth(self):
        # (m, n) = (-1, +1) and (+1, -1): each (1/2)(1/2) (+1)/4 = 1/16
        s = build_spectrum(two_mode_family(), 1.0)
        assert xi_sum(s) == pytest.approx(0.125, abs=1e-15)

    def test_single_mode_empty_sum(self):
        s = build_spectrum(single_mode_family(2), 1.0)
        assert xi_sum(s) == 0.0

    def test_exponential_matches_appendix_resummation(self):
        s = build_spectrum(exponential_family(), 1.0)
        assert abs(xi_sum(s) - exp_xi_resummed(1.0)) < 1e-10

    @given(coeffs=coeff_dicts())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_pair_sum(self, coeffs):
        s = build_spectrum(table_family("random", coeffs), 1.0)
        brute = brute_xi(s)
        assert abs(brute.imag) < 1e-10  # Hermitian form is real
        assert abs(xi_sum(s) - brute.real) < 1e-12 * max(1.0, abs(brute.real))


class TestPhiMoments:
    def test_single_mode_uniform_density(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        mean, second, var = phi_moments(s)
        assert mean == 0.0
        assert second == pytest.approx(PI2_3, abs=0.0)
        assert var == pytest.approx(PI2_3, abs=0.0)

    def test_lz_eigenstate_at_m_three_is_also_uniform(self):
        s = build_spectrum(single_mode_family(3), 1.0)
        _, _, var = phi_moments(s)
        assert var == pytest.approx(PI2_3, abs=1e-15)

    def test_two_mode_hand_value(self):
        s = build_spectrum(two_mode_family(), 1.0)
        mean, second, var = phi_moments(s)
        assert mean == 0.0
        assert var == pytest.approx(PI2_3 + 0.5, abs=1e-12)

    def test_real_symmetric_family_has_zero_mean(self):
        for a in (0.3, 1.0, 5.0):
            s = build_spectrum(exponential_family(), a)
            mean, _, _ = phi_moments(s)
            assert abs(mean) < 1e-14

    @pytest.mark.parametrize(
        "family, alpha, rel_tol, zero",
        [
            (exponential_family(), 1.0, 1e-12, True),
            (exponential_family(), 0.05, 1e-12, True),
            (polynomial_family(), 2.2, 1e-8, True),
            (polynomial_family(), 5.0, 1e-12, True),
            (table_family("mirror", {-2: 0.5, -1: 1.0, 0: 2.0, 1: 1.0, 2: 0.5}), 1.0, 1e-12, True),
            (
                CoefficientFamily(
                    "exp_phase",
                    lambda n, a: np.exp(-a * np.abs(n) + 0.3j * n),
                    is_real=False,
                ),
                1.0,
                1e-12,
                False,
            ),
            (table_family("complex", {-1: 0.5 + 0.25j, 0: 1.0, 2: -0.5j}), 1.0, 1e-12, False),
        ],
    )
    def test_symmetric_sums_are_plus_zero_with_the_full_sums_bits(
        self, family, alpha, rel_tol, zero
    ):
        s = build_spectrum(family, alpha, rel_tol=rel_tol)
        n = s.cutoff
        sq = np.abs(s.coeffs) ** 2
        ns = np.arange(1, n + 1, dtype=float)
        full_n1 = spectrum._fsum(ns * sq[n + 1 :]) - spectrum._fsum(ns * sq[n - 1 :: -1])
        k = np.arange(1, 2 * n + 1)
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        full_mean = 4.0 * PI * s.norm_sq * spectrum._fsum(signs * s.shells.imag / k)
        mean = phi_moments(s)[0]
        assert s.sum_n1.hex() == full_n1.hex()
        assert mean.hex() == full_mean.hex()
        if zero:
            assert repr(s.sum_n1) == repr(mean) == "0.0"
        else:
            assert mean != 0.0

    @pytest.mark.parametrize(
        "family, alpha, rel_tol",
        [
            (CoefficientFamily("exp_generic", exponential_family().rule), 0.01, 1e-12),
            (EXP_PHASE, 0.005, 1e-12),
            (polynomial_family(), 1.4, 1e-8),  # N = 17757
            (family_from_dict(MIXED_DOCUMENT), 1.0, 1e-12),
        ],
        ids=["exp-renamed", "exp-phase", "poly-1.4", "mixed-document"],
    )
    def test_parity_on_the_divisors_keeps_the_sign_vector_bits(self, family, alpha, rel_tol):
        s = build_spectrum(family, alpha, rel_tol=rel_tol)
        k = np.arange(1, s.shells.size + 1, dtype=float)
        signs = np.where(np.arange(1, s.shells.size + 1) % 2 == 0, 1.0, -1.0)
        xi = 2.0 * spectrum._fsum(signs * s.shells.real / (k * k))
        mean = 4.0 * PI * s.norm_sq * spectrum._fsum(signs * s.shells.imag / k)
        if not np.count_nonzero(s.shells.imag):
            mean = 0.0
        second = PI2_3 + 4.0 * PI * s.norm_sq * xi
        want = (mean, second, second - mean * mean, xi)
        got = (*phi_moments(s), xi_sum(s))
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_complex_two_mode_mean_sign_convention(self):
        # c_0 = 1, c_1 = i: |f|^2 = (1 - sin phi)/(2 pi), so <phi> = -1
        s = build_spectrum(table_family("chiral", {0: 1.0, 1: 1j}), 1.0)
        mean, _, _ = phi_moments(s)
        assert mean == pytest.approx(-1.0, abs=1e-12)

    @given(coeffs=coeff_dicts())
    @settings(max_examples=40, deadline=None)
    def test_mean_matches_brute_force(self, coeffs):
        s = build_spectrum(table_family("random", coeffs), 1.0)
        brute = brute_mean_phi(s)
        assert abs(brute.imag) < 1e-10
        mean, second, var = phi_moments(s)
        assert abs(mean - brute.real) < 1e-12
        assert var == pytest.approx(second - mean * mean, abs=1e-12)

    @given(coeffs=coeff_dicts())
    @settings(max_examples=40, deadline=None)
    def test_variance_within_zero_and_pi_squared(self, coeffs):
        s = build_spectrum(table_family("random", coeffs), 1.0)
        _, _, var = phi_moments(s)
        assert -1e-12 <= var <= PI**2 + 1e-12


class TestLzMoments:
    def test_eigenstate_has_zero_variance(self):
        for m in (0, 1, -4):
            s = build_spectrum(single_mode_family(m), 1.0)
            mean, second, var = lz_moments(s)
            assert mean == pytest.approx(float(m), abs=0.0)
            assert second == pytest.approx(float(m * m), abs=0.0)
            assert var == 0.0

    @pytest.mark.parametrize("m", [3, 5, 8])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.3, 1.0, 7.0])
    def test_single_mode_variance_is_never_negative(self, m, scale):
        # <L_z^2> - <L_z>^2 cancels to a +-1e-14 residue here, e.g. -1.8e-15
        # for m = 3 at scale 0.1, whose square root would be a domain error
        fam = table_family("t", {m: scale})
        assert lz_moments(build_spectrum(fam, 1.0))[2] >= 0.0
        assert evaluate_family(fam, 1.0).product >= 0.0

    def test_two_mode_unit_variance(self):
        s = build_spectrum(two_mode_family(), 1.0)
        mean, second, var = lz_moments(s)
        assert mean == 0.0
        assert var == pytest.approx(1.0, abs=1e-15)

    def test_exponential_closed_form(self):
        s = build_spectrum(exponential_family(), 1.0)
        _, _, var = lz_moments(s)
        assert var == pytest.approx(1.0 / (2.0 * math.sinh(1.0) ** 2), abs=1e-12)
        assert var == pytest.approx(0.36203083048315523, abs=1e-12)

    def test_divergent_polynomial_raises(self):
        s = build_spectrum(polynomial_family(), 1.2, rel_tol=1e-6)
        with pytest.raises(DivergentMoment):
            lz_moments(s)


class TestUncertaintyReport:
    def test_exponential_alpha_one(self):
        rep = uncertainty_report(build_spectrum(exponential_family(), 1.0))
        assert rep.var_phi * rep.var_lz == pytest.approx(0.35513887348905629, abs=1e-9)
        assert rep.var_phi * rep.var_lz > 0.25
        assert rep.state_bound == pytest.approx(0.41867992071787263, abs=1e-8)

    def test_exponential_alpha_two_violates_hr(self):
        rep = uncertainty_report(build_spectrum(exponential_family(), 2.0))
        assert rep.var_phi * rep.var_lz < 0.25

    def test_single_mode_saturates_trivially(self):
        rep = uncertainty_report(build_spectrum(single_mode_family(0), 1.0))
        assert rep.var_phi * rep.var_lz == 0.0
        assert rep.state_bound == pytest.approx(0.0, abs=1e-14)

    def test_state_dependent_bound_on_grid(self):
        for a in np.geomspace(0.05, 10.0, 12):
            rep = uncertainty_report(build_spectrum(exponential_family(), float(a)))
            assert math.sqrt(rep.var_phi * rep.var_lz) >= rep.state_bound - 1e-10

    def test_divergent_lz_reads_as_infinite_variance(self):
        # lz_moments raises on this state (TestLzMoments); the report keeps
        # its angle moments and reports sigma_Lz^2 = +inf
        s = build_spectrum(polynomial_family(), 1.2, rel_tol=1e-6)
        rep = uncertainty_report(s)
        assert rep.second_lz == rep.var_lz == math.inf
        assert math.isnan(rep.mean_lz)
        assert (rep.mean_phi, rep.second_phi, rep.var_phi) == phi_moments(s)
        with pytest.raises(DivergentMoment, match="sigma_Lz does not exist"):
            lz_moments(s)

    def test_var_phi_consistency(self):
        rep = uncertainty_report(build_spectrum(exponential_family(), 0.7))
        assert rep.var_phi == pytest.approx(
            rep.second_phi - rep.mean_phi**2, abs=1e-12
        )

    def test_one_shell_pass_shared_with_phi_moments_and_xi(self, monkeypatch):
        poly = polynomial_family()
        states = [
            build_spectrum(exponential_family(), 0.3),
            build_spectrum(CoefficientFamily(name="poly_generic", rule=poly.rule), 2.2),
            build_spectrum(table_family("pinned", PINNED_TABLE), 1.0),
        ]
        passes = []
        shell_sums = spectrum._shell_sums

        def counted(coeffs):
            passes.append(coeffs.size)
            return shell_sums(coeffs)

        monkeypatch.setattr(spectrum, "_shell_sums", counted)
        for s in states:
            passes.clear()
            rep = uncertainty_report(s)
            tr = trig_report(s)
            mean, second, var = phi_moments(s)
            xi = xi_sum(s)
            compare_report(s)
            # every angle and trig moment of a state reads one shell pass
            assert passes == [s.coeffs.size]
            assert (rep.mean_phi, rep.second_phi, rep.var_phi) == (mean, second, var)
            assert rep.second_phi == PI2_3 + 4.0 * PI * s.norm_sq * xi
            assert tr == trig_report(s)
            assert s.shells.shape == (2 * s.cutoff,)
            assert not s.shells.flags.writeable
            with pytest.raises(ValueError):
                s.shells[0] = 0.0


class TestShellSums:
    """The FFT shells against the pair-sum definition, shell by shell.

    The autocorrelation's error is absolute, about eps * sum |c|^2 per
    shell; the largest seen on these windows is 3.8 eps sum |c|^2, and
    the bound allows 16.
    """

    @pytest.mark.parametrize("which", ["poly", "exp_phased"])
    def test_matches_pair_sums(self, which):
        if which == "poly":
            s = build_spectrum(polynomial_family(), 1.4, rel_tol=1e-8)
            assert s.cutoff == 17757
        else:
            exp = exponential_family()
            phased = CoefficientFamily(
                name="exp_phased",
                rule=lambda n, a: exp.rule(n, a) * np.exp(0.7j * n),
                is_real=False,
            )
            s = build_spectrum(phased, 0.005)
            assert s.cutoff == 3405
        c = s.coeffs
        if np.any(c.imag):
            want = np.correlate(c, c, "full")[c.size :]
        else:
            want = np.correlate(c.real, c.real, "full")[c.size :]
        got = spectrum._shell_sums(c)
        assert got.shape == want.shape
        bound = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(c) ** 2))
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("case", ["modes_3_4", "table_pm5", "exp_1"])
    def test_symmetric_branch_edges(self, case, monkeypatch):
        # {3, 4}: an even-length support, trimmed inside its window, takes
        # the general path; {-5, 5} is mirror-symmetric with a zero centre
        # and zeros inside; exp at alpha 1 is a whole built-in window
        if case == "modes_3_4":
            s = build_spectrum(table_family("modes_3_4", {3: 1.0, 4: 1.0}), 1.0)
        elif case == "table_pm5":
            s = build_spectrum(table_family("pm5", {-5: 1.0, 5: 1.0}), 1.0)
        else:
            s = build_spectrum(exponential_family(), 1.0)
        nonzero = np.flatnonzero(s.coeffs)
        support = s.coeffs[nonzero[0] : nonzero[-1] + 1].real
        span = support.size - 1
        half = span // 2
        symmetric = span % 2 == 0 and np.array_equal(support, support[::-1])
        assert symmetric == (case != "modes_3_4")
        lengths = []
        rfft = np.fft.rfft

        def recorded(a, n=None, *args, **kwargs):
            lengths.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        bound = 16.0 * np.finfo(float).eps * float(np.sum(np.abs(s.coeffs) ** 2))
        # the window itself, and the same support padded unevenly
        for c in (s.coeffs, np.pad(s.coeffs, (3, 5))):
            lengths.clear()
            got = spectrum._shell_sums(c)
            want = np.correlate(c.real, c.real, "full")[c.size :]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= bound
            assert not np.any(got.imag)
            assert not np.any(got[span:])  # past the support
            # the half-length transform covers 3 H + 1 points, the general
            # one 2 m - 1 for the m modes of the support
            need = 3 * half + 1 if symmetric else 2 * span + 1
            assert lengths == [spectrum._smooth_length(need)]
        assert phi_moments(s)[0] == 0.0

    def test_real_window_gives_exactly_real_shells(self):
        for s in (
            build_spectrum(exponential_family(), 0.01),
            build_spectrum(polynomial_family(), 2.2),
            build_spectrum(two_mode_family(), 1.0),
        ):
            assert not np.any(spectrum._shell_sums(s.coeffs).imag)
            assert phi_moments(s)[0] == 0.0

    def test_import_leaves_numpy_fft_unloaded(self):
        src = str(Path(moments.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = "import sys, unclab; print('numpy.fft' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestTrigReport:
    def test_exponential_mean_sin_vanishes(self):
        for a in (0.2, 1.0, 3.0):
            tr = trig_report(build_spectrum(exponential_family(), a))
            assert abs(tr.mean_sin) < 1e-14

    def test_exponential_alpha_one_closed_values(self):
        tr = trig_report(build_spectrum(exponential_family(), 1.0))
        assert tr.mean_cos == pytest.approx(1.0 / math.cosh(1.0), abs=1e-10)
        assert tr.mean_cos == pytest.approx(0.64805427366388540, abs=1e-10)
        # closed form (e^2 + e^-2 - 2)/(2 (e^2 + 1))
        e2 = math.exp(2.0)
        want = (e2 + 1.0 / e2 - 2.0) / (2.0 * (e2 + 1.0))
        assert tr.var_sin == pytest.approx(want, abs=1e-10)
        assert tr.var_sin == pytest.approx(0.32926179757407123, abs=1e-10)
        assert tr.var_cos == pytest.approx(0.25076386081190270, abs=1e-10)

    def test_relation_residuals_nonnegative_on_grid(self):
        for a in np.geomspace(0.05, 10.0, 12):
            tr = trig_report(build_spectrum(exponential_family(), float(a)))
            assert tr.sin_relation_residual >= -1e-12
            assert tr.cos_relation_residual >= -1e-12

    def test_single_mode_has_no_shells(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        assert s.cutoff == 0
        tr = trig_report(s)
        assert tr == TrigReport(-0.0, 0.0, 0.5, 0.5, 0.0, 0.0)
        assert math.copysign(1.0, tr.mean_sin) == -1.0

    def test_divergent_variance_gives_infinite_residuals(self):
        s = build_spectrum(polynomial_family(), 1.2, rel_tol=1e-6)
        tr = trig_report(s)
        assert math.isinf(tr.sin_relation_residual)
        assert math.isinf(tr.cos_relation_residual)
        assert -1.0 <= tr.mean_cos <= 1.0

    @given(coeffs=coeff_dicts())
    @settings(max_examples=40, deadline=None)
    def test_ranges_and_completeness(self, coeffs):
        tr = trig_report(build_spectrum(table_family("random", coeffs), 1.0))
        assert -1.0 - 1e-12 <= tr.mean_sin <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= tr.mean_cos <= 1.0 + 1e-12
        assert -1e-12 <= tr.var_sin <= 1.0 + 1e-12
        assert -1e-12 <= tr.var_cos <= 1.0 + 1e-12
        # <sin^2> + <cos^2> = 1
        sin_sq = tr.var_sin + tr.mean_sin**2
        cos_sq = tr.var_cos + tr.mean_cos**2
        assert sin_sq + cos_sq == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    @given(coeffs=coeff_dicts())
    @example(coeffs=PINNED_TABLE)
    @settings(max_examples=10, deadline=None)
    def test_random_spectra_match_quadrature(self, coeffs):
        s = build_spectrum(table_family("random", coeffs), 1.0)
        assert compare_report(s, tol=1e-9).all_passed

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exponential_matches_quadrature(self, alpha):
        s = build_spectrum(exponential_family(), alpha)
        assert compare_report(s, tol=1e-9).all_passed
