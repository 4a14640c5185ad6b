"""Spectrum construction, normalization, state evaluation, tail diagnostics."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclab import (
    CoefficientFamily,
    DegenerateState,
    InvalidParameter,
    NonConvergent,
    boundary_density,
    build_spectrum,
    exponential_family,
    family_from_dict,
    polynomial_family,
    single_mode_family,
    table_family,
    tail_second_moment,
    two_mode_family,
)
from unclab import special, spectrum
from unclab.spectrum import _tail_estimate, _tail_samples

from oracles import evaluate_state
from test_quadrature import mesh_integral

PI = math.pi

# Renamed copies of the built-ins: other values, so they run the ring engine
# (grown windows, fitted tails, probes) that callables and documents use.
RING_EXP = CoefficientFamily("exp_ring", exponential_family().rule)
RING_POLY = CoefficientFamily("poly_ring", polynomial_family().rule)
# e^{-alpha |n|} e^{0.7 i n}: complex amplitudes with the exp moduli
PHASE_EXP = CoefficientFamily(
    "exp_phase", lambda n, alpha: np.exp(-alpha * np.abs(n) + 0.7j * n), is_real=False
)


def exact_tails(family, alpha, N):
    """40-digit (sum_{|n|>N} n^2 |C_n|^2, sum_{|n|>N} |C_n|^2) for exp or poly."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        M = N + 1
        if family == "exp":
            # sum_{n>=M} n^2 r^n = r^M (M^2 - (2M^2 - 2M - 1) r + (M-1)^2 r^2) / (1-r)^3
            r = mpmath.exp(-2 * a)
            v = r**M * (M * M - (2 * M * M - 2 * M - 1) * r + (M - 1) ** 2 * r * r)
            return float(2 * v / (1 - r) ** 3), float(2 * r**M / (1 - r))
        return float(2 * mpmath.zeta(2 * a - 2, M)), float(2 * mpmath.zeta(2 * a, M))


def coeff_dicts(max_index=6):
    """Random complex amplitude dictionaries with at least one solid entry."""
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


@pytest.fixture
def no_ring(monkeypatch):
    """Fail the test if the ring engine grows, fits or probes."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the ring engine ran")

    for name in ("_tail_estimate", "_probe_ok", "_rings"):
        monkeypatch.setattr(spectrum, name, forbidden)


class TestBuildSpectrum:
    def test_exponential_norm_sq_closed_form(self):
        # sum e^{-2a|n|} = coth(a), so |A|^2 = tanh(a)/(2 pi)
        s = build_spectrum(exponential_family(), 1.0, rel_tol=1e-12)
        assert abs(s.norm_sq - math.tanh(1.0) / (2 * PI)) < 1e-13
        # cross-check against direct summation (ulp-level: np.exp vs math.exp)
        direct = math.fsum(
            abs(math.exp(-abs(n))) ** 2 for n in range(-s.cutoff, s.cutoff + 1)
        )
        assert abs(2 * PI * s.norm_sq * direct - 1.0) < 1e-15

    def test_normalization_invariant(self):
        for fam, a in [
            (exponential_family(), 0.3),
            (exponential_family(), 5.0),
            (two_mode_family(), 1.0),
            (polynomial_family(), 2.5),
        ]:
            s = build_spectrum(fam, a)
            total = 2 * PI * s.norm_sq * math.fsum(np.abs(s.coeffs) ** 2)
            assert abs(total - 1.0) < 1e-12

    def test_single_mode_cutoff_can_be_zero(self):
        s = build_spectrum(single_mode_family(0), 3.7)
        assert s.cutoff == 0
        assert abs(s.norm_sq - 1.0 / (2 * PI)) < 1e-16

    def test_single_mode_off_center(self):
        s = build_spectrum(single_mode_family(4), 1.0)
        assert s.cutoff == 4
        assert s.coeffs[4 + 4] == 1.0 and s.coeffs[-4 + 4] == 0.0

    def test_poly_slow_normalization_builds_with_divergent_lz(self):
        # alpha = 1.2: sum |C_n|^2 converges, sum n^2 |C_n|^2 does not
        s = build_spectrum(polynomial_family(), 1.2, rel_tol=1e-6)
        assert math.isinf(s.tail_bound)
        assert s.lz_divergent

    def test_poly_exactly_three_halves_divergent(self):
        s = build_spectrum(polynomial_family(), 1.5, rel_tol=1e-6)
        assert s.lz_divergent

    def test_poly_above_three_halves_has_finite_tail(self):
        s = build_spectrum(polynomial_family(), 1.6, rel_tol=1e-6)
        assert not s.lz_divergent
        assert s.tail_bound >= 0.0

    def test_cutoff_monotonicity_in_n_max(self):
        rel = 1e-10
        a = build_spectrum(exponential_family(), 0.7, rel_tol=rel, n_max=200)
        b = build_spectrum(exponential_family(), 0.7, rel_tol=rel, n_max=20000)
        assert abs(a.norm_sq - b.norm_sq) <= rel * b.norm_sq

    def test_nonconvergent_when_window_too_small(self):
        with pytest.raises(NonConvergent):
            build_spectrum(exponential_family(), 1e-4, n_max=1000)

    def test_ring_engine_gives_up_at_n_max(self):
        # a slow e^{-alpha n / 1000} envelope under an oscillation that no
        # fit of the outer half resolves within 64 indices
        wobble = CoefficientFamily(
            "wobble", lambda n, a: np.exp(-a * np.abs(n) / 1000.0) * (2.0 + np.sin(n))
        )
        with pytest.raises(NonConvergent) as info:
            build_spectrum(wobble, 1.0, n_max=64)
        assert str(info.value) == (
            "family 'wobble' at alpha=1.0: tail criteria not met within n_max=64 "
            "(|C_n|^2 tail: unresolved, n^2|C_n|^2 tail: unresolved)"
        )

    def test_nonconvergent_for_non_normalizable_family(self):
        with pytest.raises(NonConvergent):
            build_spectrum(polynomial_family(), 0.4, rel_tol=1e-6, n_max=5000)

    @pytest.mark.parametrize(
        "family, alpha, slope", [(RING_EXP, 1e-8, "-0.000"), (RING_POLY, 0.4, "0.800")]
    )
    def test_flat_normalization_fit_is_reported_not_called_divergent(
        self, family, alpha, slope
    ):
        # ring engine: exp at alpha 1e-8 converges, but looks flat on its
        # first ring; poly at 0.4 truly diverges.  Both report what the fit
        # measured.
        with pytest.raises(NonConvergent) as info:
            build_spectrum(family, alpha)
        msg = str(info.value)
        assert "sum |C_n|^2 diverges or decays too slowly to resolve" in msg
        assert f"fitted slope {slope} <= 1.01 over n = 8..16" in msg

    @pytest.mark.parametrize(
        "family, alpha",
        [("exp", 0.01), ("exp", 0.3), ("exp", 1.0), ("exp", 3.0),
         ("poly", 2.2), ("poly", 3.0)],
    )
    def test_tail_fields_bound_the_exact_tails(self, family, alpha):
        fam = exponential_family() if family == "exp" else polynomial_family()
        s = build_spectrum(fam, alpha)
        v_exact, u_exact = exact_tails(family, alpha, s.cutoff)
        assert abs(s.tail_bound - v_exact) <= s.tail_err
        assert s.norm_tail >= 0.0
        assert abs(s.norm_tail - u_exact) <= 1e-6 * u_exact

    @pytest.mark.parametrize(
        "alpha, rel_tol",
        [(a, 1e-8) for a in (1.7, 1.8, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0)]
        + [(a, 1e-12) for a in (4.5, 5.0, 6.0, 8.0, 10.0)],
    )
    def test_tail_err_bounds_power_law_tails(self, alpha, rel_tol):
        # fitted Euler-Maclaurin completions whose tail_err is at its
        # tightest (|tail_bound - exact| / tail_err reaches 0.9986 at 1e-12)
        s = build_spectrum(RING_POLY, alpha, rel_tol=rel_tol)
        v_exact, _ = exact_tails("poly", alpha, s.cutoff)
        assert abs(s.tail_bound - v_exact) <= s.tail_err
        assert s.norm_tail >= 0.0

    def test_one_tail_fit_per_ring(self, monkeypatch):
        fits, edges, ring_calls, probing = [], [], [], []
        real_lstsq, real_rings, real_probe_ok = np.linalg.lstsq, spectrum._rings, spectrum._probe_ok

        def lstsq(a, b, *args, **kwargs):
            fits.append(b.shape)
            return real_lstsq(a, b, *args, **kwargs)

        def rings(*args):
            for ring in real_rings(*args):
                edges.append(ring.edge)
                yield ring

        def probe_ok(*args, **kwargs):
            probing.append(True)
            try:
                return real_probe_ok(*args, **kwargs)
            finally:
                probing.pop()

        def counted(rule):
            def counting(n, alpha):
                if not probing:
                    ring_calls.append(n.size)
                return rule(n, alpha)

            return counting

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        monkeypatch.setattr(spectrum, "_rings", rings)
        monkeypatch.setattr(spectrum, "_probe_ok", probe_ok)
        for family, alpha, rel_tol in ((RING_POLY, 2.2, 1e-8), (RING_EXP, 0.01, 1e-12)):
            for log in (fits, edges, ring_calls):
                log.clear()
            build_spectrum(CoefficientFamily("counted", counted(family.rule)), alpha, rel_tol)
            assert len(edges) > 1
            # one fit per ring, its right-hand sides the u, v and x tails
            assert len(fits) == len(edges)
            assert all(len(shape) == 2 and shape[1] == 3 for shape in fits)
            # one coefficients call per ring on both signs, the first with n = 0
            assert ring_calls == [2 * edges[0] + 1] + [
                2 * (b - a) for a, b in zip(edges, edges[1:])
            ]
            assert edges[0] == 16
            assert all(2 * a <= b <= 8 * a for a, b in zip(edges, edges[1:]))

    # Indices evaluated per kept index on two grids of renamed built-ins
    # when every ring doubled the window (1.5673 and 1.4646, probes
    # included); the predicted rings must not evaluate more.
    DOUBLING_EXP_INDICES_PER_KEPT = 1.568
    DOUBLING_POLY_INDICES_PER_KEPT = 1.465

    @pytest.mark.parametrize(
        "family, alphas, rel_tol, doubling",
        [
            (RING_EXP, np.geomspace(1e-3, 1.0, 24), 1e-12, DOUBLING_EXP_INDICES_PER_KEPT),
            (RING_POLY, np.geomspace(1.7, 8.0, 24), 1e-8, DOUBLING_POLY_INDICES_PER_KEPT),
        ],
        ids=["exp", "poly"],
    )
    def test_rings_evaluate_no_more_than_doubling(
        self, family, alphas, rel_tol, doubling, evaluations
    ):
        kept = sum(2 * build_spectrum(family, a, rel_tol).cutoff + 1 for a in alphas.tolist())
        assert sum(n.size for n in evaluations) / kept <= doubling

    @pytest.mark.parametrize(
        "family, alpha, rel_tol, cutoff",
        [
            (RING_EXP, 0.01, 1e-12, 1703),
            (RING_POLY, 2.2, 1e-12, 3828),
            (PHASE_EXP, 0.005, 1e-12, 3405),
        ],
        ids=["exp", "poly", "phase"],
    )
    def test_series_ring_states(self, family, alpha, rel_tol, cutoff):
        # the ring-built states of the benchmark's series workload; the phase
        # family has the exp moduli, so the exp tails
        s = build_spectrum(family, alpha, rel_tol)
        assert s.cutoff == cutoff
        v_exact, _ = exact_tails("poly" if family is RING_POLY else "exp", alpha, s.cutoff)
        assert abs(s.tail_bound - v_exact) <= s.tail_err

    @pytest.mark.parametrize(
        "family, alpha, rel_tol, cutoff",
        [
            (exponential_family(), 0.01, 1e-12, 1703),
            (exponential_family(), 0.005, 1e-12, 3405),
            (RING_POLY, 2.2, 1e-12, 3828),
            (polynomial_family(), 1.6, 1e-8, 2820),
            (polynomial_family(), 1.4, 1e-8, 17757),
            (polynomial_family(), 2.2, 1e-12, 3828),
            # reading the dropped in-window part as a difference of forward
            # cumulative sums loses about N eps of the total: it under-reads
            # this tail and accepts N = 93987, where the exact |C_n|^2 tail
            # is 4.5 times the allowed one ...
            (RING_POLY, 1.6, 1e-12, 185545),
            # ... and over-reads this one, taking N = 27615
            (RING_POLY, 1.773000297964125, 1.9003565227691208e-12, 26593),
        ],
    )
    def test_wide_window_cutoffs(self, family, alpha, rel_tol, cutoff):
        assert build_spectrum(family, alpha, rel_tol=rel_tol).cutoff == cutoff

    def test_degenerate_state(self):
        zero = table_family("nothing", {0: 0.0})
        with pytest.raises(DegenerateState):
            build_spectrum(zero, 1.0)

    def test_probes_keep_mass_past_a_quiet_stretch(self):
        # e^{-|n|} plus spikes of 1e-3 at n = +-64: the fitted tails pass at
        # N = 21, and only the probe past that edge sees the spikes
        def rule(n, alpha):
            return np.exp(-alpha * np.abs(n)) + np.where(np.abs(n) == 64, 1e-3, 0.0)

        s = build_spectrum(CoefficientFamily("spiked", rule), 1.0)
        assert s.cutoff == 64
        assert s.coeffs[0] == s.coeffs[-1] == pytest.approx(1e-3 + math.exp(-64.0))

    def test_underflowing_amplitudes_are_degenerate(self, evaluations):
        # |1e-200|^2 underflows to 0 everywhere: the zero-tail test stops
        # after the first ring and its probes instead of growing to n_max
        def rule(n, alpha):
            return np.full(np.shape(n), 1e-200)

        with pytest.raises(DegenerateState) as exc_info:
            build_spectrum(CoefficientFamily("tiny", rule), 1.0)
        assert str(exc_info.value) == (
            "family 'tiny' at alpha=1.0: all amplitudes below the underflow threshold"
        )
        assert sum(n.size for n in evaluations) == 41

    @pytest.mark.parametrize("alpha", [0.0, -3.0, math.nan])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(InvalidParameter):
            build_spectrum(exponential_family(), alpha)

    def test_invalid_rel_tol(self):
        with pytest.raises(InvalidParameter):
            build_spectrum(exponential_family(), 1.0, rel_tol=0.0)

    @given(coeffs=coeff_dicts())
    @settings(max_examples=60, deadline=None)
    def test_normalization_property_random_tables(self, coeffs):
        fam = table_family("random", coeffs)
        s = build_spectrum(fam, 1.0)
        total = 2 * PI * s.norm_sq * math.fsum(np.abs(s.coeffs) ** 2)
        assert abs(total - 1.0) < 1e-12


FIG2_ALPHAS = np.geomspace(1.6, 50.0, 160).tolist()


def ring_and_exact(family, alpha, rel_tol):
    ring = RING_EXP if family is exponential_family() else RING_POLY
    return build_spectrum(ring, alpha, rel_tol=rel_tol), build_spectrum(
        family, alpha, rel_tol=rel_tol
    )


def exact_sensitivity_ratio(alpha, rel_tol, N):
    """40-digit poly sum_{|n|>N} |C_n|/n^2 over rel_tol times the retained sum."""
    with mpmath.workdps(40):
        s = mpmath.mpf(alpha) + 2
        tail = mpmath.zeta(s, N + 1)
        return float(tail / (mpmath.mpf(rel_tol) * (mpmath.zeta(s) - tail)))


class TestExactTails:
    """The built-ins find their cutoff from closed-form tails, without rings."""

    def test_fig2_cutoffs_and_windows_match_the_ring_engine(self):
        for alpha in FIG2_ALPHAS:
            ring, exact = ring_and_exact(polynomial_family(), alpha, 1e-8)
            assert exact.cutoff == ring.cutoff
            assert np.array_equal(exact.coeffs, ring.coeffs)
            for name in ("norm_sq", "sum_sq", "sum_n1", "sum_n2"):
                assert getattr(exact, name) == getattr(ring, name)

    @pytest.mark.parametrize(
        "family, alpha, rel_tol",
        [
            # the five built-in verify states (exp, poly; default rel_tol)
            (exponential_family(), 1.0, 1e-12),
            (exponential_family(), 0.1, 1e-12),
            (polynomial_family(), 3.0, 1e-12),
            (polynomial_family(), 1.6, 1e-5),
            (polynomial_family(), 1.4, 1e-8),
            # the wide-window pins
            (exponential_family(), 0.01, 1e-12),
            (exponential_family(), 0.005, 1e-12),
            (polynomial_family(), 1.6, 1e-8),
        ]
        # the rest of the poly {1.6 .. 5.4} and exp {0.005 .. 3} grids at
        # rel_tol 1e-8 and 1e-12
        + [(polynomial_family(), a, 1e-8) for a in (1.8, 2.0, 2.2, 2.5, 3.0, 4.0, 5.4)]
        + [(polynomial_family(), a, 1e-12) for a in (1.6, 1.8, 2.0, 2.2, 2.5, 4.0, 5.4)]
        + [(exponential_family(), a, 1e-8) for a in (0.005, 0.01, 0.1, 1.0, 3.0)]
        + [(exponential_family(), 3.0, 1e-12)],
    )
    def test_cutoffs_match_the_ring_engine(self, family, alpha, rel_tol):
        ring, exact = ring_and_exact(family, alpha, rel_tol)
        assert exact.cutoff == ring.cutoff

    def test_poly_2_2_needs_3828_on_both_engines(self):
        # at N = 3827 the exact sensitivity tail is 1.00055 times what
        # rel_tol allows; the ring engine reads its in-window part from sums
        # taken from the far end, so it sees the excess too
        assert exact_sensitivity_ratio(2.2, 1e-12, 3827) > 1.0005
        assert exact_sensitivity_ratio(2.2, 1e-12, 3828) < 1.0
        ring, exact = ring_and_exact(polynomial_family(), 2.2, 1e-12)
        assert (ring.cutoff, exact.cutoff) == (3828, 3828)

    @given(
        family=st.sampled_from(["exp", "poly"]),
        alpha=st.floats(0.0, 1.0),
        log_tol=st.floats(-12.0, -4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cutoffs_within_one_index_of_the_ring_engine(self, family, alpha, log_tol):
        # exp alpha in [0.05, 20], poly alpha in [1.6, 20], log-uniform
        lo = 0.05 if family == "exp" else 1.6
        alpha = lo * (20.0 / lo) ** alpha
        fam = exponential_family() if family == "exp" else polynomial_family()
        ring, exact = ring_and_exact(fam, alpha, 10.0**log_tol)
        assert abs(exact.cutoff - ring.cutoff) <= 1

    @pytest.mark.parametrize(
        "family, alpha",
        [("exp", a) for a in (0.01, 0.3, 1.0, 3.0, 10.0)]
        + [("poly", a) for a in (1.6, 2.2, 3.0, 5.4, 8.0)],
    )
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_tail_fields_are_exact_to_their_error(self, family, alpha, rel_tol):
        fam = exponential_family() if family == "exp" else polynomial_family()
        s = build_spectrum(fam, alpha, rel_tol=rel_tol)
        v_exact, u_exact = exact_tails(family, alpha, s.cutoff)
        assert abs(s.tail_bound - v_exact) <= s.tail_err / 2
        assert abs(s.norm_tail - u_exact) <= 1e-12 * u_exact

    @pytest.mark.parametrize("family", [exponential_family(), polynomial_family()])
    def test_one_evaluation_of_each_index_and_no_fit(self, family, evaluations, no_ring):
        s = build_spectrum(family, 2.2, rel_tol=1e-8)
        # one call covers both sides: every index -N..N once
        assert len(evaluations) == 1
        assert np.array_equal(evaluations[0], np.arange(-s.cutoff, s.cutoff + 1))

    @pytest.mark.parametrize(
        "family, alpha, cutoff",
        [
            (exponential_family(), 746.0, 0),
            (exponential_family(), 1e300, 0),
            (polynomial_family(), 1e300, 1),
        ],
    )
    def test_extreme_alpha_cutoffs(self, family, alpha, cutoff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = build_spectrum(family, alpha)
            assert s.cutoff == cutoff
            assert s.tail_bound == 0.0 and s.norm_tail == 0.0
            assert tail_second_moment(family, [alpha], 1) == [0.0]

    def test_poly_three_halves_is_lz_divergent_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = build_spectrum(polynomial_family(), 1.5)
        assert s.lz_divergent and math.isinf(s.tail_err)


class TestExactTailErrors:
    """Built-in builds that cannot succeed fail before any amplitude is computed."""

    @pytest.mark.parametrize(
        "family, alpha, rel_tol, message",
        [
            (exponential_family(), 1e-6, 1e-8,
             "the sum |C_n|^2 tail test needs N >= 9210340, above n_max=2000000"),
            (polynomial_family(), 1.05, 1e-8,
             "the sum |C_n|^2 tail test needs N >= 11467664, above n_max=2000000"),
            (polynomial_family(), 0.8, 1e-12,
             "the sum |C_n|^2 tail test needs N of about 5.9e+19, above n_max=2000000"),
            (polynomial_family(), 0.4, 1e-12, "sum |C_n|^2 diverges because 2 alpha <= 1"),
            (polynomial_family(), 0.5, 1e-12, "sum |C_n|^2 diverges because 2 alpha <= 1"),
        ],
    )
    def test_message_and_no_evaluation(self, family, alpha, rel_tol, message, evaluations):
        with pytest.raises(NonConvergent) as info:
            build_spectrum(family, alpha, rel_tol=rel_tol)
        assert str(info.value) == f"family {family.name!r} at alpha={alpha}: {message}"
        assert evaluations == []

    @pytest.mark.parametrize("family", ["exp", "poly"])
    def test_named_cutoff_is_the_least_passing_one(self, family, evaluations):
        # exp 0.01 / poly 1.6 at 1e-12: the |C_n|^2 test alone needs N, and
        # the 40-digit tail passes at N but not at N - 1
        fam, alpha = (
            (exponential_family(), 0.01) if family == "exp" else (polynomial_family(), 1.6)
        )
        with pytest.raises(NonConvergent) as info:
            build_spectrum(fam, alpha, rel_tol=1e-12, n_max=100)
        assert evaluations == []
        needed = int(str(info.value).split("needs N >= ")[1].split(",")[0])
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)

            def ratio(n):
                if family == "exp":
                    q = mpmath.exp(-2 * a)
                    tail, total = 2 * q ** (n + 1) / (1 - q), (1 + q) / (1 - q)
                else:
                    tail, total = 2 * mpmath.zeta(2 * a, n + 1), 2 * mpmath.zeta(2 * a)
                return tail / (mpmath.mpf(1e-12) * (total - tail))

            assert ratio(needed) <= 1 < ratio(needed - 1)


SPIKE = table_family("spike", {0: 1.0, 50: 1.0})


class TestFiniteSupport:
    """A family with a finite support keeps all of it, and its tails are 0."""

    @pytest.mark.parametrize(
        "family, support",
        [
            (SPIKE, 50),
            (single_mode_family(0), 0),
            (single_mode_family(-7), 7),
            (two_mode_family(), 1),
            (CoefficientFamily("hinted", exponential_family().rule, support_hint=30), 30),
        ],
    )
    def test_one_evaluation_and_no_ring(self, family, support, evaluations, no_ring):
        s = build_spectrum(family, 1.0)
        assert len(evaluations) == 1
        assert np.array_equal(evaluations[0], np.arange(-support, support + 1))
        assert s.cutoff == support
        assert (s.tail_bound, s.tail_err, s.norm_tail) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n_max", [50, 51, 101])
    def test_support_up_to_n_max_is_kept_whole(self, n_max):
        s = build_spectrum(SPIKE, 1.0, n_max=n_max)
        assert s.cutoff == 50
        assert s.coeffs[50 + 50] == s.coeffs[0 + 50] == 1.0
        assert s.sum_sq == 2.0 and s.norm_tail == 0.0

    @pytest.mark.parametrize("n_max", [1, 20, 49])
    def test_support_past_n_max_fails_before_any_evaluation(self, n_max, evaluations):
        with pytest.raises(NonConvergent) as info:
            build_spectrum(SPIKE, 1.0, n_max=n_max)
        assert str(info.value) == (
            f"family 'spike' at alpha=1.0: the support |n| <= 50 exceeds n_max={n_max}"
        )
        assert evaluations == []


class TestOverflowingAmplitudes:
    """An amplitude whose square could overflow fails where it is evaluated,
    before any window sum: with a clean error, not a warning or NaN moments."""

    BIG_DOC = {
        "name": "big",
        "symmetric": True,
        "real": True,
        "entries": [{"n": 0, "expr": "exp"}, {"n": 1, "expr": "exp", "scale": 1e308}],
    }

    @staticmethod
    def assert_rejected(family, alpha, peak):
        with pytest.raises(InvalidParameter) as info:
            build_spectrum(family, alpha)
        assert str(info.value).startswith(
            f"family {family.name!r} at alpha={alpha}: amplitude modulus {peak:g} "
            "is not a finite number of at most 1e+100"
        )

    NAN_DOC = {
        "name": "nan_table",
        "symmetric": True,
        "real": False,
        "entries": [{"n": 0, "expr": "table"}],
        "table": {"1.0": [[0, 1, "nan"]]},
    }

    @pytest.mark.parametrize(
        "doc, alpha, peak",
        [(BIG_DOC, 0.5, 1e308 * math.exp(-0.5)), (NAN_DOC, 1.0, math.nan)],
        ids=["huge-scale", "nan-row"],
    )
    def test_support_path_document(self, doc, alpha, peak):
        self.assert_rejected(family_from_dict(doc), alpha, peak)

    @pytest.mark.parametrize(
        "c, peak", [(1e200, 1e200), (complex(1.0, math.nan), math.nan)], ids=["huge", "nan-imag"]
    )
    def test_support_path_table(self, c, peak):
        self.assert_rejected(table_family("big_table", {0: 1.0, 2: c}), 1.0, peak)

    @pytest.mark.parametrize(
        "c, peak",
        [(1e200, 1e200), (complex(1.0, math.nan), math.nan), (complex(math.nan, 0.0), math.nan)],
        ids=["huge", "nan-imag", "nan-real"],
    )
    def test_ring_path(self, c, peak):
        def rule(n, a):
            return np.where(n == 3, c, np.exp(-a * np.abs(n))).astype(np.complex128)

        self.assert_rejected(CoefficientFamily("big_ring", rule), 1.0, peak)

    def test_largest_allowed_amplitude_builds(self):
        s = build_spectrum(table_family("edge", {0: 1.0, 2: 1e100}), 1.0)
        assert s.sum_sq == pytest.approx(1e200, rel=1e-15)
        assert math.isfinite(s.sum_n2) and math.isfinite(s.norm_sq)


class TestEvaluateState:
    def test_single_mode_is_uniform(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        for phi in (-PI, -1.0, 0.0, 2.5, PI):
            v = evaluate_state(s, phi)
            assert abs(v - 1.0 / math.sqrt(2 * PI)) < 1e-15

    def test_exponential_boundary_value_closed_form(self):
        # f(pi) = A (1 - e^-a)/(1 + e^-a) = A tanh(a/2)
        s = build_spectrum(exponential_family(), 1.0)
        got = evaluate_state(s, PI)
        want = math.sqrt(s.norm_sq) * math.tanh(0.5)
        # truncation affects f(pi) at first order in the dropped amplitudes
        assert abs(got - want) < 1e-9
        # term-by-term summation oracle
        direct = math.sqrt(s.norm_sq) * math.fsum(
            (-1.0) ** abs(n) * math.exp(-abs(n)) for n in range(-s.cutoff, s.cutoff + 1)
        )
        assert abs(got - direct) < 1e-15

    def test_peaks_at_origin_like_a_delta_for_small_alpha(self):
        # f(0) = A coth(a/2) grows as alpha -> 0
        uniform = 1.0 / math.sqrt(2 * PI)
        prev = None
        for a in (0.5, 0.2, 0.1, 0.05):
            s = build_spectrum(exponential_family(), a)
            peak = abs(evaluate_state(s, 0.0))
            want = math.sqrt(s.norm_sq) / math.tanh(a / 2.0)
            assert abs(peak - want) < 1e-6 * want
            assert peak > 2.0 * uniform
            if prev is not None:
                assert peak > prev
            prev = peak

    def test_conjugate_symmetry_for_real_symmetric_families(self):
        s = build_spectrum(exponential_family(), 0.8)
        for phi in np.linspace(0.0, PI, 25):
            a = evaluate_state(s, float(phi))
            b = evaluate_state(s, float(-phi))
            assert abs(a - b.conjugate()) < 1e-12

    def test_phi_domain(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        with pytest.raises(InvalidParameter):
            evaluate_state(s, 3.5)


class TestBoundaryDensity:
    def test_single_mode(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        assert abs(boundary_density(s) - 1.0 / (2 * PI)) < 1e-16

    def test_exponential_alpha_one(self):
        s = build_spectrum(exponential_family(), 1.0)
        want = math.tanh(1.0) * math.tanh(0.5) ** 2 / (2 * PI)  # 0.0258850
        assert abs(boundary_density(s) - want) < 1e-10
        assert abs(want - 0.025884985180750779) < 1e-15

    @pytest.mark.parametrize(
        "family, alpha",
        [
            (exponential_family(), 0.001),  # N = 17026
            (
                CoefficientFamily(
                    "exp_phase", lambda n, a: np.exp(-a * np.abs(n) + 0.3j * n), is_real=False
                ),
                0.005,
            ),
        ],
        ids=["exp-0.001", "exp-phase-0.005"],
    )
    def test_matches_40_digit_alternating_sum(self, family, alpha):
        s = build_spectrum(family, alpha)
        with mpmath.workdps(40):
            total = mpmath.fsum(
                mpmath.mpc(c) if i % 2 == 0 else -mpmath.mpc(c)
                for i, c in enumerate(s.coeffs.tolist())
            )
            want = float(mpmath.mpf(s.norm_sq) * abs(total) ** 2)
        # pairing neighbouring slots keeps the cancellation of a slowly
        # decaying state: about 2e-13 here, where per-index phases lost 3e-10
        assert abs(boundary_density(s) - want) < 1e-11 * want

    def test_tends_to_uniform_for_large_alpha(self):
        for a, tol in ((8.0, 5e-3), (16.0, 2e-6)):
            s = build_spectrum(exponential_family(), a)
            assert abs(2 * PI * boundary_density(s) - 1.0) < tol


class TestQuadratureNormalization:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.0])
    def test_exponential(self, alpha):
        s = build_spectrum(exponential_family(), alpha)
        assert abs(mesh_integral(s, "norm").value - 1.0) < 1e-9

    def test_two_mode(self):
        s = build_spectrum(two_mode_family(), 1.0)
        assert abs(mesh_integral(s, "norm").value - 1.0) < 1e-10


class TestTailSecondMoment:
    def test_exponential_grid_is_tiny(self):
        grid = list(np.geomspace(0.5, 20.0, 8))
        tails = tail_second_moment(exponential_family(), grid, 50)
        assert len(tails) == len(grid)
        assert max(tails) < 1e-15

    @pytest.mark.parametrize(
        "alpha, N", [(0.001, 5), (0.01, 10), (0.05, 10), (0.2, 10), (1.0, 3), (0.3, 50)]
    )
    def test_exponential_matches_exact_tail(self, alpha, N):
        got = tail_second_moment(exponential_family(), [alpha], N)[0]
        want = exact_tails("exp", alpha, N)[0]
        assert abs(got - want) <= 1e-12 * want

    def test_single_mode_exact_zero(self):
        assert tail_second_moment(single_mode_family(0), [1.0, 2.0], 1) == [0.0, 0.0]

    def test_polynomial_partial_zeta(self):
        # 2 sum_{n>10} n^-2 = 2 (zeta(2) - H_10^(2)) = 0.19033267...
        got = tail_second_moment(polynomial_family(), [2.0], 10)[0]
        h10 = math.fsum(n**-2.0 for n in range(1, 11))
        want = 2.0 * (PI**2 / 6.0 - h10)
        assert abs(got - want) < 1e-10

    def test_divergent_tail_raises(self):
        with pytest.raises(NonConvergent):
            tail_second_moment(polynomial_family(), [1.2], 10)

    @pytest.mark.parametrize(
        "family, alpha, N",
        [("exp", a, N) for a, N in ((0.001, 5), (0.05, 10), (1.0, 3), (0.3, 50), (20.0, 2))]
        + [("poly", a, N) for a, N in ((1.5001, 10), (1.6, 3), (2.2, 100), (5.4, 40))],
    )
    def test_builtin_closed_form_within_its_error(self, family, alpha, N):
        fam = exponential_family() if family == "exp" else polynomial_family()
        _, second = list(spectrum._exact_tails(fam)[0](alpha, 1e-12))[:2]
        value, err = second.tail(N)
        assert tail_second_moment(fam, [alpha], N) == [value]
        assert abs(value - exact_tails(family, alpha, N)[0]) <= err

    def test_builtin_poly_makes_one_zeta_call_per_alpha(self, monkeypatch):
        calls = []

        def counted(s, a=1):
            calls.append((s, a))
            return special.zeta(s, a)

        monkeypatch.setattr(spectrum, "zeta", counted)
        grid = [1.6, 2.2, 5.4]
        got = tail_second_moment(polynomial_family(), grid, 10)
        assert calls == [(2.0 * a - 2.0, 11) for a in grid]
        assert got == [2.0 * special.zeta(2.0 * a - 2.0, 11).value for a in grid]

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 1.2, 1.5])
    def test_builtin_divergence_is_stated_exactly(self, alpha):
        # 2 zeta(2 alpha - 2, N + 1) diverges exactly for alpha <= 3/2
        with pytest.raises(NonConvergent) as info:
            tail_second_moment(polynomial_family(), [alpha], 10)
        assert str(info.value) == (
            f"family 'poly' at alpha={alpha}: "
            "sum n^2 |C_n|^2 diverges because 2 alpha - 2 <= 1"
        )
        assert math.isfinite(tail_second_moment(polynomial_family(), [1.5 + 1e-12], 10)[0])

    def test_divergent_tail_message_reports_the_fit(self):
        with pytest.raises(NonConvergent) as info:
            tail_second_moment(RING_POLY, [1.2], 10)
        assert str(info.value) == (
            "family 'poly_ring' at alpha=1.2: sum n^2 |C_n|^2 diverges or decays "
            "too slowly to resolve (fitted slope 0.400 <= 1.01 over n = 8..16)"
        )

    @pytest.mark.parametrize("N", [1, 10, 50, 1000])
    @pytest.mark.parametrize(
        "family, alpha",
        [("exp", a) for a in (0.01, 0.1, 1.0, 10.0)]
        + [("poly", a) for a in (1.55, 1.6, 2.2, 5.4)],
    )
    def test_ring_tail_matches_the_closed_form(self, family, alpha, N):
        # renamed copies read the windows build_spectrum grows; the slow
        # poly tails at N = 1000 need the fit made past 2N, not from N + 1
        ring = RING_EXP if family == "exp" else RING_POLY
        (got,) = tail_second_moment(ring, [alpha], N)
        want = exact_tails(family, alpha, N)[0]
        assert abs(got - want) <= 2e-12 * want

    def test_support_past_the_first_ring_is_summed(self, evaluations, no_ring):
        # the ring engine saw zeros on its first ring from N + 1 and returned 0
        far = table_family("far", {0: 1, 1000: 1, -1000: 1})
        assert tail_second_moment(far, [1.0, 2.0], 50) == [2_000_000.0, 2_000_000.0]
        ns = np.arange(51, 1001)
        assert len(evaluations) == 2
        for n in evaluations:
            assert np.array_equal(n, np.concatenate((ns, -ns)))

    def test_document_support_depends_on_alpha(self, no_ring):
        doc = {
            "name": "pm1000",
            "symmetric": True,
            "real": True,
            "entries": [
                {"n": -1000, "expr": "poly"},
                {"n": 0, "expr": "exp"},
                {"n": 1000, "expr": "poly"},
                {"n": 30, "expr": "exp", "scale": 2.0},
            ],
        }
        family = family_from_dict(doc)
        # 2 n^2 n^(-2 alpha) at n = 1000; the entry at 30 lies inside N = 50
        for alpha, want in ((0.5, 2000.0), (1.0, 2.0), (1.5, 0.002)):
            (got,) = tail_second_moment(family, [alpha], 50)
            assert got == pytest.approx(want, rel=1e-14)
        # the same entry outside N adds 30^2 (2 e^(-30 alpha))^2
        (got,) = tail_second_moment(family, [1.0], 20)
        assert got == pytest.approx(2.0 + 900.0 * 4.0 * math.exp(-60.0), rel=1e-14)

    def test_complex_asymmetric_support_is_summed_exactly(self, no_ring):
        family = table_family("mixed", {3: 1j, -60: 2.0, 55: 0.5 - 0.5j, 51: 0.0})
        assert tail_second_moment(family, [1.0], 50) == [60**2 * 4.0 + 55**2 * 0.5]

    @pytest.mark.parametrize("N", [1000, 1001, 5000])
    def test_support_within_n_is_exactly_zero(self, N, evaluations, no_ring):
        far = table_family("far", {0: 1, 1000: 1, -1000: 1})
        assert tail_second_moment(far, [1.0, 3.0], N) == [0.0, 0.0]
        assert evaluations == []

    def test_support_past_the_budget_fails_before_any_evaluation(self, evaluations):
        support = 50 + spectrum._TAIL_BUDGET + 1
        family = table_family("huge", {0: 1.0, support: 1.0})
        with pytest.raises(NonConvergent) as info:
            tail_second_moment(family, [1.0], 50)
        assert str(info.value) == (
            f"family 'huge': the support |n| <= {support} exceeds "
            f"N + {spectrum._TAIL_BUDGET} = {50 + spectrum._TAIL_BUDGET}"
        )
        assert evaluations == []

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            tail_second_moment(exponential_family(), [], 10)
        with pytest.raises(InvalidParameter):
            tail_second_moment(exponential_family(), [1.0], 0)
        with pytest.raises(InvalidParameter):
            tail_second_moment(exponential_family(), [-1.0], 5)


def ring_columns(family, alpha, edge):
    """The u, v, x tail sequences build_spectrum classifies on one ring."""
    ns = np.arange(1, edge + 1)
    cp = np.abs(family.coefficients(ns, alpha))
    cm = np.abs(family.coefficients(-ns, alpha))
    u = cp**2 + cm**2
    return u, ns * ns * u, (cp + cm) / (ns * ns)


_NS = np.arange(1, 513, dtype=float)


class TestTailEstimate:
    # The fit's columns [1, n/n_last, ln n] are nearly collinear over
    # [n/2, n] (condition number about 2e3), so LAPACK rounds a fit with
    # several right-hand sides differently from one with a single side:
    # the slope moves by up to 5e-14, a bound by up to 1.4e-13 relative on
    # exp and poly rings.  The classification must not move at all.
    BOUND_REL = 1e-12

    @pytest.mark.parametrize(
        "columns, kinds",
        [
            # the last column misfits its own fit by more than 0.1
            (
                (0.9**_NS, _NS**-3.0, 0.0 * _NS, _NS**-3.0 * np.exp(0.5 * np.sin(_NS))),
                ("geometric", "power", "zero", "unresolved"),
            ),
            (
                (_NS**-2.2, _NS**2 * np.exp(-0.05 * _NS), np.exp(-1e-3 * _NS) / _NS**2),
                ("power", "geometric", "unresolved"),
            ),
            ((0.0 * _NS, _NS**-0.5, 0.5**_NS), ("zero", "divergent", "geometric")),
            (ring_columns(polynomial_family(), 2.2, 512), ("power",) * 3),
            (ring_columns(polynomial_family(), 1.8, 1024), ("power",) * 3),
            (ring_columns(exponential_family(), 0.01, 512), ("geometric",) * 3),
            # u and v reach the underflow floor inside the window, x does not
            (
                ring_columns(exponential_family(), 1.0, 512),
                ("unresolved", "unresolved", "geometric"),
            ),
        ],
    )
    def test_each_column_classified_as_alone(self, columns, kinds):
        multi = _tail_estimate(np.vstack(columns))
        assert tuple(est.kind for est in multi) == kinds
        for values, est in zip(columns, multi):
            (alone,) = _tail_estimate(values[np.newaxis])
            assert est.kind == alone.kind
            if alone.kind in ("geometric", "power"):
                assert abs(est.bound - alone.bound) <= self.BOUND_REL * alone.bound
            elif alone.kind != "divergent":
                assert est == alone

    def test_cached_samples_are_read_only(self):
        for arr in _tail_samples(512):
            assert not arr.flags.writeable
        assert _tail_samples(512)[0] is _tail_samples(512)[0]


def fsum_bits(fsum, values):
    """The hex of ``fsum(values)`` (the sign of zero counts), or the type it raised."""
    try:
        return fsum(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def list_fsum(values):
    return math.fsum(values.tolist())


EXTRACT_MIN = spectrum._FSUM_EXTRACT_MIN


class TestFsum:
    """spectrum._fsum gives math.fsum's bits without converting long arrays."""

    @pytest.mark.parametrize(
        "n", [1, 2, 100, EXTRACT_MIN - 1, EXTRACT_MIN, EXTRACT_MIN + 1, 2046, 2047, 4095, 10**5]
    )
    @pytest.mark.parametrize(
        "lo, hi",  # binary exponents of the terms: |x| in [2^(lo-1), 2^hi)
        [(0, 0), (-60, 0), (-600, 0), (-1073, -1000), (-1073, 1000), (-1073, 1024)],
    )
    def test_random_terms(self, n, lo, hi):
        rng = np.random.default_rng([n, lo + 2000, hi + 2000])
        mantissas = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
        values = np.ldexp(mantissas, rng.integers(lo, hi + 1, n))
        for terms in (values, np.abs(values)):
            assert fsum_bits(spectrum._fsum, terms) == fsum_bits(list_fsum, terms)

    @pytest.mark.parametrize("n", [2046, 4094, 65534])
    def test_sums_that_fill_the_extraction_binade(self, n):
        # n + 2 a power of two and every term near the largest: the sum of
        # the extracted parts comes within a factor 2 of sigma, and the few
        # negative terms extract in half units, so a sigma one binade too
        # small rounds that sum
        rng = np.random.default_rng(n)
        for _ in range(8):
            values = rng.uniform(0.5, 1.0, n)
            values[rng.random(n) < 0.03] *= -1.0
            assert spectrum._fsum(values).hex() == list_fsum(values).hex()

    @pytest.mark.parametrize("n", [10, EXTRACT_MIN, 10**4])
    def test_zeros_and_exact_cancellation(self, n):
        rng = np.random.default_rng(n)
        half = np.ldexp(rng.uniform(0.5, 1.0, n // 2), rng.integers(-1073, 1000, n // 2))
        cancelling = rng.permutation(np.concatenate([half, -half, [0.0, -0.0]]))
        assert list_fsum(cancelling) == 0.0
        for values in (np.zeros(n), np.full(n, -0.0), cancelling):
            assert spectrum._fsum(values).hex() == list_fsum(values).hex()

    @pytest.mark.parametrize("n", [10, EXTRACT_MIN, 10**4])
    def test_special_values_and_overflow(self, n):
        rng = np.random.default_rng(n)
        base = rng.uniform(-1.0, 1.0, n)
        cases = []
        for specials in ([math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [math.nan, math.inf]):
            values = base.copy()
            values[rng.choice(n, len(specials), replace=False)] = specials
            cases.append(values)
        cases.append(np.full(n, 1e308))  # the sum overflows
        cases.append(np.concatenate([[1e308, 1e308, -1e308], base[3:]]))  # a partial sum does
        cases.append(np.concatenate([[1.7e308, -1.7e308], base[2:]]))  # sigma would
        for values in cases:
            assert fsum_bits(spectrum._fsum, values) == fsum_bits(list_fsum, values)
