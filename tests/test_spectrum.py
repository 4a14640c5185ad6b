"""Spectrum construction, normalization, state evaluation, tail diagnostics."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unclab import (
    DegenerateState,
    InvalidParameter,
    NonConvergent,
    boundary_density,
    build_spectrum,
    evaluate_state,
    exponential_family,
    polynomial_family,
    quad_norm,
    single_mode_family,
    table_family,
    tail_second_moment,
    two_mode_family,
)
from unclab import spectrum
from unclab.spectrum import _tail_estimate, _tail_samples

PI = math.pi


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
        assert s.coefficient(4) == 1.0 and s.coefficient(-4) == 0.0

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

    def test_nonconvergent_for_non_normalizable_family(self):
        with pytest.raises(NonConvergent):
            build_spectrum(polynomial_family(), 0.4, rel_tol=1e-6, n_max=5000)

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
        # Euler-Maclaurin completions whose tail_err is at its tightest
        # (|tail_bound - exact| / tail_err reaches 0.9986 at 1e-12)
        s = build_spectrum(polynomial_family(), alpha, rel_tol=rel_tol)
        v_exact, _ = exact_tails("poly", alpha, s.cutoff)
        assert abs(s.tail_bound - v_exact) <= s.tail_err
        assert s.norm_tail >= 0.0

    def test_one_tail_fit_per_ring(self, monkeypatch):
        fits, edges = [], []
        real_lstsq, real_grow = np.linalg.lstsq, spectrum._grow

        def lstsq(a, b, *args, **kwargs):
            fits.append(b.shape)
            return real_lstsq(a, b, *args, **kwargs)

        def grow(*args):
            for ring in real_grow(*args):
                edges.append(ring[0])
                yield ring

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        monkeypatch.setattr(spectrum, "_grow", grow)
        build_spectrum(polynomial_family(), 2.2, rel_tol=1e-8)
        assert len(edges) > 1
        # one fit per ring, its right-hand sides the u, v and x tails
        assert len(fits) == len(edges)
        assert all(len(shape) == 2 and shape[1] == 3 for shape in fits)

    @pytest.mark.parametrize(
        "family, alpha, rel_tol, cutoff",
        [
            (exponential_family(), 0.01, 1e-12, 1703),
            (exponential_family(), 0.005, 1e-12, 3405),
            (polynomial_family(), 2.2, 1e-12, 3827),
            (polynomial_family(), 1.6, 1e-8, 2820),
            (polynomial_family(), 1.4, 1e-8, 17757),
        ],
    )
    def test_wide_window_cutoffs(self, family, alpha, rel_tol, cutoff):
        assert build_spectrum(family, alpha, rel_tol=rel_tol).cutoff == cutoff

    def test_degenerate_state(self):
        zero = table_family("nothing", {0: 0.0})
        with pytest.raises(DegenerateState):
            build_spectrum(zero, 1.0)

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


class TestEvaluateState:
    def test_single_mode_is_uniform(self):
        s = build_spectrum(single_mode_family(0), 1.0)
        for phi in (-PI, -1.0, 0.0, 2.5, PI):
            v = evaluate_state(s, phi).value
            assert abs(v - 1.0 / math.sqrt(2 * PI)) < 1e-15

    def test_exponential_boundary_value_closed_form(self):
        # f(pi) = A (1 - e^-a)/(1 + e^-a) = A tanh(a/2)
        s = build_spectrum(exponential_family(), 1.0)
        got = evaluate_state(s, PI).value
        want = s.amplitude * math.tanh(0.5)
        # truncation affects f(pi) at first order in the dropped amplitudes
        assert abs(got - want) < 1e-9
        # term-by-term summation oracle
        direct = s.amplitude * math.fsum(
            (-1.0) ** abs(n) * math.exp(-abs(n)) for n in range(-s.cutoff, s.cutoff + 1)
        )
        assert abs(got - direct) < 1e-15

    def test_peaks_at_origin_like_a_delta_for_small_alpha(self):
        # f(0) = A coth(a/2) grows as alpha -> 0
        uniform = 1.0 / math.sqrt(2 * PI)
        prev = None
        for a in (0.5, 0.2, 0.1, 0.05):
            s = build_spectrum(exponential_family(), a)
            peak = abs(evaluate_state(s, 0.0).value)
            want = s.amplitude / math.tanh(a / 2.0)
            assert abs(peak - want) < 1e-6 * want
            assert peak > 2.0 * uniform
            if prev is not None:
                assert peak > prev
            prev = peak

    def test_conjugate_symmetry_for_real_symmetric_families(self):
        s = build_spectrum(exponential_family(), 0.8)
        for phi in np.linspace(0.0, PI, 25):
            a = evaluate_state(s, float(phi)).value
            b = evaluate_state(s, float(-phi)).value
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

    def test_tends_to_uniform_for_large_alpha(self):
        for a, tol in ((8.0, 5e-3), (16.0, 2e-6)):
            s = build_spectrum(exponential_family(), a)
            assert abs(2 * PI * boundary_density(s) - 1.0) < tol


class TestQuadratureNormalization:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.0])
    def test_exponential(self, alpha):
        s = build_spectrum(exponential_family(), alpha)
        assert abs(quad_norm(s).value - 1.0) < 1e-9

    def test_two_mode(self):
        s = build_spectrum(two_mode_family(), 1.0)
        assert abs(quad_norm(s).value - 1.0) < 1e-10


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
        "kind, term",
        [
            ("geometric", lambda n: 0.9**n),
            ("power", lambda n: n**-3.0),
            ("zero", lambda n: 0.0 * n),
        ],
    )
    def test_offset_classifier_matches_zero_padded_sequence(self, kind, term):
        N, hi = 40, 40 + 512
        seq = term(np.arange(N + 1, hi + 1, dtype=float))
        padded = np.concatenate([np.zeros(N), seq])
        (est,) = _tail_estimate((seq,), (N + hi) // 2, hi, first=N + 1)
        assert est.kind == kind
        assert (est,) == _tail_estimate((padded,), (N + hi) // 2, hi)

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
        hi = columns[0].size
        multi = _tail_estimate(columns, hi // 2, hi)
        assert tuple(est.kind for est in multi) == kinds
        for values, est in zip(columns, multi):
            (alone,) = _tail_estimate((values,), hi // 2, hi)
            assert est.kind == alone.kind
            if alone.kind in ("geometric", "power"):
                assert abs(est.bound - alone.bound) <= self.BOUND_REL * alone.bound
            elif alone.kind != "divergent":
                assert est == alone

    def test_cached_samples_are_read_only(self):
        for arr in _tail_samples(256, 512):
            assert not arr.flags.writeable
        assert _tail_samples(256, 512)[0] is _tail_samples(256, 512)[0]
