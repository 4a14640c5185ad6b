"""Special-function accuracy against classical values and brute-force sums."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import spence
from scipy.special import zeta as scipy_zeta

from unclab import InvalidParameter, dilog, zeta
from unclab.special import _zeta_entire

PI = math.pi


def li2_brute(z: float, terms: int = 2000) -> float:
    """Direct power-series oracle, summed ascending then reduced exactly."""
    ks = np.arange(1, terms + 1, dtype=float)
    return math.fsum(z**k / (k * k) for k in ks)


_FIXED_BITS = 160


def li2_forty_digits(z: float) -> mpmath.mpf:
    """Li2(z) for z in [-1, 0] to about 45 digits, at the caller's mpmath precision.

    The Landen reflection -Li2(w) - ln^2(1 - z) / 2, w = z / (z - 1) in
    [0, 1/2], with Li2(w) = w S(w), S = sum_{k>=1} w^(k-1) / k^2 in [1, 2)
    summed exactly in 160-bit fixed point (integers), so 2001 points take a
    fraction of a second and a tiny z keeps its relative precision.
    """
    num, den = (-z).as_integer_ratio()  # -z = num / den
    w = (num << _FIXED_BITS) // (num + den)
    total, power, k = 1 << _FIXED_BITS, w, 2
    while power:
        total += power // (k * k)
        power = (power * w) >> _FIXED_BITS
        k += 1
    li2_w = mpmath.mpf(num) / (num + den) * mpmath.ldexp(total, -_FIXED_BITS)
    return -li2_w - mpmath.log1p(-z) ** 2 / 2


class TestDilog:
    def test_minus_one_is_minus_pi_sq_over_12(self):
        # alternating sum of 1/k^2
        r = dilog(-1.0)
        assert abs(r.value - (-(PI**2) / 12.0)) <= max(1e-14, r.est_error)

    def test_zero(self):
        assert dilog(0.0).value == 0.0

    def test_minus_inv_e_against_series_oracle(self):
        z = -math.exp(-1.0)
        r = dilog(z)
        assert abs(r.value - li2_brute(z)) <= max(1e-14, r.est_error)
        assert abs(r.value - (-0.33864799640345218)) < 1e-14

    @pytest.mark.parametrize("z", np.linspace(-1.0, 0.0, 41).tolist())
    def test_matches_scipy_spence_on_domain(self, z):
        # spence(1 - z) = Li2(z)
        assert abs(dilog(z).value - spence(1.0 - z)) < 2e-15

    @pytest.mark.parametrize("z", [-1.0, -0.75, -0.5, -0.25, -0.05])
    def test_est_error_bounds_longer_summation(self, z):
        # reference: the power series in z, for |z| > 1/2 through the Landen
        # reflection Li2(z) = -Li2(z/(z-1)) - ln^2(1-z)/2, with 600 terms:
        # a different algorithm, effectively exact at these arguments
        if abs(z) > 0.5:
            w = z / (z - 1.0)
            ref = -li2_brute(w, terms=600) - 0.5 * math.log1p(-z) ** 2
        else:
            ref = li2_brute(z, terms=600)
        r = dilog(z)
        assert abs(r.value - ref) <= max(r.est_error, 1e-15)

    def test_est_error_bounds_forty_digit_reference(self):
        points = [*np.linspace(-1.0, 0.0, 2001).tolist(), -1.0, -0.5, -1e-300]
        with mpmath.workdps(40):
            for z in points:
                r = dilog(z)
                assert abs(r.value - li2_forty_digits(z)) <= r.est_error, z

    def test_forty_digit_reference_is_the_polylog(self):
        with mpmath.workdps(40):
            for z in (-1.0, -0.7, -0.5, -0.3, -1e-3):
                assert abs(li2_forty_digits(z) - mpmath.polylog(2, z)) < 1e-39

    @pytest.mark.parametrize("z", [-1.0000001, 0.1, 2.0, math.nan])
    def test_domain(self, z):
        with pytest.raises(InvalidParameter):
            dilog(z)

    def test_small_alpha_expansion(self):
        # Li2(-e^-a) = -pi^2/12 + a ln2 - a^2/4 + O(a^3), cubic constant < 0.2
        for a in np.linspace(1e-3, 0.05, 20):
            model = -(PI**2) / 12.0 + a * math.log(2.0) - a * a / 4.0
            dev = abs(dilog(-math.exp(-a)).value - model)
            assert dev <= 0.2 * a**3


class TestZeta:
    def test_classical_values(self):
        assert abs(zeta(2.0).value - PI**2 / 6.0) < 1e-13
        assert abs(zeta(4.0).value - PI**4 / 90.0) < 1e-13

    def test_zeta_three_against_partial_sum_oracle(self):
        # brute force with integral tail bound: sum_{n<=M} + [M^-2/2, (M-1)^-2/2]
        M = 40000
        partial = math.fsum(n ** (-3.0) for n in range(1, M + 1))
        lo = partial + 0.5 * (M + 1) ** -2.0
        hi = partial + 0.5 * M**-2.0
        v = zeta(3.0).value
        assert lo - 1e-13 <= v <= hi + 1e-13
        assert abs(v - 1.2020569031595943) < 1e-13

    @pytest.mark.parametrize("s", [1.51, 1.6, 2.5, 3.0, 7.7, 20.0, 60.0])
    def test_matches_scipy(self, s):
        assert abs(zeta(s).value - scipy_zeta(s, 1)) <= 1e-12 * scipy_zeta(s, 1)

    def test_strictly_decreasing(self):
        # beyond s ~ 52 the float value saturates at 1, so strictness is
        # only checkable while values stay distinguishable from 1
        grid = np.linspace(1.6, 60.0, 80)
        vals = [zeta(float(s)).value for s in grid]
        for a, b in zip(vals, vals[1:]):
            assert a >= b
            if b > 1.0 + 1e-14:
                assert a > b

    def test_large_argument_saturates_to_one(self):
        assert abs(zeta(200.0).value - 1.0) < 1e-15

    @pytest.mark.parametrize("s", [1.51, 2.0, 3.3, 11.0])
    def test_est_error_bounds_high_precision_reference(self, s):
        import mpmath as mp

        mp.mp.dps = 40
        r = zeta(s)
        ref = float(mp.zeta(s))
        assert abs(r.value - ref) <= r.est_error + 4e-16 * abs(ref)

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0, math.nan])
    def test_divergent_regime_rejected(self, s):
        with pytest.raises(InvalidParameter):
            zeta(s)


# mpmath's Hurwitz zeta loses about 150 digits at a = 1e3 and s = 50, so
# the reference runs at 300 (checked against 500: the doubles agree).
_HURWITZ_S = (1.001, 1.01, 1.5, 2.0, 3.0, 7.5, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0)


class TestHurwitzZeta:
    @pytest.mark.parametrize("a", [1, 2, 20, 21, 1e3, 1e6])
    def test_within_est_error_of_mpmath(self, a):
        with mpmath.workdps(300):
            refs = [float(mpmath.zeta(s, a)) for s in _HURWITZ_S]
        for s, ref in zip(_HURWITZ_S, refs):
            r = zeta(s, a)
            assert abs(r.value - ref) <= r.est_error, (s, a)

    @pytest.mark.parametrize("a", [2, 21, 1e3, 1e6])
    def test_accurate_to_rounding(self, a):
        # the boundary moves out until the first omitted Euler-Maclaurin
        # correction is below an ulp, so est_error is rounding-sized
        for s in (1.01, 2.0, 10.0, 20.0):
            r = zeta(s, a)
            if r.value > 1e-290:
                assert r.est_error <= 8 * 2.3e-16 * r.value, (s, a)

    def test_riemann_default(self):
        assert zeta(3.0, 1) == zeta(3.0)

    def test_cost_does_not_grow_with_a(self):
        assert zeta(3.2, 1e6).terms_used == zeta(3.2, 1e12).terms_used

    def test_shift_identity(self):
        # zeta(s, a) = a^-s + zeta(s, a + 1)
        for s, a in ((1.5, 2.5), (4.0, 20.0), (12.0, 21.0), (3.0, 1e3)):
            lhs, rhs = zeta(s, a), zeta(s, a + 1)
            assert abs(lhs.value - (a**-s + rhs.value)) <= lhs.est_error + rhs.est_error

    def test_huge_s_does_not_warn_or_overflow(self):
        assert zeta(2e300, 2).value == 0.0
        assert zeta(1e300 + 2).value == 1.0
        assert zeta(math.inf, 1).value == 1.0 and zeta(math.inf, 3).value == 0.0

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_a_domain(self, a):
        with pytest.raises(InvalidParameter):
            zeta(2.0, a)


class TestZetaEntire:
    """The private array zeta(s) - 1/(s - 1) that the polynomial closed forms read."""

    S_BELOW_TWO = [0.0, 1e-9, 0.2, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.3, 1.75, 2.0]

    def test_entire_part_against_mpmath_through_the_pole(self):
        got = _zeta_entire(np.array(self.S_BELOW_TWO))
        with mpmath.workdps(40):
            for s, value in zip(self.S_BELOW_TWO, got):
                x = mpmath.mpf(s)
                ref = mpmath.euler if s == 1.0 else mpmath.zeta(x) - 1 / (x - 1)
                assert abs(value - ref) <= 2e-14 * abs(ref), s

    @pytest.mark.parametrize("s", [2.5, 3.0, 7.5, 20.0, 60.0, 250.0])
    def test_zeta_above_two_against_mpmath(self, s):
        value = _zeta_entire(np.array([s]))[0] + 1.0 / (s - 1.0)
        with mpmath.workdps(40):
            assert abs(value - mpmath.zeta(s)) <= 4 * np.finfo(float).eps * mpmath.zeta(s)

    def test_matches_the_scalar_zeta(self):
        s = np.random.default_rng(7).uniform(1.01, 80.0, 200)
        got = _zeta_entire(s) + 1.0 / (s - 1.0)
        want = np.array([zeta(float(x)).value for x in s])
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)

    def test_each_element_is_reduced_on_its_own(self):
        s = np.random.default_rng(8).uniform(0.0, 40.0, (5, 7))
        whole = _zeta_entire(s)
        for idx in np.ndindex(s.shape):
            assert whole[idx] == _zeta_entire(np.array([s[idx]]))[0]

    def test_huge_s_does_not_warn_or_overflow(self):
        value = _zeta_entire(np.array([1e4, 1e300]))
        assert value[0] == pytest.approx(1.0 - 1.0 / (1e4 - 1.0), rel=1e-15)
        assert value[1] == 1.0
