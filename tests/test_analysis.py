"""Dominance, admissibility, alpha-star search, crossings, asymptotics, sweeps."""

import math
import threading

import numpy as np
import pytest

from unclab import (
    CoefficientFamily,
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NotAttainable,
    asymptotic_check,
    check_admissibility,
    check_dominance,
    evaluate_family,
    exponential_family,
    find_alpha_star,
    find_bound_crossing,
    polynomial_family,
    single_mode_family,
    sweep,
    table_family,
)

PI2_3 = math.pi**2 / 3.0
GRID = np.geomspace(0.5, 20.0, 16)


def rescaled(family: CoefficientFamily, factor: float) -> CoefficientFamily:
    return CoefficientFamily(
        name=f"{family.name}_scaled",
        rule=lambda n, a: factor * family.rule(n, a),
        is_real=family.is_real,
        is_symmetric=family.is_symmetric,
        support_hint=family.support_hint,
    )


class TestDominance:
    def test_exponential_dominant_at_zero(self):
        v = check_dominance(exponential_family(), GRID)
        assert v.verdict == "dominant"
        assert v.dominant_index == 0

    def test_polynomial_tied_pair(self):
        v = check_dominance(polynomial_family(), np.geomspace(2.0, 50.0, 16))
        assert v.verdict == "no_unique_dominant"
        assert v.dominant_index is None

    def test_single_mode_trivially_dominant(self):
        v = check_dominance(single_mode_family(3), GRID)
        assert v.verdict == "dominant"
        assert v.dominant_index == 3

    def test_invariant_under_global_rescaling(self):
        for factor in (17.3, 0.004):
            v = check_dominance(rescaled(exponential_family(), factor), GRID)
            assert v.verdict == "dominant"
            assert v.dominant_index == 0

    def test_ratio_trace_decays_for_dominant_family(self):
        v = check_dominance(exponential_family(), GRID)
        for n in (-3, 1, 5):
            trace = [v.ratio_trace[(n, a)] for a in v.grid]
            third = len(trace) // 3
            assert np.mean(trace[-third:]) < np.mean(trace[:third])
            assert trace[-1] < 1e-3

    def test_constant_ratio_below_tie_is_inconclusive(self):
        # C_1/C_0 stays at 0.5 forever: neither decayed away nor tied
        fam = table_family("flat_pair", {0: 1.0, 1: 0.5})
        v = check_dominance(fam, GRID)
        assert v.verdict == "inconclusive"
        assert v.dominant_index is None

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            check_dominance(exponential_family(), [1.0, 0.5, 2.0] * 4)
        with pytest.raises(InvalidParameter):
            check_dominance(exponential_family(), [1.0, 2.0, 3.0])  # short
        with pytest.raises(InvalidParameter):
            check_dominance(exponential_family(), np.linspace(1.0, 2.0, 10))  # narrow
        with pytest.raises(InvalidParameter, match="grid must be finite"):
            grid = [0.5 * 2.0**i for i in range(7)] + [math.inf]
            check_dominance(exponential_family(), grid)

    @pytest.mark.parametrize("n_probe", [0, -1])
    def test_needs_an_index_to_compare(self, n_probe):
        with pytest.raises(InvalidParameter, match="n_probe must be >= 1"):
            check_dominance(exponential_family(), GRID, n_probe=n_probe)


class TestAdmissibility:
    def test_polynomial_all_pass(self):
        # T_50(1.6) = 4.564 is the largest tail on this grid, so the
        # uniform-summability ceiling has to sit above it
        rep = check_admissibility(
            polynomial_family(), np.geomspace(1.6, 16.0, 10), kappa=0.1, N=50, eps=5.0
        )
        assert rep.cond_i and rep.cond_ii and rep.cond_iii
        assert rep.max_tail == pytest.approx(4.5639410009, abs=1e-6)

    def test_exponential_narrow_grid_passes(self):
        rep = check_admissibility(
            exponential_family(), np.geomspace(0.5, 10.0, 10), kappa=0.1, N=50, eps=1e-3
        )
        assert rep.cond_i and rep.cond_ii and rep.cond_iii
        # nonstrict passes, strict fails on the constant C_0 = 1
        assert rep.cond_iii_nonstrict and not rep.cond_iii_strict

    def test_exponential_wide_grid_fails_condition_i(self):
        rep = check_admissibility(
            exponential_family(), np.geomspace(0.05, 10.0, 12), kappa=0.1, N=50, eps=1e-3
        )
        assert not rep.cond_i
        assert rep.inf_var_phi < 0.1

    def test_single_mode(self):
        rep = check_admissibility(
            single_mode_family(0), GRID, kappa=0.1, N=10, eps=1e-6
        )
        assert rep.cond_i and rep.cond_ii and rep.cond_iii
        assert rep.inf_var_phi == pytest.approx(PI2_3, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            check_admissibility(exponential_family(), GRID, kappa=0.0, N=10, eps=1.0)


class TestAlphaStar:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.001])
    def test_exponential_reaches_any_epsilon(self, eps):
        astar = find_alpha_star(exponential_family(), eps)
        assert evaluate_family(exponential_family(), astar).product < eps

    def test_epsilon_half_lands_just_past_the_hr_crossing(self):
        astar = find_alpha_star(exponential_family(), 0.5)
        assert 1.29639 < astar < 1.31

    def test_hint_already_inside_target(self):
        astar = find_alpha_star(exponential_family(), 0.5, alpha_hint=3.0)
        assert evaluate_family(exponential_family(), astar).product < 0.5

    def test_polynomial_not_attainable(self):
        with pytest.raises(NotAttainable) as exc_info:
            find_alpha_star(polynomial_family(), 1.0)
        exc = exc_info.value
        assert exc.best_product >= 1.0  # theorem-consistent floor
        assert exc.edge_product == pytest.approx(1.9467583655134124, abs=2e-3)

    def test_epsilon_validation(self):
        with pytest.raises(InvalidParameter):
            find_alpha_star(exponential_family(), 0.0)

    @pytest.mark.parametrize("hint", [math.inf, math.nan])
    def test_hint_must_be_finite(self, hint):
        with pytest.raises(InvalidParameter, match="alpha_hint must be positive and finite"):
            find_alpha_star(exponential_family(), 0.01, alpha_hint=hint)


class TestBoundCrossing:
    def test_exponential_hr_crossing(self):
        a = find_bound_crossing(exponential_family(), 0.5)
        assert a == pytest.approx(1.29639, abs=5e-4)
        assert evaluate_family(exponential_family(), a).product == pytest.approx(
            0.5, abs=1e-5
        )

    def test_unreachable_target(self):
        with pytest.raises(NoBracket):
            find_bound_crossing(exponential_family(), 10.0)

    def test_polynomial_never_crosses_hr(self):
        with pytest.raises(NoBracket):
            find_bound_crossing(polynomial_family(), 0.5)


class TestAsymptotics:
    def test_small_alpha(self):
        rep = asymptotic_check(exponential_family(), "small_alpha")
        assert rep.passed
        assert all(abs(r - 1.0) < 0.02 for r in rep.phi_ratios)
        assert all(abs(r - 1.0) < 0.02 for r in rep.lz_ratios)

    def test_large_alpha(self):
        rep = asymptotic_check(exponential_family(), "large_alpha")
        assert rep.passed
        assert rep.phi_dev < 1e-4 and rep.lz_dev < 1e-4

    def test_small_alpha_product_near_half(self):
        row = evaluate_family(exponential_family(), 1e-3)
        assert row.var_phi * row.var_lz == pytest.approx(0.5, rel=0.01)

    def test_unsupported_family(self):
        with pytest.raises(InvalidParameter):
            asymptotic_check(polynomial_family(), "small_alpha")
        with pytest.raises(InvalidParameter):  # the name alone is not the family
            asymptotic_check(CoefficientFamily("exp", polynomial_family().rule),
                             "small_alpha")
        with pytest.raises(InvalidParameter):
            asymptotic_check(exponential_family(), "mid_alpha")


class TestEngineChoice:
    """Closed forms serve the built-in values, never a family by name alone."""

    @pytest.mark.parametrize("name", ["exp", "poly"])
    def test_builtin_name_on_a_table_runs_the_series_engine(self, name):
        coeffs = {0: 1.0, 1: 0.5}
        row = evaluate_family(table_family(name, coeffs), 1.0)
        assert row == evaluate_family(table_family("plain", coeffs), 1.0)
        assert row.var_phi == pytest.approx(1.690, abs=1e-3)

    def test_renamed_builtin_runs_the_series_engine(self):
        exp = exponential_family()
        renamed = CoefficientFamily("exp_generic", exp.rule)
        assert renamed != exp
        row, closed = evaluate_family(renamed, 1.0), evaluate_family(exp, 1.0)
        assert row != closed
        assert row.var_phi == pytest.approx(closed.var_phi, rel=1e-9)


class TestSweep:
    def test_rows_ordered_and_consistent(self):
        rows = sweep(exponential_family(), 0.05, 5.0, 40)
        alphas = [r.alpha for r in rows]
        assert alphas == sorted(alphas) and len(set(alphas)) == len(alphas)
        for r in rows:
            assert r.product == pytest.approx(
                math.sqrt(r.var_phi * r.var_lz), abs=1e-14
            )
            assert r.hr_bound == 0.5

    def test_hr_crossing_visible_in_rows(self):
        rows = sweep(exponential_family(), 0.05, 5.0, 200)
        above = [r.alpha for r in rows if r.product > 0.5]
        below = [r.alpha for r in rows if r.product < 0.5]
        assert max(above) < 1.297 and min(below) > 1.29

    def test_polynomial_keep_going_marks_divergent(self):
        rows = sweep(polynomial_family(), 1.2, 3.0, 4, keep_going=True)
        assert rows[0].divergent
        assert not rows[-1].divergent

    def test_polynomial_abort_without_keep_going(self):
        with pytest.raises(DivergentMoment):
            sweep(polynomial_family(), 1.2, 3.0, 4)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            sweep(exponential_family(), 1.0, 1.0, 2)
        with pytest.raises(InvalidParameter):
            sweep(exponential_family(), 1.0, 2.0, 1)
        with pytest.raises(InvalidParameter):
            sweep(exponential_family(), 1.0, 2.0, 5, scale="cubic")
        for lo, hi, bad in ((0.5, math.inf, "alpha_max"), (math.nan, 2.0, "alpha_min")):
            with pytest.raises(InvalidParameter, match=bad):
                sweep(exponential_family(), lo, hi, 3)

    def test_rows_run_on_the_calling_thread(self):
        threads = set()
        exp = exponential_family()

        def rule(n, alpha):
            threads.add(threading.get_ident())
            return exp.rule(n, alpha)

        family = CoefficientFamily(name="exp_traced", rule=rule)
        rows = sweep(family, 0.5, 2.0, 6)
        assert len(rows) == 6
        assert threads == {threading.get_ident()}


class TestTheoremOneNumerically:
    def test_positive_branch_exponential(self):
        # dominant family: every epsilon is reachable
        for eps in (0.5, 0.1, 0.01, 0.001):
            astar = find_alpha_star(exponential_family(), eps)
            assert evaluate_family(exponential_family(), astar).product < eps

    def test_negative_branch_polynomial_floor(self):
        # tied +-1 coefficients: product never falls below 1 hbar on the
        # admissible range (true minimum ~ 1.8604 near alpha = 2.89)
        for a in np.geomspace(1.6, 50.0, 12):
            row = evaluate_family(polynomial_family(), float(a))
            assert row.product >= 1.0

    def test_polynomial_profile_dips_then_recovers_to_limit(self):
        # the profile is not monotone: a genuine minimum sits near alpha ~ 2.9
        p25 = evaluate_family(polynomial_family(), 2.5).product
        p29 = evaluate_family(polynomial_family(), 2.89).product
        p50 = evaluate_family(polynomial_family(), 50.0).product
        assert p29 < p25 and p29 < p50
        assert p29 == pytest.approx(1.8604, abs=2e-3)
        assert p50 == pytest.approx(1.9467583655134124, abs=1e-3)
