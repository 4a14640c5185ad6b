"""Dominance, admissibility, alpha-star search, crossings, sweeps."""

import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unclab import (
    CoefficientFamily,
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NotAttainable,
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
from unclab import analysis, closed_forms
from unclab.spectrum import DEFAULT_N_MAX

from oracles import decreasing_run_by_pairs, dominance_by_loop

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

    def test_constant_ratio_below_tie_is_inconclusive(self):
        # C_1/C_0 stays at 0.5 forever: neither decayed away nor tied
        fam = table_family("flat_pair", {0: 1.0, 1: 0.5})
        v = check_dominance(fam, GRID)
        assert v.verdict == "inconclusive"
        assert v.dominant_index is None

    def test_vanishing_tail_amplitudes_are_inconclusive(self):
        # every probed amplitude is 0 at the largest alpha: no candidate k
        fam = CoefficientFamily("fades", lambda n, a: np.where(n == 0, float(a < 10.0), 0.0))
        v = check_dominance(fam, GRID)
        assert v.verdict == "inconclusive"
        assert v.dominant_index is None

    def test_candidate_zero_somewhere_on_the_grid_is_inconclusive(self):
        # C_0 is the largest amplitude at the grid tail but vanishes below alpha = 1
        rule = lambda n, a: np.where(n == 0, float(a >= 1.0), np.exp(-a * np.abs(n)))
        v = check_dominance(CoefficientFamily("late", rule), GRID)
        assert v.verdict == "inconclusive"
        assert v.dominant_index is None

    def test_small_but_growing_ratio_is_inconclusive(self):
        # C_1 / C_0 = 1e-5 alpha ends below DOMINANCE_THRESHOLD, but it grows
        rule = lambda n, a: np.where(n == 0, 1.0, np.where(n == 1, 1e-5 * a, 0.0))
        v = check_dominance(CoefficientFamily("creeping", rule), GRID)
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

    def test_probe_range_wider_than_a_window_fails_before_any_evaluation(self, evaluations):
        # a grid of |n| <= n_probe rows would otherwise exhaust memory
        with pytest.raises(InvalidParameter, match=f"n_probe must be <= {DEFAULT_N_MAX}"):
            check_dominance(exponential_family(), GRID, n_probe=DEFAULT_N_MAX + 1)
        assert evaluations == []


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
        assert rep.cond_iii and not rep.cond_iii_strict

    def test_exponential_wide_grid_fails_condition_i(self):
        rep = check_admissibility(
            exponential_family(), np.geomspace(0.05, 10.0, 12), kappa=0.1, N=50, eps=1e-3
        )
        assert not rep.cond_i
        assert rep.inf_var_phi < 0.1

    def test_polynomial_default_grid_reads_var_phi_below_three_halves(self):
        # sigma_Lz diverges at and below alpha = 3/2; condition (i) needs
        # sigma_phi only, and alpha = 0.5, with no normalizable state, is a note
        rep = check_admissibility(polynomial_family(), GRID, kappa=0.1, N=50, eps=1.0)
        assert rep.inf_var_phi == 0.4936958934924366  # at GRID[1] = 0.6394...
        assert rep.inf_var_phi == closed_forms._poly_grid([GRID[1]])[0].var_phi
        assert rep.cond_i and not rep.cond_ii
        assert "condition (i): no normalizable state at alpha in [0.5]" in rep.notes

    def test_polynomial_grid_with_no_normalizable_state(self):
        rep = check_admissibility(polynomial_family(), np.geomspace(0.01, 0.5, 8),
                                  kappa=0.1, N=50, eps=1.0)
        assert math.isnan(rep.inf_var_phi) and not rep.cond_i

    def test_single_mode(self):
        rep = check_admissibility(
            single_mode_family(0), GRID, kappa=0.1, N=10, eps=1e-6
        )
        assert rep.cond_i and rep.cond_ii and rep.cond_iii
        assert rep.inf_var_phi == pytest.approx(PI2_3, abs=1e-12)

    def test_condition_iii_passes_on_a_run_that_skips_a_bump(self):
        # C_1 jumps up at one grid point, so the full grid is not decreasing;
        # the run over every other point is, and is long enough
        def rule(n, a):
            c1 = 2.0 if 2.0 < a < 2.5 else math.exp(-a)
            return np.where(n == 0, 1.0, np.where(np.abs(n) == 1, c1, 0.0))

        assert sum(2.0 < a < 2.5 for a in GRID) == 1
        fam = CoefficientFamily("bump", rule, support_hint=1)
        rep = check_admissibility(fam, GRID, kappa=0.1, N=10, eps=1.0)
        assert rep.cond_iii
        assert not rep.cond_iii_strict  # C_0 = 1 is constant

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            check_admissibility(exponential_family(), GRID, kappa=0.0, N=10, eps=1.0)

    def test_tail_index_wider_than_a_window_fails_before_any_evaluation(self, evaluations):
        with pytest.raises(InvalidParameter, match=f"N must be <= {DEFAULT_N_MAX}"):
            check_admissibility(
                exponential_family(), GRID, kappa=0.1, N=DEFAULT_N_MAX + 1, eps=1.0
            )
        assert evaluations == []


@st.composite
def magnitude_tables(draw):
    """(grid, |C_n| table with one row per grid alpha and columns n = -p..p):
    s_n e^(-r_n alpha) traces, some times per-point factors, some mirrored,
    so that zeros, ties, constant amplitudes and non-monotone traces occur."""
    g = draw(st.integers(8, 30))
    p = draw(st.integers(1, 3))
    k = 2 * p + 1
    grid = np.geomspace(draw(st.sampled_from([0.1, 0.5, 1.0])), 20.0, g)
    scale = st.sampled_from([0.0, 1e-4, 0.5, 1.0, 1.0]) | st.floats(1e-3, 2.0)
    scales = draw(st.lists(scale, min_size=k, max_size=k))
    rates = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]), min_size=k, max_size=k))
    mags = np.array(scales) * np.exp(-np.outer(grid, rates))
    if draw(st.booleans()):
        factor = st.sampled_from([1.0] * 6 + [0.0, 0.5, 2.0])
        mags *= np.reshape(draw(st.lists(factor, min_size=g * k, max_size=g * k)), (g, k))
    if draw(st.booleans()):  # |C_-n| = |C_n|, which ties every n != 0 with -n
        mags[:, :p] = mags[:, :p:-1]
    return grid, mags


def tabulated(grid: np.ndarray, mags: np.ndarray) -> CoefficientFamily:
    """The family whose |C_n| at grid point i is mags[i, n + p], zero past p."""
    p = mags.shape[1] // 2
    row = {float(a): i for i, a in enumerate(grid)}

    def rule(n, a):
        inside = np.abs(n) <= p
        return np.where(inside, mags[row[a]][np.where(inside, n + p, 0)], 0.0)

    return CoefficientFamily("tabulated", rule, is_symmetric=False, support_hint=p)


class TestArrayRulesMatchTheLoopRules:
    @settings(max_examples=200, deadline=None)
    @given(magnitude_tables())
    # the edges of the rules: a trace 1e-14 above zero past the head third
    # (rising by more than the 1e-15 slack), and a trace tied to 1 - 1e-6
    @example((GRID, np.column_stack([np.ones(16), (np.arange(16) >= 5) * 1e-14, np.zeros(16)])))
    @example((GRID, np.column_stack([np.ones(16), np.full(16, 1.0 - 1e-6), np.zeros(16)])))
    def test_dominance(self, table):
        grid, mags = table
        p = mags.shape[1] // 2
        v = check_dominance(tabulated(grid, mags), grid, n_probe=p)
        assert (v.dominant_index, v.verdict) == dominance_by_loop(mags, np.arange(-p, p + 1))

    @settings(max_examples=200, deadline=None)
    @given(magnitude_tables())
    def test_condition_iii_both_readings(self, table):
        grid, mags = table
        assume(mags.any(axis=1).all())  # every grid point is a state
        rep = check_admissibility(tabulated(grid, mags), grid, kappa=0.1,
                                  N=mags.shape[1] // 2, eps=1.0)
        assert type(rep.cond_iii) is bool and type(rep.cond_iii_strict) is bool
        assert rep.cond_iii == decreasing_run_by_pairs(mags, strict=False)
        assert rep.cond_iii_strict == decreasing_run_by_pairs(mags, strict=True)

    def test_condition_iii_holds_one_magnitude_matrix(self):
        # 16 points x 400 001 indices: a 51 MB |C_n| matrix; a stacked list of
        # rows beside it, or a G x G x (2N + 1) comparison, would double it
        n = 200_000
        matrix = GRID.size * (2 * n + 1) * 8
        tracemalloc.start()
        try:
            check_admissibility(exponential_family(), GRID, kappa=0.1, N=n, eps=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix


class TestAlphaStar:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.001])
    def test_exponential_reaches_any_epsilon(self, eps):
        astar = find_alpha_star(exponential_family(), eps)
        assert evaluate_family(exponential_family(), astar).product < eps

    def test_epsilon_half_lands_just_past_the_hr_crossing(self):
        astar = find_alpha_star(exponential_family(), 0.5)
        assert 1.29639 < astar < 1.31

    @pytest.mark.xfail(
        strict=True,
        reason="var_lz = 2u^2/(1-u^2)^2 underflows to 0 past alpha ~ 372.5, so the "
        "product sqrt(var_phi var_lz) reads 0.0 (ROADMAP item 2)",
    )
    def test_tiny_epsilon_is_met_by_the_true_product(self):
        # sigma_Lz = sqrt(2) e^-alpha / (1 - e^-2 alpha) itself is normal here:
        # alpha* is about 392.4, not the 373.0 the underflowed product gives
        eps = 1e-170
        astar = find_alpha_star(exponential_family(), eps)
        row = evaluate_family(exponential_family(), astar)
        log_sigma_lz = 0.5 * math.log(2.0) - astar - math.log1p(-math.exp(-2.0 * astar))
        assert 0.5 * math.log(row.var_phi) + log_sigma_lz < math.log(eps)
        assert row.product > 0.0

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

    @pytest.mark.parametrize("family", ["exp", "poly"])
    def test_epsilon_must_be_finite(self, family):
        # poly used to bisect toward its divergence edge and return 1.5009765625
        fam = exponential_family() if family == "exp" else polynomial_family()
        with pytest.raises(InvalidParameter, match="epsilon must be positive and finite"):
            find_alpha_star(fam, math.inf)

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

    def test_target_met_at_a_scan_point_returns_that_point(self):
        # product - target is exactly 0 at scan point 40, before any sign change
        grid = np.geomspace(*analysis.CROSSING_WINDOW, 64).tolist()
        target = evaluate_family(exponential_family(), grid[40]).product
        assert find_bound_crossing(exponential_family(), target) == grid[40]

    def test_unreachable_target(self):
        with pytest.raises(NoBracket):
            find_bound_crossing(exponential_family(), 10.0)

    def test_polynomial_never_crosses_hr(self):
        with pytest.raises(NoBracket):
            find_bound_crossing(polynomial_family(), 0.5)

    def test_family_raising_past_its_bracket_returns_its_crossing(self):
        exp = exponential_family()

        def rule(n, a):
            if a > 20.0:
                raise InvalidParameter(f"no amplitudes past alpha 20, got {a!r}")
            return exp.rule(n, a)

        # the bracket is grid points 41-42 (alpha near 1.3); the scan stops there
        assert find_bound_crossing(CoefficientFamily("exp_to_20", rule), 0.5) == 1.296389724983169


class TestOneGridCallPerGrid:
    """Condition (i) and both search scans read the grid evaluator once per
    grid; only bisection evaluates one alpha at a time."""

    def test_polynomial_alpha_star_doubling(self, counted):
        calls = counted(closed_forms._poly_grid)
        with pytest.raises(NotAttainable):
            find_alpha_star(polynomial_family(), 0.01)
        assert [len(alphas) for alphas, in calls] == [15]  # 1, 2, ..., 8192, 1e4

    def test_polynomial_condition_i(self, counted):
        calls = counted(closed_forms._poly_grid)
        check_admissibility(polynomial_family(), np.geomspace(2, 50, 16), 0.1, 50, 1.0)
        assert [len(alphas) for alphas, in calls] == [16]

    def test_exponential_crossing_scan_is_no_product_call(self, counted):
        calls = counted(analysis._product)
        alpha = find_bound_crossing(exponential_family(), 0.5)
        assert alpha == pytest.approx(1.29639, abs=1e-5)
        # the scan reads no _product; bisection of one grid step (a factor
        # 1.19) down to 1e-6 takes 18
        assert len(calls) <= 20

    def test_exponential_crossing_scan_stops_at_its_bracket(self, counted):
        calls = counted(closed_forms.exp_closed)
        assert find_bound_crossing(exponential_family(), 0.5) == 1.296389724983169
        # 43 scan points up to the bracket at points 41-42 of 64, and 18
        # bisection steps
        assert len(calls) <= 61


class TestAsymptotics:
    def test_small_alpha_product_near_half(self):
        row = evaluate_family(exponential_family(), 1e-3)
        assert row.var_phi * row.var_lz == pytest.approx(0.5, rel=0.01)


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

    @pytest.mark.parametrize(
        "family, steps",
        [pytest.param(polynomial_family(), steps, id=str(steps)) for steps in (2, 7, 33, 160)]
        + [pytest.param(exponential_family(), steps, id=f"exp-{steps}") for steps in (2, 33)]
        + [pytest.param(CoefficientFamily("exp_generic", exponential_family().rule), steps,
                        id=f"exp_generic-{steps}") for steps in (2, 7)],
    )
    def test_polynomial_rows_equal_evaluate_family_bit_for_bit(self, family, steps):
        # one grid evaluation for the sweep, one for each alpha alone, on
        # every engine: the rows may not depend on the grid they are read from
        rows = sweep(family, 1.6, 50.0, steps, scale="log")
        for row in rows:
            alone = evaluate_family(family, row.alpha)
            assert [x.hex() for x in dataclasses.astuple(row)] == [
                x.hex() for x in dataclasses.astuple(alone)
            ]

    def test_polynomial_keep_going_marks_every_row_at_or_below_three_halves(self):
        poly = polynomial_family()
        rows = sweep(poly, 0.5, 3.0, 6, keep_going=True)  # 0.5, 1.0, ..., 3.0
        assert [r.divergent for r in rows] == [True, True, True, False, False, False]
        assert all(math.isnan(r.state_bound) for r in rows[:3])
        assert rows[3:] == [evaluate_family(poly, a) for a in (2.0, 2.5, 3.0)]

    def test_polynomial_grid_yields_records_only(self):
        # divergence is var_lz = +inf in the record, never an exception object
        recs = closed_forms._poly_grid(np.linspace(0.3, 3.0, 28).tolist())
        assert {type(rec) for rec in recs} == {closed_forms.PolyFamilyEval}
        assert [math.isinf(rec.var_lz) for rec in recs] == [
            rec.alpha <= 1.5 for rec in recs]
        assert [math.isnan(rec.var_phi) for rec in recs] == [
            rec.alpha <= 0.5 for rec in recs]

    def test_polynomial_abort_names_the_first_divergent_alpha(self):
        message = ("family 'poly' at alpha=1.2: sum n^2 |C_n|^2 diverges, "
                   "sigma_Lz does not exist")
        with pytest.raises(DivergentMoment, match=re.escape(message)):
            sweep(polynomial_family(), 1.2, 3.0, 4)
        with pytest.raises(DivergentMoment, match=re.escape(message)):
            evaluate_family(polynomial_family(), 1.2)

    def test_generic_abort_keeps_the_lz_moments_text(self):
        fam = CoefficientFamily("poly_generic", polynomial_family().rule)
        message = ("family 'poly_generic' at alpha=1.5: sum n^2 |C_n|^2 diverges, "
                   "sigma_Lz does not exist")
        with pytest.raises(DivergentMoment, match=re.escape(message)):
            sweep(fam, 1.5, 3.0, 2)
        rows = sweep(fam, 1.5, 3.0, 2, keep_going=True)
        assert rows[0].divergent and math.isnan(rows[0].state_bound)
        assert not rows[1].divergent

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
