"""Parameter-space analysis: admissibility, dominance, bound crossings.

The dominance condition asks for a single index k whose amplitude decays
slower than every other as alpha grows; by the main theorem this is
equivalent to the family reaching an arbitrarily small uncertainty
product.  liminf behaviour is approximated by grid tails, and verdicts
fall back to "inconclusive" rather than guessing when traces are
non-monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closed_forms import POLY_PHI_REL_TOL, _poly_eval, exp_closed, exp_state_bound
from .errors import (
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NonConvergent,
    NotAttainable,
)
from .families import CoefficientFamily, exponential_family, polynomial_family
from .moments import PI_SQ_OVER_3, _state_bound, uncertainty_report
from .spectrum import DEFAULT_N_MAX, DEFAULT_REL_TOL, build_spectrum
from .spectrum import tail_second_moment

HR_BOUND = 0.5  # hbar / 2 with hbar = 1

# Dominance: trace value below this at the grid tail counts as decayed away.
DOMINANCE_THRESHOLD = 1e-3
# Two traces within this of each other at the tail are tied.
_TIE_MARGIN = 1e-6

# alpha-star search: doubling stops here.
ALPHA_STAR_BUDGET = 1e4
# Crossing search window.
CROSSING_WINDOW = (1e-3, 50.0)


# --------------------------------------------------------------------------
# per-alpha family evaluation (closed fast paths for the built-in families)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One alpha slice of the uncertainty-product profile (hbar = 1)."""

    alpha: float
    var_phi: float
    var_lz: float
    product: float       # sigma_phi * sigma_Lz
    hr_bound: float      # 0.5
    state_bound: float   # (1/2) |1 - 2 pi |f(pi)|^2|

    @property
    def divergent(self) -> bool:
        return math.isnan(self.var_lz)


def _exp_row(family: CoefficientFamily, alpha: float) -> tuple[float, float, float]:
    ev = exp_closed(alpha)
    return ev.var_phi, ev.var_lz, exp_state_bound(alpha)


def _poly_row(family: CoefficientFamily, alpha: float) -> tuple[float, float, float]:
    ev, spec = _poly_eval(alpha)
    return ev.var_phi, ev.var_lz, _state_bound(spec)


def _series_row(family: CoefficientFamily, alpha: float) -> tuple[float, float, float]:
    rep = uncertainty_report(build_spectrum(family, alpha))
    return rep.var_phi, rep.var_lz, rep.state_bound


# (var_phi, var_lz, state_bound) evaluator and sweep "# engine:" note of each
# built-in family.  A family matches by dataclass == (name, rule and flags),
# so one that only borrows a built-in's name runs the generic series engine.
_POLY_NOTE = f"zeta closed form; series var_phi at rel_tol={POLY_PHI_REL_TOL}"
_CLOSED_FORMS = (
    (exponential_family(), (_exp_row, "closed forms")),
    (polynomial_family(), (_poly_row, _POLY_NOTE)),
)
_SERIES = (_series_row, f"generic series at rel_tol={DEFAULT_REL_TOL}, n_max={DEFAULT_N_MAX}")


def _engine(family: CoefficientFamily):
    """The (row evaluator, engine note) pair that serves ``family``."""
    for builtin, engine in _CLOSED_FORMS:
        if family is builtin or family == builtin:  # callers mostly pass the constant
            return engine
    return _SERIES


def evaluate_family(family: CoefficientFamily, alpha: float) -> SweepRow:
    """One SweepRow for ``family`` at ``alpha``.

    The built-in exponential and polynomial family values go through their
    closed forms; any other family, whatever its name, runs the generic
    series engine.  Divergent sigma_Lz propagates as DivergentMoment.
    """
    var_phi, var_lz, state_bound = _engine(family)[0](family, alpha)
    return SweepRow(
        alpha=float(alpha),
        var_phi=var_phi,
        var_lz=var_lz,
        product=math.sqrt(var_phi * var_lz),
        hr_bound=HR_BOUND,
        state_bound=state_bound,
    )


def _product(family: CoefficientFamily, alpha: float) -> float:
    return evaluate_family(family, alpha).product


def sweep(
    family: CoefficientFamily,
    alpha_min: float,
    alpha_max: float,
    steps: int,
    scale: str = "linear",
    keep_going: bool = False,
) -> list[SweepRow]:
    """Uncertainty-product profile over an alpha grid, ordered by alpha.

    Rows are computed one at a time, in grid order, on the calling thread.
    With ``keep_going`` a divergent sigma_Lz yields a row with NaN variance
    instead of aborting the sweep.
    """
    for name, end in (("alpha_min", alpha_min), ("alpha_max", alpha_max)):
        if not math.isfinite(end):
            raise InvalidParameter(f"{name} must be finite, got {end!r}")
    if not (0.0 < alpha_min < alpha_max):
        raise InvalidParameter(
            f"need 0 < alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]"
        )
    if steps < 2:
        raise InvalidParameter(f"steps must be >= 2, got {steps}")
    if scale == "linear":
        grid = np.linspace(alpha_min, alpha_max, steps)
    elif scale == "log":
        grid = np.geomspace(alpha_min, alpha_max, steps)
    else:
        raise InvalidParameter(f"scale must be 'linear' or 'log', got {scale!r}")

    rows = []
    for alpha in grid:
        try:
            rows.append(evaluate_family(family, float(alpha)))
        except DivergentMoment:
            if not keep_going:
                raise
            rows.append(
                SweepRow(
                    alpha=float(alpha),
                    var_phi=math.nan,
                    var_lz=math.nan,
                    product=math.nan,
                    hr_bound=HR_BOUND,
                    state_bound=math.nan,
                )
            )
    return rows


# --------------------------------------------------------------------------
# dominance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of the grid-tail dominance check."""

    dominant_index: int | None
    verdict: str  # dominant | no_unique_dominant | inconclusive
    ratio_trace: dict[tuple[int, float], float] = field(repr=False)
    grid: tuple[float, ...] = ()


def _validate_grid(alpha_grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size < 8:
        raise InvalidParameter(f"grid needs >= 8 points, got {grid.size}")
    if not np.all(np.isfinite(grid)):
        raise InvalidParameter(f"grid must be finite, got [{grid[0]}, {grid[-1]}]")
    if np.any(np.diff(grid) <= 0.0) or np.any(grid <= 0.0):
        raise InvalidParameter("grid must be strictly increasing and positive")
    if grid[-1] < 10.0 * grid[0]:
        raise InvalidParameter("grid must span at least one decade in alpha")
    return grid


def check_dominance(
    family: CoefficientFamily,
    alpha_grid: Sequence[float],
    n_probe: int = 8,
) -> DominanceVerdict:
    """Locate the dominant index k, if any, from amplitude-ratio traces.

    Candidate k is the largest amplitude at the largest alpha; any index
    (positive, negative or zero) qualifies.  The verdict is dominant when
    every other trace has fallen below DOMINANCE_THRESHOLD at the grid tail with
    a decreasing trend, no_unique_dominant when a second index shares the
    candidate's decay, inconclusive otherwise.
    """
    grid = _validate_grid(alpha_grid)
    if n_probe < 1:
        raise InvalidParameter(f"n_probe must be >= 1, got {n_probe!r}")
    ns = np.arange(-n_probe, n_probe + 1)
    mags = np.empty((grid.size, ns.size))
    for i, a in enumerate(grid):
        mags[i] = np.abs(family.coefficients(ns, float(a)))

    tail_mags = mags[-1]
    k_pos = int(np.argmax(tail_mags))
    k = int(ns[k_pos])
    if tail_mags[k_pos] <= 0.0:
        return DominanceVerdict(None, "inconclusive", {}, tuple(grid))

    ref = mags[:, k_pos]
    if np.any(ref <= 0.0):  # candidate must be nonzero for every alpha
        return DominanceVerdict(None, "inconclusive", {}, tuple(grid))

    trace: dict[tuple[int, float], float] = {}
    others = [j for j in range(ns.size) if j != k_pos]
    for j in others:
        for i, a in enumerate(grid):
            trace[(int(ns[j]), float(a))] = float(mags[i, j] / ref[i])

    tail_ratios = np.array([mags[-1, j] / ref[-1] for j in others])
    if tail_ratios.size and tail_ratios.max() >= 1.0 - _TIE_MARGIN:
        return DominanceVerdict(None, "no_unique_dominant", trace, tuple(grid))

    third = max(1, grid.size // 3)
    decayed = True
    for j in others:
        ratios = mags[:, j] / ref
        if ratios[-1] >= DOMINANCE_THRESHOLD:
            decayed = False
            break
        head = float(np.mean(ratios[:third]))
        tail = float(np.mean(ratios[-third:]))
        if tail > head + 1e-15:  # not decreasing toward zero
            decayed = False
            break
    if decayed:
        return DominanceVerdict(k, "dominant", trace, tuple(grid))
    return DominanceVerdict(None, "inconclusive", trace, tuple(grid))


# --------------------------------------------------------------------------
# admissibility
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Conditions (i)-(iii) on a grid, with both readings of (iii)."""

    cond_i: bool
    inf_var_phi: float
    kappa: float
    cond_ii: bool
    max_tail: float
    eps: float
    cond_iii: bool            # headline, nonstrict reading
    cond_iii_strict: bool
    cond_iii_nonstrict: bool
    notes: str = ""


def check_admissibility(
    family: CoefficientFamily,
    alpha_grid: Sequence[float],
    kappa: float,
    N: int,
    eps: float,
) -> AdmissibilityReport:
    """Test the three admissibility conditions on the given grid.

    (i) inf sigma_phi^2 >= kappa; (ii) the n^2 |C_n|^2 tail beyond N stays
    below eps uniformly on the grid; (iii) some increasing run of grid
    points has coefficientwise decreasing amplitudes for |n| <= N.  The
    headline for (iii) uses the nonstrict reading (constant amplitudes
    allowed, matching the exponential family's C_0 = 1); the strict
    reading is reported alongside.
    """
    grid = _validate_grid(alpha_grid)
    if not (kappa > 0.0) or not (eps > 0.0) or N < 1:
        raise InvalidParameter("need kappa > 0, eps > 0, N >= 1")
    notes: list[str] = []

    var_phis = [evaluate_family(family, float(a)).var_phi for a in grid]
    inf_var = min(var_phis)
    cond_i = inf_var >= kappa

    try:
        tails = tail_second_moment(family, list(grid), N)
        max_tail = max(tails)
        cond_ii = max_tail < eps
    except NonConvergent as exc:
        max_tail = math.inf
        cond_ii = False
        notes.append(f"condition (ii): tail not summable ({exc})")

    ns = np.arange(-N, N + 1)
    mags = np.stack([np.abs(family.coefficients(ns, float(a))) for a in grid])

    def chain_ok(strict: bool) -> bool:
        # full grid first, then the longest greedy subsequence
        def step_ok(i: int, j: int) -> bool:
            if strict:
                return bool(np.all(mags[j] < mags[i]))
            return bool(np.all(mags[j] <= mags[i]))

        if all(step_ok(i, i + 1) for i in range(grid.size - 1)):
            return True
        best = 1
        for start in range(grid.size):
            length, cur = 1, start
            for j in range(start + 1, grid.size):
                if step_ok(cur, j):
                    length += 1
                    cur = j
            best = max(best, length)
        return best >= max(3, grid.size // 2)

    cond_iii_nonstrict = chain_ok(strict=False)
    cond_iii_strict = chain_ok(strict=True)
    if cond_iii_nonstrict and not cond_iii_strict:
        notes.append(
            "condition (iii): passes with nonstrict (<=) coefficient decrease "
            "only; some amplitude is constant in alpha"
        )

    return AdmissibilityReport(
        cond_i=cond_i,
        inf_var_phi=inf_var,
        kappa=kappa,
        cond_ii=cond_ii,
        max_tail=max_tail,
        eps=eps,
        cond_iii=cond_iii_nonstrict,
        cond_iii_strict=cond_iii_strict,
        cond_iii_nonstrict=cond_iii_nonstrict,
        notes="; ".join(notes),
    )


# --------------------------------------------------------------------------
# alpha-star search and bound crossing
# --------------------------------------------------------------------------

def find_alpha_star(
    family: CoefficientFamily,
    epsilon: float,
    alpha_hint: float = 1.0,
) -> float:
    """Find alpha* with sigma_phi(alpha*) sigma_Lz(alpha*) < epsilon.

    Doubles alpha from the hint until the product drops below epsilon,
    then bisects toward the crossing so the returned alpha* sits just
    inside the target region.  Raises NotAttainable (with the smallest
    product seen) when the doubling budget is exhausted, which is the
    expected outcome for families without a dominant coefficient.
    """
    if not (epsilon > 0.0):
        raise InvalidParameter(f"epsilon must be positive, got {epsilon!r}")
    if not (0.0 < alpha_hint < math.inf):
        raise InvalidParameter(f"alpha_hint must be positive and finite, got {alpha_hint!r}")

    def product_at(a: float) -> float:
        try:
            return _product(family, a)
        except DivergentMoment:
            return math.inf

    alpha = alpha_hint
    p = product_at(alpha)
    best_alpha, best_p = alpha, p
    prev_alpha, prev_p = alpha, p
    while p >= epsilon:
        if alpha >= ALPHA_STAR_BUDGET:
            raise NotAttainable(
                f"no alpha <= {ALPHA_STAR_BUDGET:g} reaches product < {epsilon:g}; "
                f"smallest product seen: {best_p:.6g} at alpha={best_alpha:.6g}, "
                f"settling near {p:.6g} at the budget edge",
                best_alpha=best_alpha,
                best_product=best_p,
                edge_alpha=alpha,
                edge_product=p,
            )
        prev_alpha, prev_p = alpha, p
        alpha = min(2.0 * alpha, ALPHA_STAR_BUDGET)
        p = product_at(alpha)
        if p < best_p:
            best_alpha, best_p = alpha, p

    if prev_p < epsilon:  # the hint itself already qualified
        return prev_alpha
    lo, hi = prev_alpha, alpha  # product(lo) >= eps > product(hi)
    for _ in range(60):
        if hi - lo <= 1e-3 * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if product_at(mid) < epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def find_bound_crossing(family: CoefficientFamily, target: float) -> float:
    """Solve product(alpha) = target by bracketing and bisection.

    Scans a log grid over CROSSING_WINDOW for a sign change of
    product - target, then bisects to |delta alpha| < 1e-6.  Raises
    NoBracket when the product never crosses the target in the window.
    """
    if not math.isfinite(target):
        raise InvalidParameter(f"target must be finite, got {target!r}")
    lo_w, hi_w = CROSSING_WINDOW

    def diff(a: float) -> float:
        try:
            return _product(family, a) - target
        except DivergentMoment:
            return math.inf

    grid = np.geomspace(lo_w, hi_w, 64)
    values = [diff(float(a)) for a in grid]
    bracket = None
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if math.isinf(a) or math.isinf(b):
            continue
        if a == 0.0:
            return float(grid[i])
        if a * b < 0.0:
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    if bracket is None:
        raise NoBracket(
            f"product(alpha) - {target:g} has no sign change on "
            f"[{lo_w:g}, {hi_w:g}]",
            alpha_lo=lo_w,
            alpha_hi=hi_w,
        )

    lo, hi = bracket
    f_lo = diff(lo)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# asymptotic-law verification (exponential family only)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    """How well the family follows its small/large-alpha limit laws."""

    regime: str
    alphas: tuple[float, ...]
    phi_ratios: tuple[float, ...]     # sigma_phi^2 law, normalized to -> 1
    lz_ratios: tuple[float, ...]      # sigma_Lz^2 law, normalized to -> 1
    phi_limit: float                  # extrapolated limit of the phi law
    lz_limit: float                   # extrapolated limit of the Lz law
    phi_dev: float                    # |phi_limit - 1|
    lz_dev: float                     # |lz_limit - 1|
    tol: float
    passed: bool


_SMALL_ALPHAS = (1e-3, 2e-3, 4e-3)
_LARGE_ALPHAS = (6.0, 8.0, 10.0)
_SMALL_TOL = 0.02
_LARGE_TOL = 1e-4


def _extrapolate(ws: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares limit of y = L + c w as w -> 0."""
    coeff = np.polynomial.polynomial.polyfit(ws, ys, 1)
    return float(coeff[0])


def asymptotic_check(family: CoefficientFamily, regime: str) -> FitReport:
    """Verify the exponential family's limit laws in one regime.

    small_alpha: sigma_phi^2 / alpha^2 -> 1 and 2 alpha^2 sigma_Lz^2 -> 1,
    within 2 %.  large_alpha: sigma_phi^2 -> pi^2/3 and
    e^{2 alpha} sigma_Lz^2 / 2 -> 1, with limits extrapolated against the
    leading correction (e^-alpha and e^-2alpha) and checked to 1e-4.
    """
    if _engine(family)[0] is not _exp_row:
        raise InvalidParameter(
            "asymptotic laws are stated for the exponential family only; "
            f"got family {family.name!r}"
        )
    if regime == "small_alpha":
        alphas = np.array(_SMALL_ALPHAS)
        evs = [exp_closed(a) for a in alphas]
        phi_ratios = np.array([ev.var_phi / a**2 for ev, a in zip(evs, alphas)])
        lz_ratios = np.array([2.0 * a**2 * ev.var_lz for ev, a in zip(evs, alphas)])
        phi_limit = _extrapolate(alphas, phi_ratios)
        lz_limit = _extrapolate(alphas**2, lz_ratios)
        tol = _SMALL_TOL
        # pointwise in the small-alpha regime: the ratios themselves converge
        phi_dev = max(abs(phi_ratios - 1.0).max(), abs(phi_limit - 1.0))
        lz_dev = max(abs(lz_ratios - 1.0).max(), abs(lz_limit - 1.0))
    elif regime == "large_alpha":
        alphas = np.array(_LARGE_ALPHAS)
        evs = [exp_closed(a) for a in alphas]
        phi_ratios = np.array([ev.var_phi / PI_SQ_OVER_3 for ev in evs])
        lz_ratios = np.array(
            [math.exp(2.0 * a) * ev.var_lz / 2.0 for ev, a in zip(evs, alphas)]
        )
        phi_limit = _extrapolate(np.exp(-alphas), phi_ratios)
        lz_limit = _extrapolate(np.exp(-2.0 * alphas), lz_ratios)
        tol = _LARGE_TOL
        phi_dev = abs(phi_limit - 1.0)
        lz_dev = abs(lz_limit - 1.0)
    else:
        raise InvalidParameter(
            f"regime must be 'small_alpha' or 'large_alpha', got {regime!r}"
        )
    return FitReport(
        regime=regime,
        alphas=tuple(float(a) for a in alphas),
        phi_ratios=tuple(float(r) for r in phi_ratios),
        lz_ratios=tuple(float(r) for r in lz_ratios),
        phi_limit=phi_limit,
        lz_limit=lz_limit,
        phi_dev=phi_dev,
        lz_dev=lz_dev,
        tol=tol,
        passed=(phi_dev <= tol and lz_dev <= tol),
    )
