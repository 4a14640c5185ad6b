"""Parameter-space analysis: admissibility, dominance, bound crossings.

The dominance condition asks for a single index k whose amplitude decays
slower than every other as alpha grows; by the main theorem this is
equivalent to the family reaching an arbitrarily small uncertainty
product.  liminf behaviour is approximated by grid tails, and verdicts
fall back to "inconclusive" rather than guessing when traces are
non-monotone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closed_forms import _poly_grid, exp_closed
from .errors import (
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NonConvergent,
    NotAttainable,
)
from .families import CoefficientFamily, exponential_family, polynomial_family
from .moments import uncertainty_report
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
# family evaluation on a grid (closed fast paths for the built-in families)
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


_EXP = exponential_family()
_POLY = polynomial_family()


def _engine(family: CoefficientFamily):
    """The grid evaluator that serves ``family``, and its sweep "# engine:" note.

    The evaluator maps a sequence of alphas to one moment record per alpha
    (var_phi, var_lz and state_bound among its fields), in order, with
    var_lz = +inf where sum n^2 |C_n|^2 diverges.  The polynomial family's
    evaluates the whole sequence in one call; the others evaluate one alpha
    at a time, as their records are read.  A built-in matches by dataclass
    == (name, rule and flags), so a family that only borrows a built-in's
    name runs the generic series engine."""
    if family is _EXP or family == _EXP:  # callers mostly pass the constant
        return functools.partial(map, exp_closed), "closed forms"
    if family is _POLY or family == _POLY:
        return _poly_grid, "closed forms: zeta ratio var_lz, polylogarithm series var_phi"

    def generic(alpha):
        return uncertainty_report(build_spectrum(family, alpha))

    return (functools.partial(map, generic),
            f"generic series at rel_tol={DEFAULT_REL_TOL}, n_max={DEFAULT_N_MAX}")


def _rows(family: CoefficientFamily, alphas: Sequence[float], keep_going: bool = False):
    """The SweepRows of ``family`` at ``alphas``, in order, as they are read.

    Where the record's var_lz is +inf (sigma_Lz diverges) DivergentMoment is
    raised, or with ``keep_going`` a row of NaN moments stands in."""
    for alpha, rec in zip(alphas, _engine(family)[0](alphas)):
        var_phi, var_lz, state_bound = rec.var_phi, rec.var_lz, rec.state_bound
        if math.isinf(var_lz):
            if not keep_going:
                raise DivergentMoment(f"family {family.name!r} at alpha={float(alpha)}: sum "
                                      "n^2 |C_n|^2 diverges, sigma_Lz does not exist")
            var_phi = var_lz = state_bound = math.nan
        yield SweepRow(float(alpha), var_phi, var_lz, math.sqrt(var_phi * var_lz),
                       HR_BOUND, state_bound)


def evaluate_family(family: CoefficientFamily, alpha: float) -> SweepRow:
    """One SweepRow for ``family`` at ``alpha``.

    The built-in exponential and polynomial family values go through their
    closed forms; any other family, whatever its name, runs the generic
    series engine.  Divergent sigma_Lz propagates as DivergentMoment.
    """
    return next(_rows(family, [alpha]))


def _products(family: CoefficientFamily, alphas: Sequence[float]):
    """The searches' products at ``alphas``, in order, as they are read; a
    divergent sigma_Lz reads as +inf."""
    for row in _rows(family, alphas, keep_going=True):
        yield math.inf if row.divergent else row.product


def _product(family: CoefficientFamily, alpha: float) -> float:
    """The searches' product at one alpha."""
    return next(_products(family, [alpha]))


def sweep(
    family: CoefficientFamily,
    alpha_min: float,
    alpha_max: float,
    steps: int,
    scale: str = "linear",
    keep_going: bool = False,
) -> list[SweepRow]:
    """Uncertainty-product profile over an alpha grid, ordered by alpha.

    The rows come from the family's grid evaluator (see _engine) on the
    calling thread; evaluate_family, condition (i) of check_admissibility
    and the scans of both searches read the same evaluator, so each row
    equals evaluate_family at its alpha.  With ``keep_going`` a divergent
    sigma_Lz yields a row with NaN variance instead of aborting the sweep.
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
    return list(_rows(family, grid.tolist(), keep_going))


# --------------------------------------------------------------------------
# dominance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of the grid-tail dominance check."""

    dominant_index: int | None
    verdict: str  # dominant | no_unique_dominant | inconclusive
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


def _index_range(name: str, bound: int) -> None:
    """Reject an index bound outside 1..DEFAULT_N_MAX before any amplitude is
    evaluated: every grid point evaluates all |n| <= bound, so the range may
    be no wider than a window."""
    if bound < 1:
        raise InvalidParameter(f"{name} must be >= 1, got {bound!r}")
    if bound > DEFAULT_N_MAX:
        raise InvalidParameter(f"{name} must be <= {DEFAULT_N_MAX}, got {bound!r}")


def _magnitudes(family: CoefficientFamily, grid: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """|C_n(alpha)| for n in ``ns``, one row per grid alpha; filled in place,
    since a stacked list of rows would double the peak memory."""
    mags = np.empty((grid.size, ns.size))
    for row, a in zip(mags, grid):
        row[:] = np.abs(family.coefficients(ns, float(a)))
    return mags


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
    _index_range("n_probe", n_probe)
    ns = np.arange(-n_probe, n_probe + 1)
    ratios = _magnitudes(family, grid, ns)
    k_pos = int(np.argmax(ratios[-1]))
    ref = ratios[:, k_pos].copy()
    if np.any(ref <= 0.0):  # candidate must be nonzero for every alpha
        return DominanceVerdict(None, "inconclusive", tuple(grid))

    # every other trace over the candidate's, in place; the candidate reads 0
    ratios /= ref[:, None]
    ratios[:, k_pos] = 0.0
    if ratios[-1].max() >= 1.0 - _TIE_MARGIN:
        return DominanceVerdict(None, "no_unique_dominant", tuple(grid))

    third = max(1, grid.size // 3)
    head = ratios[:third].mean(axis=0)
    tail = ratios[-third:].mean(axis=0)
    # decayed below the threshold, and not increasing from head to tail
    if ratios[-1].max() < DOMINANCE_THRESHOLD and np.all(tail <= head + 1e-15):
        return DominanceVerdict(int(ns[k_pos]), "dominant", tuple(grid))
    return DominanceVerdict(None, "inconclusive", tuple(grid))


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
    notes: str = ""


def _decreasing_run(mags: np.ndarray, below) -> bool:
    """Condition (iii) under ``below`` (np.less_equal or np.less): the grid's
    rows decrease throughout, or a greedy run over max(3, G // 2) of them does."""
    if below(mags[1:], mags[:-1]).all():
        return True
    # run[i]: length of the greedy run from point i, which steps to the first
    # later point whose every amplitude is below point i's
    run = np.ones(len(mags), dtype=int)
    for i in range(len(mags) - 2, -1, -1):
        later = np.flatnonzero(below(mags[i + 1:], mags[i]).all(axis=1))
        if later.size:
            run[i] += run[i + 1 + later[0]]
    return bool(run.max() >= max(3, len(mags) // 2))


def check_admissibility(
    family: CoefficientFamily,
    alpha_grid: Sequence[float],
    kappa: float,
    N: int,
    eps: float,
) -> AdmissibilityReport:
    """Test the three admissibility conditions on the given grid.

    (i) inf sigma_phi^2 >= kappa over the grid points with a normalizable
    state (sigma_phi needs no finite sigma_Lz; the other points are named in
    the notes); (ii) the n^2 |C_n|^2 tail beyond N stays
    below eps uniformly on the grid; (iii) some increasing run of grid
    points has coefficientwise decreasing amplitudes for |n| <= N.  The
    headline for (iii) uses the nonstrict reading (constant amplitudes
    allowed, matching the exponential family's C_0 = 1); the strict
    reading is reported alongside.
    """
    grid = _validate_grid(alpha_grid)
    if not (kappa > 0.0) or not (eps > 0.0):
        raise InvalidParameter("need kappa > 0, eps > 0")
    _index_range("N", N)
    notes: list[str] = []

    alphas = grid.tolist()
    var_phi = [rec.var_phi for rec in _engine(family)[0](alphas)]
    lost = [a for a, v in zip(alphas, var_phi) if math.isnan(v)]
    if lost:
        notes.append(f"condition (i): no normalizable state at alpha in {lost}")
    inf_var = min((v for v in var_phi if not math.isnan(v)), default=math.nan)
    cond_i = inf_var >= kappa

    try:
        tails = tail_second_moment(family, list(grid), N)
        max_tail = max(tails)
        cond_ii = max_tail < eps
    except NonConvergent as exc:
        max_tail = math.inf
        cond_ii = False
        notes.append(f"condition (ii): tail not summable ({exc})")

    mags = _magnitudes(family, grid, np.arange(-N, N + 1))
    cond_iii = _decreasing_run(mags, np.less_equal)
    cond_iii_strict = _decreasing_run(mags, np.less)
    if cond_iii and not cond_iii_strict:
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
        cond_iii=cond_iii,
        cond_iii_strict=cond_iii_strict,
        notes="; ".join(notes),
    )


# --------------------------------------------------------------------------
# alpha-star search and bound crossing
# --------------------------------------------------------------------------

def _bisect(inside, lo: float, hi: float, abs_width: float, rel_width: float = 0.0):
    """Halve the bracket [lo, hi], whose hi end is ``inside``, until it is no
    wider than max(abs_width, rel_width * lo); return the final (lo, hi)."""
    while hi - lo > max(abs_width, rel_width * lo):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


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
    # a divergent product reads as inf, so an infinite epsilon is no target
    if not (0.0 < epsilon < math.inf):
        raise InvalidParameter(f"epsilon must be positive and finite, got {epsilon!r}")
    if not (0.0 < alpha_hint < math.inf):
        raise InvalidParameter(f"alpha_hint must be positive and finite, got {alpha_hint!r}")

    # hint, 2 hint, ... up to the first alpha at or past the budget, read
    # lazily: the exponential and generic evaluators stop at the first hit
    doubling = [alpha_hint]
    while doubling[-1] < ALPHA_STAR_BUDGET:
        doubling.append(min(2.0 * doubling[-1], ALPHA_STAR_BUDGET))
    missed = []  # (alpha, product) before the first product below epsilon
    for alpha, p in zip(doubling, _products(family, doubling)):
        if p < epsilon:
            break
        missed.append((alpha, p))
    else:
        # the first of the smallest products
        best_alpha, best_p = min(missed, key=lambda pair: pair[1])
        raise NotAttainable(
            f"no alpha <= {ALPHA_STAR_BUDGET:g} reaches product < {epsilon:g}; "
            f"smallest product seen: {best_p:.6g} at alpha={best_alpha:.6g}, "
            f"settling near {p:.6g} at the budget edge",
            best_alpha=best_alpha,
            best_product=best_p,
            edge_alpha=alpha,
            edge_product=p,
        )

    if not missed:  # the hint itself already qualified
        return alpha
    # product(missed[-1]) >= eps > product(alpha)
    _, hi = _bisect(lambda a: _product(family, a) < epsilon, missed[-1][0], alpha,
                    1e-3, rel_width=1e-3)
    return hi


def find_bound_crossing(family: CoefficientFamily, target: float) -> float:
    """Solve product(alpha) = target by bracketing and bisection.

    Reads a 64-point log grid over CROSSING_WINDOW up to the first sign
    change of product - target, then bisects to |delta alpha| <= 1e-6.
    Raises NoBracket when the product never crosses the target in the window.
    """
    if not math.isfinite(target):
        raise InvalidParameter(f"target must be finite, got {target!r}")
    lo_w, hi_w = CROSSING_WINDOW
    grid = np.geomspace(lo_w, hi_w, 64).tolist()
    scan = zip(grid, (p - target for p in _products(family, grid)))
    for (lo, a), (hi, b) in itertools.pairwise(scan):
        if math.isinf(a) or math.isinf(b):
            continue
        if a == 0.0:
            return lo
        if a * b < 0.0:
            break
    else:
        raise NoBracket(
            f"product(alpha) - {target:g} has no sign change on "
            f"[{lo_w:g}, {hi_w:g}]",
            alpha_lo=lo_w,
            alpha_hi=hi_w,
        )

    lo_below = a < 0.0  # lo stays on this side of the target
    lo, hi = _bisect(lambda m: (_product(family, m) - target < 0.0) != lo_below, lo, hi, 1e-6)
    return 0.5 * (lo + hi)
