"""Truncated, normalized spectra of one-parameter coefficient families.

A TruncatedSpectrum is the concrete object every other module works on:
a finite window of Fourier amplitudes C_n, |n| <= N, together with the
normalization constant |A|^2 fixing 2 pi |A|^2 sum |C_n|^2 = 1, and an
estimate of the second-moment mass n^2 |C_n|^2 lost to truncation.

hbar = 1 throughout; angular-momentum moments are reported in units of
hbar^2 and uncertainty products in units of hbar.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateState, InvalidParameter, NonConvergent
from .families import CoefficientFamily

HBAR = 1.0
HBAR_NOTE = "hbar = 1 (natural units)"

DEFAULT_REL_TOL = 1e-12
DEFAULT_N_MAX = 2_000_000

# Sample count for tail classification (log-spaced across half a window;
# wide gaps keep the fitted decay exponent insensitive to term rounding).
_TAIL_SAMPLES = 9
# Fitted power-law slopes at or below this mean a divergent series.
_DIVERGENT_SLOPE = 1.01

_ZERO_FLOOR = 1e-300
# Relative rounding of a tail summed term by term: forming each n^2 |C_n|^2
# from its amplitudes costs a few ulps, and math.fsum adds half of one.
_TERM_ROUND = 8.0 * sys.float_info.epsilon


# --------------------------------------------------------------------------
# tail classification of a positive, eventually-decaying sequence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _TailEstimate:
    kind: str          # zero | geometric | power | divergent | unresolved
    bound: float       # estimated mass beyond the last sample (inf allowed)
    err: float         # upper bound on the estimate's own error
    slope: float | None = None
    n_last: float = 0.0
    t_last: float = 0.0
    rhat: float = 0.0  # geometric per-step ratio

    @property
    def outer(self) -> float:
        """Mass estimate plus its uncertainty, for conservative criteria."""
        return self.bound + (self.err if self.kind == "power" else 0.0)

    def predict(self, n: float) -> float:
        """Expected term magnitude at index n under the fitted decay model."""
        if self.kind == "geometric" and self.rhat > 0.0:
            return self.t_last * self.rhat ** (n - self.n_last)
        if self.kind in ("power", "divergent") and self.slope is not None:
            return self.t_last * (n / self.n_last) ** (-self.slope)
        return 0.0


_UNRESOLVED = _TailEstimate("unresolved", math.inf, math.inf)


def _classify_tail(ns: np.ndarray, ts: np.ndarray) -> _TailEstimate:
    """Classify the decay of t_n > 0 from log-spaced samples (n, t_n).

    Fits ln t = A + B n + C ln n, separating a geometric rate B from a
    power prefactor C (pure ratio tests misread mixed decays like
    n^2 e^{-2 alpha n}).  A clear geometric rate gets a majorant from the
    largest future per-step ratio exp(B + max(C, 0)/n); a pure power law
    t ~ n^-s gets an Euler-Maclaurin tail estimate, with fitted slopes
    s <= 1 flagged divergent.  Anything ambiguous is unresolved.
    """
    if ns.size < 4:
        return _UNRESOLVED
    n_last = float(ns[-1])
    t_last = float(ts[-1])
    span = float(ns[-1] - ns[0])
    if span <= 0.0:
        return _UNRESOLVED
    logt = np.log(ts)
    design = np.column_stack([np.ones_like(ns), ns / n_last, np.log(ns)])
    coef, *_ = np.linalg.lstsq(design, logt, rcond=None)
    b_rate = float(coef[1]) / n_last
    c_pow = float(coef[2])
    max_resid = float(np.abs(design @ coef - logt).max())
    if max_resid > 0.1:
        return _UNRESOLVED

    if b_rate * span < -1.0:
        # geometric regime: future per-step log-ratios are bounded by
        # B + max(C, 0)/n_last (the prefactor correction shrinks with n),
        # padded by the per-step misfit seen in the window
        slack = 2.0 * max_resid / (span / (ns.size - 1))
        log_rhat = b_rate + max(c_pow, 0.0) / n_last + slack
        if log_rhat >= -1e-12:
            return _UNRESOLVED
        rhat = math.exp(log_rhat)
        bound = t_last * rhat / (1.0 - rhat)
        return _TailEstimate(
            "geometric", bound, bound, n_last=n_last, t_last=t_last, rhat=rhat
        )

    if abs(b_rate) * n_last > 1e-6:
        # a geometric component is present but not yet conclusive over this
        # window; wait for a wider one rather than misread it as a power law
        # (slow power tails are nonperturbatively sensitive to any true
        # geometric factor, so the fitted rate must sit at noise level)
        return _UNRESOLVED

    s = -c_pow
    spread = 2.0 * max_resid / math.log(ns[-1] / ns[0])
    if s <= _DIVERGENT_SLOPE:
        return _TailEstimate(
            "divergent", math.inf, math.inf, s, n_last=n_last, t_last=t_last
        )
    # Euler-Maclaurin tail of t_last (n/n_last)^{-s} beyond n_last, boundary
    # b = n_last + 1, written through (n_last/b)^s to stay finite for large s.
    b = n_last + 1.0
    ratio_pow = math.exp(-s * math.log1p(1.0 / n_last))
    bracket = (
        b / (s - 1.0)
        + 0.5
        + s / (12.0 * b)
        - s * (s + 1.0) * (s + 2.0) / (720.0 * b ** 3)
    )
    est = t_last * ratio_pow * bracket
    em_err = t_last * ratio_pow * (
        s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / (30240.0 * b ** 5)
    )
    model_err = est * (math.log(b) + 1.0 / (s - 1.0)) * spread
    return _TailEstimate(
        "power", est, em_err + model_err, s, n_last=n_last, t_last=t_last
    )


def _tail_estimate(
    values: np.ndarray, lo_n: int, hi_n: int, first: int = 1
) -> _TailEstimate:
    """Classify value[n-first] decay over the index range [lo_n, hi_n].

    ``values`` holds the sequence for n = first..first+len(values)-1;
    samples are log-spaced so that slope fits stay well conditioned.
    """
    lo_n = max(first, lo_n)
    if hi_n < lo_n:
        return _UNRESOLVED
    window = values[lo_n - first : hi_n - first + 1]
    if window.size == 0:
        return _UNRESOLVED
    if float(window.max()) <= _ZERO_FLOOR:
        return _TailEstimate("zero", 0.0, 0.0)
    idx = np.unique(
        np.geomspace(lo_n, hi_n, num=min(_TAIL_SAMPLES, hi_n - lo_n + 1)).astype(int)
    )
    ts = values[idx - first]
    if np.any(ts <= _ZERO_FLOOR):
        return _UNRESOLVED
    return _classify_tail(idx.astype(float), ts)


# --------------------------------------------------------------------------
# the state object
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedSpectrum:
    """Normalized coefficient window of one family member at fixed alpha."""

    family_name: str
    alpha: float
    cutoff: int
    coeffs: np.ndarray = field(repr=False)  # complex, index -N..N
    norm_sq: float                          # |A|^2
    tail_bound: float                       # truncated n^2|C_n|^2 mass (raw units)
    tail_err: float                         # error bound on tail_bound
    norm_tail: float                        # truncated |C_n|^2 mass (raw units)
    sum_sq: float                           # window sum |C_n|^2
    sum_n1: float                           # window sum n |C_n|^2
    sum_n2: float                           # window sum n^2 |C_n|^2
    is_real: bool
    is_symmetric: bool
    hbar_convention: str = HBAR_NOTE

    @property
    def amplitude(self) -> float:
        """A, the positive real root of |A|^2 (global phase unobservable)."""
        return math.sqrt(self.norm_sq)

    @property
    def lz_divergent(self) -> bool:
        """True when the family's n^2 |C_n|^2 series is non-summable."""
        return math.isinf(self.tail_bound)

    def n_values(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def coefficient(self, n: int) -> complex:
        if abs(n) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.cutoff])


@dataclass(frozen=True)
class StateSample:
    """f_alpha evaluated at one angle."""

    phi: float
    value: complex


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def _probe_ok(
    family: CoefficientFamily,
    alpha: float,
    n_edge: int,
    n_cap: int,
    threshold: float,
    est: _TailEstimate | None = None,
) -> bool:
    """Spot-check indices beyond the window for resurgent mass.

    Each probed n^2 |C_n|^2 must stay below the fitted decay model (with a
    generous factor) or below the absolute resurgence threshold; this
    catches families whose amplitudes come back after a quiet stretch.
    """
    probes = sorted(
        {
            n
            for n in (n_edge + 1, (3 * n_edge) // 2, 2 * n_edge, 4 * n_edge)
            if n_edge < n <= n_cap
        }
    )
    if not probes:
        return True
    arr = np.asarray(probes)
    cp = np.abs(family.coefficients(arr, alpha)) ** 2
    cm = np.abs(family.coefficients(-arr, alpha)) ** 2
    v = arr.astype(float) ** 2 * (cp + cm)
    for n, val in zip(arr, v):
        allowed = threshold
        if est is not None:
            allowed = max(allowed, 16.0 * est.predict(float(n)))
        if val > allowed:
            return False
    return True


def _grow(
    family: CoefficientFamily, alpha: float, first: int, width: int, n_max: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (edge, cp, cm): the amplitudes at +n and -n for n = first..edge.

    The window grows outward one ring at a time, each ring as wide as the
    window before it (the first ring is ``width`` wide), up to n_max.
    """
    cp = cm = np.empty(0, dtype=np.complex128)
    edge = first - 1
    while edge < n_max:
        ring = np.arange(edge + 1, min(edge + max(width, edge - first + 1), n_max) + 1)
        cp = np.concatenate((cp, family.coefficients(ring, alpha)))
        cm = np.concatenate((cm, family.coefficients(-ring, alpha)))
        edge = int(ring[-1])
        yield edge, cp, cm


def build_spectrum(
    family: CoefficientFamily,
    alpha: float,
    rel_tol: float = DEFAULT_REL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> TruncatedSpectrum:
    """Build the normalized truncated spectrum of ``family`` at ``alpha``.

    The cutoff N is the smallest window such that (a) the truncated
    |C_n|^2 mass is below rel_tol of the retained sum and (b) the
    truncated n^2 |C_n|^2 mass is resolved: below rel_tol of its retained
    sum, or estimated by an Euler-Maclaurin tail for slowly decaying
    power-law families, or flagged as divergent (tail_bound = inf), in
    which case the angular-momentum moments raise DivergentMoment
    downstream.

    Raises NonConvergent when no window up to n_max resolves the tails,
    DegenerateState when every amplitude underflows, InvalidParameter on
    domain violations.
    """
    if not (alpha > 0.0) or math.isnan(alpha):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameter(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    if n_max < 1:
        raise InvalidParameter(f"n_max must be >= 1, got {n_max!r}")

    c0 = complex(family.coefficient(0, alpha))
    u0 = abs(c0) ** 2
    w0 = abs(c0)
    must_cover = min(family.support_hint or 0, n_max)
    u_est = v_est = _UNRESOLVED

    def meets(cand: int) -> bool:
        """Whether truncating the grown window at cand meets every tail test."""
        if cand < must_cover:
            return False
        u_ret, v_ret, x_ret = (
            c[cand - 1] if cand else 0.0 for c in (u_cum, v_cum, x_cum)
        )
        s0_c = u0 + u_ret
        if s0_c <= _ZERO_FLOOR:
            return False
        if (u_cum[-1] - u_ret) + u_est.outer > rel_tol * s0_c:
            return False
        if (x_cum[-1] - x_ret) + x_est.outer > rel_tol * max(w0 + x_ret, _ZERO_FLOOR):
            return False
        if v_est.kind == "divergent":
            return True
        if v_est.kind == "power":
            # the Euler-Maclaurin completion is kept, so only its error counts
            return v_est.err <= rel_tol * max(v_cum[-1] + v_est.bound, _ZERO_FLOOR)
        return (v_cum[-1] - v_ret) + v_est.bound <= rel_tol * max(v_ret, _ZERO_FLOOR)

    for n_edge, cp, cm in _grow(family, alpha, 1, 16, n_max):
        if n_edge < must_cover:
            continue
        u = np.abs(cp) ** 2 + np.abs(cm) ** 2
        ns = np.arange(1, n_edge + 1, dtype=float)
        v = ns * ns * u
        # first-order sensitivity of the off-diagonal 1/(n-m)^2 sums to a
        # dropped amplitude at n; quadratic mass criteria alone miss it
        x = (np.abs(cp) + np.abs(cm)) / (ns * ns)

        u_est = _tail_estimate(u, n_edge // 2, n_edge)
        v_est = _tail_estimate(v, n_edge // 2, n_edge)
        x_est = _tail_estimate(x, n_edge // 2, n_edge)
        if u_est.kind == "divergent":
            raise NonConvergent(
                f"family {family.name!r} at alpha={alpha}: the normalization "
                f"sum |C_n|^2 diverges (slope {u_est.slope:.3f} <= 1)"
            )
        u_cum = np.cumsum(u)
        v_cum = np.cumsum(v)
        x_cum = np.cumsum(x)
        mass = u0 + u_cum[-1]
        if mass <= _ZERO_FLOOR and u_est.kind == "zero":
            if _probe_ok(family, alpha, n_edge, n_max, _ZERO_FLOOR):
                raise DegenerateState(
                    f"family {family.name!r} at alpha={alpha}: all amplitudes "
                    "below the underflow threshold"
                )
        probe_threshold = max(rel_tol * max(v_cum[-1], mass), _ZERO_FLOOR)
        if meets(n_edge) and _probe_ok(
            family, alpha, n_edge, n_max, probe_threshold, v_est
        ):
            break
    else:
        raise NonConvergent(
            f"family {family.name!r} at alpha={alpha}: tail criteria not met "
            f"within n_max={n_max} (|C_n|^2 tail: {u_est.kind}, "
            f"n^2|C_n|^2 tail: {v_est.kind})"
        )

    lo, hi = 0, n_edge  # hi is known-good
    while lo < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid + 1
    cutoff = lo

    coeffs = np.empty(2 * cutoff + 1, dtype=np.complex128)
    coeffs[cutoff] = c0
    if cutoff >= 1:
        coeffs[cutoff + 1 :] = cp[:cutoff]
        coeffs[:cutoff] = cm[:cutoff][::-1]
    coeffs.flags.writeable = False  # value object, safe to share across threads

    n_win = ns[:cutoff]
    s0 = u0 + math.fsum(u[:cutoff])  # meets(cutoff) held, so s0 > _ZERO_FLOOR
    s2 = math.fsum(v[:cutoff])
    cp_sq = np.abs(cp[:cutoff]) ** 2
    cm_sq = np.abs(cm[:cutoff]) ** 2
    s1 = math.fsum(n_win * cp_sq) - math.fsum(n_win * cm_sq)

    # the dropped part of the window is summed directly, never as a
    # difference of window totals, which would cancel it below eps * total
    if math.isinf(v_est.bound):
        tail_bound, tail_err = math.inf, math.inf
    else:
        tail_bound = math.fsum(v[cutoff:]) + v_est.bound
        tail_err = v_est.err + _TERM_ROUND * tail_bound
    norm_tail = math.fsum(u[cutoff:]) + u_est.bound

    return TruncatedSpectrum(
        family_name=family.name,
        alpha=float(alpha),
        cutoff=cutoff,
        coeffs=coeffs,
        norm_sq=1.0 / (2.0 * math.pi * s0),
        tail_bound=tail_bound,
        tail_err=tail_err,
        norm_tail=norm_tail,
        sum_sq=s0,
        sum_n1=s1,
        sum_n2=s2,
        is_real=family.is_real,
        is_symmetric=family.is_symmetric,
    )


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_PHI_SLACK = 1e-12


def evaluate_state(s: TruncatedSpectrum, phi: float) -> StateSample:
    """f(phi) = A sum_{|n|<=N} C_n e^{i n phi} for phi in [-pi, pi]."""
    if not (-math.pi - _PHI_SLACK <= phi <= math.pi + _PHI_SLACK):
        raise InvalidParameter(f"phi must lie in [-pi, pi], got {phi!r}")
    phases = np.exp(1j * phi * s.n_values())
    value = s.amplitude * complex(np.dot(s.coeffs, phases))
    return StateSample(phi=float(phi), value=value)


def boundary_density(s: TruncatedSpectrum) -> float:
    """|f(pi)|^2, the density entering the state-dependent bound."""
    return abs(evaluate_state(s, math.pi).value) ** 2


# --------------------------------------------------------------------------
# family-level tail diagnostics
# --------------------------------------------------------------------------

_TAIL_REL = 1e-12
_TAIL_BUDGET = 4_000_000


def tail_second_moment(
    family: CoefficientFamily,
    alpha_grid: Sequence[float],
    N: int,
) -> list[float]:
    """T_N(alpha) = sum_{|n| > N} n^2 |C_n(alpha)|^2 per grid point.

    Summed outward from N+1 until the remainder majorant (or, for slow
    power-law tails, the error of the Euler-Maclaurin completion) drops
    below 1e-12 of the tail total; the certification assumes tails that
    are asymptotically geometric or pure power laws.  Divergent tails
    (slope <= 1) raise NonConvergent.
    """
    if len(alpha_grid) == 0:
        raise InvalidParameter("alpha grid must be nonempty")
    if N < 1:
        raise InvalidParameter(f"N must be >= 1, got {N!r}")

    out = []
    for alpha in alpha_grid:
        if not (alpha > 0.0):
            raise InvalidParameter(f"grid alphas must be positive, got {alpha!r}")
        for hi, cp, cm in _grow(family, alpha, N + 1, 256, N + _TAIL_BUDGET):
            ns = np.arange(N + 1, hi + 1, dtype=float)
            seq = ns * ns * (np.abs(cp) ** 2 + np.abs(cm) ** 2)  # seq[0] <-> n = N+1
            est = _tail_estimate(seq, (N + hi) // 2, hi, first=N + 1)
            if est.kind == "divergent":
                raise NonConvergent(
                    f"family {family.name!r} at alpha={alpha}: n^2|C_n|^2 "
                    f"diverges (slope {est.slope:.3f} <= 1)"
                )
            if est.kind in ("zero", "geometric", "power"):
                retained = math.fsum(seq)
                scale = max(retained + est.bound, _ZERO_FLOOR)
                if est.err <= _TAIL_REL * scale and _probe_ok(
                    family, alpha, hi, hi + 8 * (hi - N), _TAIL_REL * scale, est
                ):
                    out.append(retained + est.bound)
                    break
        else:
            raise NonConvergent(
                f"family {family.name!r} at alpha={alpha}: tail beyond N={N} "
                f"not resolved within probe budget"
            )
    return out
