"""Truncated, normalized spectra of one-parameter coefficient families.

A TruncatedSpectrum is the concrete object every other module works on:
a finite window of Fourier amplitudes C_n, |n| <= N, together with the
normalization constant |A|^2 fixing 2 pi |A|^2 sum |C_n|^2 = 1, and an
estimate of the second-moment mass n^2 |C_n|^2 lost to truncation.

hbar = 1 throughout; angular-momentum moments are reported in units of
hbar^2 and uncertainty products in units of hbar.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateState, InvalidParameter, NonConvergent
from .families import CoefficientFamily

DEFAULT_REL_TOL = 1e-12
DEFAULT_N_MAX = 2_000_000

# Sample count for tail classification (log-spaced across half a window;
# wide gaps keep the fitted decay exponent insensitive to term rounding).
_TAIL_SAMPLES = 9
# Fitted power-law slopes at or below this mean a divergent series.
_DIVERGENT_SLOPE = 1.01

_ZERO_FLOOR = 1e-300
# Elements per list handed to math.fsum by _fsum.
_FSUM_CHUNK = 1024
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


def _too_slow(series: str, est: _TailEstimate, lo_n: int, hi_n: int) -> str:
    """What a "divergent" fit over [lo_n, hi_n] measured.

    A slope at or below _DIVERGENT_SLOPE is also what a convergent series
    shows over a window too short to see its decay (e^{-2 alpha n} at tiny
    alpha is flat), so the message does not state divergence as a fact.
    """
    return (
        f"{series} diverges or decays too slowly to resolve (fitted slope "
        f"{est.slope:.3f} <= {_DIVERGENT_SLOPE} over n = {lo_n}..{hi_n})"
    )


@functools.lru_cache(maxsize=64)
def _tail_samples(lo_n: int, hi_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spaced sample indices over [lo_n, hi_n], as ints and floats, and
    the fit design with columns [1, n/n_last, ln n].

    The cached arrays are read-only: every ring over the range shares them.
    """
    idx = np.unique(
        np.geomspace(lo_n, hi_n, num=min(_TAIL_SAMPLES, hi_n - lo_n + 1)).astype(int)
    )
    ns = idx.astype(float)
    design = np.column_stack([np.ones_like(ns), ns / ns[-1], np.log(ns)])
    for arr in (idx, ns, design):
        arr.flags.writeable = False
    return idx, ns, design


def _classify_tail(
    ns: np.ndarray, t_last: float, coef: np.ndarray, max_resid: float
) -> _TailEstimate:
    """Classify the decay of t_n > 0 from its fit over log-spaced samples ns.

    The fit is ln t = A + B n + C ln n (``coef`` holds A, B n_last, C),
    separating a geometric rate B from a power prefactor C (pure ratio
    tests misread mixed decays like n^2 e^{-2 alpha n}); ``max_resid`` is
    its largest absolute residual.  A clear geometric rate gets a majorant
    from the largest future per-step ratio exp(B + max(C, 0)/n); a pure
    power law t ~ n^-s gets an Euler-Maclaurin tail estimate, with fitted
    slopes s <= 1 flagged divergent.  Anything ambiguous is unresolved.
    """
    n_last = float(ns[-1])
    span = float(ns[-1] - ns[0])
    b_rate = float(coef[1]) / n_last
    c_pow = float(coef[2])
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
    columns: tuple[np.ndarray, ...], lo_n: int, hi_n: int, first: int = 1
) -> tuple[_TailEstimate, ...]:
    """Classify each column's decay over the index range [lo_n, hi_n].

    Every column holds a sequence for n = first..first+len-1, all of one
    length.  They share one log-spaced sample set (samples spread out so
    that slope fits stay well conditioned) and one least-squares fit with
    a right-hand side per column; all-zero windows and samples at the
    underflow floor are sorted out per column before the fit.
    """
    lo_n = max(first, lo_n)
    if hi_n < lo_n or columns[0].size <= lo_n - first:
        return (_UNRESOLVED,) * len(columns)
    idx, ns, design = _tail_samples(lo_n, hi_n)
    out: list[_TailEstimate] = []
    fit: list[int] = []
    for values in columns:
        if float(values[lo_n - first : hi_n - first + 1].max()) <= _ZERO_FLOOR:
            out.append(_TailEstimate("zero", 0.0, 0.0))
        elif idx.size < 4 or np.any(values[idx - first] <= _ZERO_FLOOR):
            out.append(_UNRESOLVED)
        else:
            fit.append(len(out))
            out.append(_UNRESOLVED)
    if fit:
        ts = np.column_stack([columns[j][idx - first] for j in fit])
        logt = np.log(ts)
        coef, *_ = np.linalg.lstsq(design, logt, rcond=None)
        max_resid = np.abs(design @ coef - logt).max(axis=0)
        for k, j in enumerate(fit):
            out[j] = _classify_tail(
                ns, float(ts[-1, k]), coef[:, k], float(max_resid[k])
            )
    return tuple(out)


# --------------------------------------------------------------------------
# the state object
# --------------------------------------------------------------------------

def _fsum(values: np.ndarray) -> float:
    """math.fsum of a float array, bit-identical to ``math.fsum(values)``.

    fsum reads Python floats about 1.4x faster than numpy scalars.  A long
    array is converted a chunk at a time, so it never holds all its float
    objects at once (one list of 30 000 raised peak RSS by 2 MB).
    """
    if values.size <= _FSUM_CHUNK:
        return math.fsum(values.tolist())
    return math.fsum(
        itertools.chain.from_iterable(
            values[i : i + _FSUM_CHUNK].tolist()
            for i in range(0, values.size, _FSUM_CHUNK)
        )
    )


def _smooth_length(need: int) -> int:
    """Smallest 2^a 3^b 5^c that is at least ``need``: a fast FFT length."""
    best = 1 << max(need - 1, 0).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            p = f35
            while p < need:
                p *= 2
            best = min(best, p)
            f35 *= 3
        f5 *= 5
    return best


def _shell_sums(coeffs: np.ndarray) -> np.ndarray:
    """S_k = sum_n conj(c_n) c_{n+k} for k = 1 .. len(coeffs)-1, read-only.

    One autocorrelation ifft(|fft(c, L)|^2) over the nonzero support of the
    window; L >= 2m - 1 for a support of m modes, so the circular
    correlation does not wrap.  A real window goes through rfft/irfft and
    gets exactly real shells; shells wider than the support are exactly 0.
    """
    out = np.zeros(coeffs.size - 1, dtype=np.complex128)
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size >= 2:
        c = coeffs[nonzero[0] : nonzero[-1] + 1]
        span = c.size - 1
        length = _smooth_length(2 * c.size - 1)
        if np.any(c.imag):
            f = np.fft.fft(c, length)
            out[:span] = np.fft.ifft(f.real * f.real + f.imag * f.imag)[1 : span + 1]
        else:
            f = np.fft.rfft(c.real, length)
            power = f.real * f.real + f.imag * f.imag
            out.real[:span] = np.fft.irfft(power, length)[1 : span + 1]
    out.flags.writeable = False
    return out


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

    @property
    def amplitude(self) -> float:
        """A, the positive real root of |A|^2 (global phase unobservable)."""
        return math.sqrt(self.norm_sq)

    @property
    def lz_divergent(self) -> bool:
        """True when the family's n^2 |C_n|^2 series is non-summable."""
        return math.isinf(self.tail_bound)

    @functools.cached_property  # stored in __dict__, which frozen allows
    def shells(self) -> np.ndarray:
        """S_k = sum_n conj(C_n) C_{n+k}, k = 1 .. 2N: one pass per state, read-only."""
        return _shell_sums(self.coeffs)

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

        u_est, v_est, x_est = _tail_estimate((u, v, x), n_edge // 2, n_edge)
        if u_est.kind == "divergent":
            raise NonConvergent(
                f"family {family.name!r} at alpha={alpha}: the normalization "
                + _too_slow("sum |C_n|^2", u_est, n_edge // 2, n_edge)
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
    s0 = u0 + _fsum(u[:cutoff])  # meets(cutoff) held, so s0 > _ZERO_FLOOR
    s2 = _fsum(v[:cutoff])
    cp_sq = np.abs(cp[:cutoff]) ** 2
    cm_sq = np.abs(cm[:cutoff]) ** 2
    s1 = _fsum(n_win * cp_sq) - _fsum(n_win * cm_sq)

    # the dropped part of the window is summed directly, never as a
    # difference of window totals, which would cancel it below eps * total
    if math.isinf(v_est.bound):
        tail_bound, tail_err = math.inf, math.inf
    else:
        tail_bound = _fsum(v[cutoff:]) + v_est.bound
        tail_err = v_est.err + _TERM_ROUND * tail_bound
    norm_tail = _fsum(u[cutoff:]) + u_est.bound

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
    )


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_PHI_SLACK = 1e-12


def evaluate_state(s: TruncatedSpectrum, phi: float) -> StateSample:
    """f(phi) = A sum_{|n|<=N} C_n e^{i n phi} for phi in [-pi, pi]."""
    if not (-math.pi - _PHI_SLACK <= phi <= math.pi + _PHI_SLACK):
        raise InvalidParameter(f"phi must lie in [-pi, pi], got {phi!r}")
    phases = np.exp(1j * phi * np.arange(-s.cutoff, s.cutoff + 1))
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
            (est,) = _tail_estimate((seq,), (N + hi) // 2, hi, first=N + 1)
            if est.kind == "divergent":
                raise NonConvergent(
                    f"family {family.name!r} at alpha={alpha}: "
                    + _too_slow("n^2|C_n|^2", est, (N + hi) // 2, hi)
                )
            if est.kind in ("zero", "geometric", "power"):
                retained = _fsum(seq)
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
