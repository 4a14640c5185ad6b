"""Truncated, normalized spectra of one-parameter coefficient families.

A TruncatedSpectrum is the concrete object every other module works on:
a finite window of Fourier amplitudes C_n, |n| <= N, together with the
normalization constant |A|^2 fixing 2 pi |A|^2 sum |C_n|^2 = 1, and an
estimate of the second-moment mass n^2 |C_n|^2 lost to truncation.

N is the least window that passes three tail tests (the |C_n|^2 mass,
the n^2 |C_n|^2 mass and the sensitivity sum |C_n| / n^2), each tested
the same way and searched for by one gallop-and-bisect.  Only the source
of the tails differs.  The built-in exponential and polynomial family
values have every tail in closed form (geometric sums and Hurwitz zeta
tails), so their cutoff is found before any amplitude is evaluated.  A
family with a finite support keeps its whole support, and its tails are
exactly zero.  Any other family (a callable, a renamed copy of a
built-in) grows its window ring by ring, reads the dropped part of the
window from sums taken from the far end, fits each ring's tails past the
edge by least squares, and probes beyond the window for resurgent mass.
Every engine evaluates its window in one place and builds the state there.

hbar = 1 throughout; angular-momentum moments are reported in units of
hbar^2 and uncertainty products in units of hbar.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DegenerateState, InvalidParameter, NonConvergent
from .families import CoefficientFamily, exponential_family, polynomial_family
from .special import zeta

DEFAULT_REL_TOL = 1e-12
DEFAULT_N_MAX = 2_000_000

# Sample count for tail classification (log-spaced across half a window;
# wide gaps keep the fitted decay exponent insensitive to term rounding).
_TAIL_SAMPLES = 9
# Fitted power-law slopes at or below this mean a divergent series.
_DIVERGENT_SLOPE = 1.01

_ZERO_FLOOR = 1e-300
_EPS = sys.float_info.epsilon
# _fsum extracts at most _FSUM_ROUNDS rounds from arrays of at least
# _FSUM_EXTRACT_MIN terms and lists the rest for math.fsum.  Extraction
# breaks even with the list at 800 to 1300 terms for exponent spans of 30
# to 110 bits, and won on every array measured from 1536 terms on (2-core
# x86-64 host, CPython 3.11, numpy 2.4).  The windows and shells of the
# benchmark's states span at most 83 bits and need at most 4 rounds.
_FSUM_EXTRACT_MIN = 1536
_FSUM_ROUNDS = 4
# Relative rounding of a tail summed term by term: forming each n^2 |C_n|^2
# from its amplitudes costs a few ulps, and math.fsum adds half of one.
_TERM_ROUND = 8.0 * _EPS


# --------------------------------------------------------------------------
# tail classification of a positive, eventually-decaying sequence
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _TailEstimate:
    kind: str          # zero | geometric | power | divergent | unresolved
    bound: float       # estimated mass beyond the last sample (inf allowed)
    err: float         # upper bound on the estimate's own error
    slope: float | None = None
    n_first: float = 0.0  # the fitted range, n_first..n_last
    n_last: float = 0.0
    t_last: float = 0.0
    rhat: float = 0.0  # geometric per-step ratio

    def predict(self, n: float) -> float:
        """Expected term magnitude at index n under the fitted decay model."""
        if self.kind == "geometric" and self.rhat > 0.0:
            return self.t_last * self.rhat ** (n - self.n_last)
        if self.kind in ("power", "divergent") and self.slope is not None:
            return self.t_last * (n / self.n_last) ** (-self.slope)
        return 0.0


_UNRESOLVED = _TailEstimate("unresolved", math.inf, math.inf)


def _too_slow(series: str, est: _TailEstimate) -> str:
    """What a "divergent" fit measured, over the range it was fitted on.

    A slope at or below _DIVERGENT_SLOPE is also what a convergent series
    shows over a window too short to see its decay (e^{-2 alpha n} at tiny
    alpha is flat), so the message does not state divergence as a fact.
    """
    return (
        f"{series} diverges or decays too slowly to resolve (fitted slope "
        f"{est.slope:.3f} <= {_DIVERGENT_SLOPE} over n = {est.n_first:.0f}..{est.n_last:.0f})"
    )


@functools.lru_cache(maxsize=64)
def _tail_samples(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spaced sample indices over the outer half max(1, size // 2) ..
    size of a window, as ints and floats, and the fit design with columns
    [1, n/n_last, ln n].  The first sample is the half's first index.

    The cached arrays are read-only: every ring of one size shares them.
    """
    lo_n = max(1, size // 2)
    idx = np.unique(
        np.geomspace(lo_n, size, num=min(_TAIL_SAMPLES, size - lo_n + 1)).astype(int)
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
            "divergent", math.inf, math.inf, s, float(ns[0]), n_last, t_last
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


def _tail_estimate(columns: tuple[np.ndarray, ...]) -> tuple[_TailEstimate, ...]:
    """Classify each column's decay over the outer half of its window.

    Every column holds a sequence for n = 1..len, all of one length.  They
    share one log-spaced sample set (samples spread out so that slope fits
    stay well conditioned) and one least-squares fit with a right-hand
    side per column; all-zero halves and samples at the underflow floor
    are sorted out per column before the fit.
    """
    idx, ns, design = _tail_samples(columns[0].size)
    out: list[_TailEstimate] = []
    fit: list[int] = []
    for values in columns:
        if float(values[idx[0] - 1 :].max()) <= _ZERO_FLOOR:
            out.append(_TailEstimate("zero", 0.0, 0.0))
        elif idx.size < 4 or np.any(values[idx - 1] <= _ZERO_FLOOR):
            out.append(_UNRESOLVED)
        else:
            fit.append(len(out))
            out.append(_UNRESOLVED)
    if fit:
        ts = np.column_stack([columns[j][idx - 1] for j in fit])
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
    """``math.fsum(values.tolist())`` of a 1-D float array, bit for bit.

    A long array is first split exactly by ExtractVector (Rump, Ogita and
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci. Comput.
    31 (2008) 189-224).  With 2^k >= n + 2 and |p| < 2^e for the n current
    terms p, sigma = 2^(k + e) makes q = (sigma + p) - sigma and p - q
    error-free, and q.sum() exact in any order.  Each round keeps that sum
    and the nonzero p - q; the kept sums plus what is left add up to the
    input exactly, so their fsum is fsum's correctly rounded result.  Arrays
    shorter than _FSUM_EXTRACT_MIN, and arrays holding a nan or an inf or
    large enough that sigma would overflow, go to fsum whole, so special
    values and fsum's exceptions are its own.
    """
    sums: list[float] = []
    p = values
    for _ in range(_FSUM_ROUNDS):
        if p.size < _FSUM_EXTRACT_MIN:
            break
        m = max(float(p.max()), -float(p.min()))  # nan or inf if any term is
        k_plus_e = (p.size + 1).bit_length() + math.frexp(m)[1]
        if not 0.0 < m < math.inf or k_plus_e >= sys.float_info.max_exp:
            break  # only before the first round: the remainders are finite
        sigma = math.ldexp(1.0, k_plus_e)
        q = p + sigma
        q -= sigma
        sums.append(float(q.sum()))
        np.subtract(p, q, out=q)
        p = q[q != 0.0]
    return math.fsum(sums + p.tolist())


class _Scratch(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[tuple[int, type], np.ndarray] = {}
        self.ramp = np.empty(0)


_SCRATCH = _Scratch()


def _workspace(slot: int, shape: int | tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's scratch buffer ``slot`` of ``dtype``, as a C-contiguous
    array of ``shape``.

    The contents are whatever the thread's last user left there, so every
    caller writes each element before it reads it, and no result keeps a
    view.  A buffer is replaced only when a call asks for more elements than
    it holds, so a thread keeps the widest buffer each slot has needed, and
    a window no wider than an earlier one allocates no buffer.  Functions that
    never run inside one another share the slots, each numbering its buffers
    of a dtype from 0.  The one nesting is ``quadrature._mesh_pass``, which
    holds the results of ``_phasors`` (complex slot 0) and ``_parts``
    (complex slots 4 and 5) and numbers its own buffers around them.

    No buffer shrinks while its thread lives: a thread retains the widest
    mesh, shells and window it has run, about 3.3 MiB after
    ``compare_report`` on poly alpha = 1.4 at rel_tol 1e-8 (N = 17757),
    growing linearly with N.  No allocator setting of the process changes.
    """
    flat = not isinstance(shape, tuple)
    size = shape if flat else math.prod(shape)
    buf = _SCRATCH.buffers.get((slot, dtype))
    if buf is None or buf.size < size:
        buf = _SCRATCH.buffers[slot, dtype] = np.empty(size, dtype)
    return buf[:size] if flat else buf[:size].reshape(shape)


def _ramp(count: int) -> np.ndarray:
    """0.0, 1.0, ..., count - 1 (exact), read-only, from this thread's workspace."""
    if _SCRATCH.ramp.size < count:
        _SCRATCH.ramp = np.arange(count, dtype=np.float64)
        _SCRATCH.ramp.flags.writeable = False
    return _SCRATCH.ramp[:count]


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

    A real support that is its own mirror image, c == c[::-1], of odd
    length 2H + 1 (every built-in window and every renamed copy of one)
    takes shorter transforms.  Let b_j = c_{H+j}, j = 0..H, the centre
    outward with the centre halved, b_0 = c_H / 2, so that c is b plus its
    mirror image.  Then S_k = 2 R_k + V_k, with R_k = sum_j b_j b_{j+k} the
    autocorrelation of b and V_k = sum_j b_j b_{k-j} its self-convolution
    (the pairs of S_k on one side of the centre, and those straddling it).
    With G = rfft(b, L), which is rfft(c_H .. c_2H, L) - c_H / 2, that is
    one irfft(2 |G|^2 + G^2) = irfft(G (3 Re G - i Im G)); L >= 3H + 1
    keeps R's negative lags, which wrap to L - H .. L - 1, clear of V's
    support 0 .. 2H.  Two transforms of about 3m / 2 points replace two of
    2m.

    Workspace: the spectra and the correlation live in the calling
    thread's scratch buffers (``_workspace``), which the transforms write
    through ``out=`` and which persist across calls, so a window no wider
    than an earlier one allocates only the index of its support and the
    returned shells.  Each transform pads its input itself, and every
    spectrum element is written before it is read.  The thread retains the
    widest spectra it has needed, at most 32 L bytes for transforms of
    length L (L = 54000, 1.24 MiB, at poly alpha = 1.4, rel_tol 1e-8).
    """
    out = np.zeros(coeffs.size - 1, dtype=np.complex128)
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size >= 2:
        c = coeffs[nonzero[0] : nonzero[-1] + 1]
        span = c.size - 1
        if np.any(c.imag):
            length = _smooth_length(2 * c.size - 1)
            f = np.fft.fft(c, length, out=_workspace(0, length, complex))
            _power_in_place(f)
            corr = np.fft.ifft(f, out=_workspace(1, length, complex))
            out[:span] = corr[1 : span + 1]
        elif span % 2 == 0 and (c.real == c.real[::-1]).all():
            length = _smooth_length(3 * (span // 2) + 1)
            g = np.fft.rfft(c.real[span // 2 :], length, out=_workspace(0, length // 2 + 1, complex))
            g -= 0.5 * c.real[span // 2]
            spec = np.conjugate(g, out=_workspace(1, g.size, complex))
            spec.real *= 3.0
            spec *= g
            corr = np.fft.irfft(spec, length, out=_workspace(0, length))
            out.real[:span] = corr[1 : span + 1]
        else:
            length = _smooth_length(2 * c.size - 1)
            f = np.fft.rfft(c.real, length, out=_workspace(0, length // 2 + 1, complex))
            _power_in_place(f)
            corr = np.fft.irfft(f, length, out=_workspace(0, length))
            out.real[:span] = corr[1 : span + 1]
    out.flags.writeable = False
    return out


def _power_in_place(f: np.ndarray) -> None:
    """f <- |f|^2 + 0i, as f.real * f.real + f.imag * f.imag: the real
    input the inverse transform would otherwise copy into a complex one."""
    np.multiply(f.real, f.real, out=f.real)
    np.multiply(f.imag, f.imag, out=f.imag)
    f.real += f.imag
    f.imag = 0.0


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
    def lz_divergent(self) -> bool:
        """True when the family's n^2 |C_n|^2 series is non-summable."""
        return math.isinf(self.tail_bound)

    @functools.cached_property  # stored in __dict__, which frozen allows
    def shells(self) -> np.ndarray:
        """S_k = sum_n conj(C_n) C_{n+k}, k = 1 .. 2N: one pass per state, read-only."""
        return _shell_sums(self.coeffs)


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


_Ring = collections.namedtuple("_Ring", "edge cp cm u v x u_est v_est x_est")


def _rings(family: CoefficientFamily, alpha: float, n_max: int) -> Iterator[_Ring]:
    """Grow the window outward from |n| <= 16, each ring as wide as the
    window before it, up to n_max.  Yield each window n = 1..edge with its
    amplitudes at +n and -n, the u, v and x tail sequences and one fit of
    their tails over its outer half; each caller stops by its own test."""
    cp = cm = np.empty(0, dtype=np.complex128)
    edge = 0
    while edge < n_max:
        ring = np.arange(edge + 1, min(edge + max(16, edge), n_max) + 1)
        cp = np.concatenate((cp, family.coefficients(ring, alpha)))
        cm = np.concatenate((cm, family.coefficients(-ring, alpha)))
        edge = int(ring[-1])
        u = np.abs(cp) ** 2 + np.abs(cm) ** 2
        ns = np.arange(1, edge + 1, dtype=float)
        v = ns * ns * u
        # first-order sensitivity of the off-diagonal 1/(n-m)^2 sums to a
        # dropped amplitude at n; quadratic mass criteria alone miss it
        x = (np.abs(cp) + np.abs(cm)) / (ns * ns)
        yield _Ring(edge, cp, cm, u, v, x, *_tail_estimate((u, v, x)))


# --------------------------------------------------------------------------
# the three tail tests, the cutoff search and the window
# --------------------------------------------------------------------------

# The three tail tests, in the order the cutoff search applies them.
_MASS, _SECOND, _SENSITIVITY = "sum |C_n|^2", "sum n^2 |C_n|^2", "sum |C_n|/n^2"


@dataclass(frozen=True)
class _Series:
    """One tail test of build_spectrum.

    ``tail(n)`` is (the series summed over |k| > n, an error bound) and
    ``total`` the whole series, its n = 0 term included; ``start`` is a
    leading-order guess of the least n that passes.  A ``completed`` tail
    (a power-law n^2 tail, exact or fitted) is kept in full, so only its
    error is tested.  A ``diverges`` series has no tail; the text says why.
    """

    label: str
    tail: Callable[[int], tuple[float, float]] = lambda n: (math.inf, math.inf)
    total: float = math.inf
    start: float = 0.0
    completed: bool = False
    diverges: str = ""

    def passes(self, n: int, rel_tol: float) -> bool:
        """Whether truncating at n leaves a tail within rel_tol."""
        value, err = self.tail(n)
        if self.completed:
            return err <= rel_tol * max(self.total, _ZERO_FLOOR)
        return value + err <= rel_tol * max(self.total - value, _ZERO_FLOOR)


def _fitted(
    label: str, window: float, terms: np.ndarray, est: _TailEstimate, completes: bool = False
) -> _Series:
    """The tail test of a grown window: ``terms`` holds the series at
    n = 1..edge (both signs), ``window`` its sum over |n| <= edge, ``est``
    the fit past the edge, whose error counts for a power law.

    The dropped part of the window is a sum taken from the far end, so it
    keeps its own relative accuracy however small it is against the total
    (a difference of forward cumulative sums loses about N eps of the
    total); those sums are taken on the first test inside the window, so
    a ring tested only at its edge makes none.  A series that
    ``completes`` keeps a power-law tail in full and has no tail test when
    the fit calls it divergent.
    """
    if completes and est.kind == "divergent":
        return _Series(label, diverges=_too_slow(label, est))
    err = est.err if est.kind == "power" else 0.0
    suffix: list[np.ndarray] = []

    def tail(n: int) -> tuple[float, float]:
        if n >= terms.size:
            return est.bound, err
        if not suffix:
            suffix.append(np.cumsum(terms[::-1])[::-1])
        return float(suffix[0][n]) + est.bound, err

    return _Series(label, tail, window + est.bound, completed=completes and est.kind == "power")


def _least(passes: Callable[[int], bool], lo: int, start: float, limit: int) -> int:
    """Least n in [lo, limit] with passes(n), for a monotone test; limit + 1
    when there is none.  Gallops from ``start`` to a bracket, then bisects."""
    bad, good = lo - 1, limit + 1  # passes(bad) is False, good is the answer so far
    n = int(min(max(start, lo), limit))
    step = 1
    while True:
        if passes(n):
            good = n
        else:
            bad = n
        if good - bad <= 1:
            return good
        if good > limit:
            n = min(bad + step, limit)
        elif bad < lo:
            n = max(good - step, lo)
        else:
            n = (bad + good) // 2
        step *= 2


def _cutoff(
    series: Iterator[_Series], rel_tol: float, n_max: int, where: str
) -> tuple[int, _Series, _Series]:
    """The least N <= n_max that passes each tail test in turn, with the
    mass and n^2 series.  A divergent mass raises NonConvergent, and so
    does a test that needs N > n_max, naming that N; a divergent n^2
    series is skipped.  The series are drawn one at a time, so a costly
    one is never built when an earlier test already fails."""

    def fit(s: _Series, n: int) -> int:
        """The least cutoff at or above n that also passes s."""
        passes = functools.partial(s.passes, rel_tol=rel_tol)
        if passes(n):
            return n
        least = _least(passes, n + 1, s.start, n_max)
        if least > n_max:
            if s.start < 2.0**53:
                needed = f">= {_least(passes, n_max + 1, s.start, 2**53)}"
            elif s.start < math.inf:  # past exact float indices: the estimate
                needed = f"of about {s.start:.2g}"
            else:
                needed = "beyond the float range"
            raise NonConvergent(
                f"{where}the {s.label} tail test needs N {needed}, above n_max={n_max}"
            )
        return least

    mass = next(series)
    if mass.diverges:
        raise NonConvergent(where + mass.diverges)
    cutoff = fit(mass, 0)
    second = next(series)
    if not second.diverges:
        cutoff = fit(second, cutoff)
    return fit(next(series), cutoff), mass, second


_DEGENERATE = "all amplitudes below the underflow threshold"


def _window(
    family: CoefficientFamily,
    alpha: float,
    coeffs: np.ndarray,
    norm_tail: float,
    tail_bound: float,
    tail_err: float,
) -> TruncatedSpectrum:
    """The state of the window ``coeffs`` (index -N..N) and its tails."""
    cutoff = coeffs.size // 2
    coeffs.flags.writeable = False  # value object, safe to share across threads
    # one pass over the contiguous window: numpy's complex abs may round a
    # reversed view of complex amplitudes differently in the last bit
    sq = np.abs(coeffs, out=_workspace(0, coeffs.size))
    np.square(sq, out=sq)
    cp_sq, cm_sq = sq[cutoff + 1 :], sq[cutoff - 1 :: -1] if cutoff else sq[:0]
    ns = _ramp(cutoff + 1)[1:]
    u = np.add(cp_sq, cm_sq, out=_workspace(1, cutoff))
    s0 = abs(complex(coeffs[cutoff])) ** 2 + _fsum(u)
    if s0 <= _ZERO_FLOOR:
        raise DegenerateState(f"family {family.name!r} at alpha={alpha}: {_DEGENERATE}")
    w = _workspace(2, cutoff)
    # |C_n|^2 = |C_-n|^2 bit for bit: the two sums are equal, and x - x = +0.0
    mirrored = cp_sq.tobytes() == cm_sq.tobytes()
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
        sum_n1=0.0 if mirrored else (
            _fsum(np.multiply(ns, cp_sq, out=w)) - _fsum(np.multiply(ns, cm_sq, out=w))
        ),
        sum_n2=_fsum(np.multiply(np.multiply(ns, ns, out=w), u, out=w)),
    )


# --------------------------------------------------------------------------
# exact tails of the built-in families
# --------------------------------------------------------------------------

def _zeta_tail(s: float, n: int) -> tuple[float, float]:
    """2 zeta(s, n + 1) = sum_{|k| > n} |k|^-s, with an error bound.

    The bound adds the rounding of s itself (s = 2 alpha - 2 or alpha + 2
    is rounded once): d ln zeta(s, a) / ds is about ln a + 1/(s - 1).
    """
    z = zeta(s, n + 1)
    if not z.value:
        return 0.0, 2.0 * z.est_error
    slack = _EPS * s * (math.log(n + 1.0) + 1.0 / (s - 1.0))
    return 2.0 * z.value, 2.0 * (z.est_error + slack * z.value)


def _zeta_series(
    label: str, s_text: str, s: float, rel_tol: float, completed: bool = False
) -> _Series:
    """The series 2 zeta(s), s written ``s_text``, with its tails 2 zeta(s, n + 1)."""
    if s <= 1.0:
        return _Series(label, diverges=f"{label} diverges because {s_text} <= 1")
    total = zeta(s).value
    # the tail test holds once zeta(s, n + 1) ~ (n + 1/2)^(1 - s) / (s - 1)
    # drops to rel_tol / (1 + rel_tol) of the total
    ln_x = -math.log((s - 1.0) * rel_tol / (1.0 + rel_tol) * total) / (s - 1.0)
    start = math.exp(ln_x) - 0.5 if ln_x < 700.0 else math.inf
    return _Series(label, functools.partial(_zeta_tail, s), 2.0 * total, start, completed)


def _poly_series(alpha: float, rel_tol: float) -> Iterator[_Series]:
    """|n|^-alpha: the |C_n|^2, n^2 |C_n|^2 and |C_n|/n^2 tails are
    2 zeta(s, N + 1) with s = 2 alpha, 2 alpha - 2 and alpha + 2."""
    yield _zeta_series(_MASS, "2 alpha", 2.0 * alpha, rel_tol)
    yield _zeta_series(_SECOND, "2 alpha - 2", 2.0 * alpha - 2.0, rel_tol, completed=True)
    yield _zeta_series(_SENSITIVITY, "alpha + 2", alpha + 2.0, rel_tol)


def _exp_mass_tail(alpha: float, n: int) -> tuple[float, float]:
    """2 sum_{k>n} q^k = 2 q^(n+1) / (1 - q), q = e^(-2 alpha)."""
    arg = 2.0 * alpha * (n + 1)
    value = 2.0 * math.exp(-arg) / -math.expm1(-2.0 * alpha)
    # exp amplifies the rounding of its argument by |arg|
    return value, (arg + 8.0) * _EPS * value if value else 0.0


def _exp_second_tail(alpha: float, n: int) -> tuple[float, float]:
    """2 sum_{k>n} k^2 q^k = 2 q^m (2 + (2m - 3) d + (m - 1)^2 d^2) / d^3,
    m = n + 1, d = 1 - q: every term positive, so nothing cancels."""
    m = n + 1.0
    d = -math.expm1(-2.0 * alpha)
    arg = 2.0 * alpha * m
    value = 2.0 * math.exp(-arg) * (2.0 + (2.0 * m - 3.0) * d + ((m - 1.0) * d) ** 2)
    value = value / d / d / d
    return value, (arg + 16.0) * _EPS * value if value else 0.0


def _exp_sensitivity_tail(alpha: float, n: int) -> tuple[float, float]:
    """2 sum_{k>n} u^k / k^2, u = e^(-alpha) (a Lerch transcendent), summed
    to rounding: its terms fall by at least u per step, so the rest after
    the last one summed is below that term times u / (1 - u)."""
    if math.exp(-alpha) == 0.0:  # so are all the amplitudes
        return 0.0, 0.0
    one_minus_u = -math.expm1(-alpha)
    count = math.ceil((37.0 - math.log(one_minus_u)) / alpha)
    k = np.arange(n + 1, n + 1 + count, dtype=float)
    terms = np.exp(-alpha * k) / (k * k)
    value = 2.0 * float(terms.sum())
    rest = 2.0 * float(terms[-1]) * (1.0 - one_minus_u) / one_minus_u
    return value, rest + (alpha * k[-1] + 2.0 * math.log2(count) + 8.0) * _EPS * value


def _exp_series(alpha: float, rel_tol: float) -> Iterator[_Series]:
    """e^(-alpha |n|): the mass tails are geometric sums, the sensitivity
    tail is summed.  The sensitivity series is built only when asked for:
    its total is itself a sum, of about 37 / alpha terms."""
    # 2 q^(n+1) / (1 - q) <= rel_tol / (1 + rel_tol) (1 + q) / (1 - q); the
    # other two tests bind a little further out, and are galloped to from there
    q = math.exp(-2.0 * alpha)
    start = math.log(rel_tol / (1.0 + rel_tol) * (1.0 + q) / 2.0) / (-2.0 * alpha) - 1.0
    yield _Series(
        _MASS, functools.partial(_exp_mass_tail, alpha), 1.0 + _exp_mass_tail(alpha, 0)[0], start
    )
    yield _Series(
        _SECOND, functools.partial(_exp_second_tail, alpha), _exp_second_tail(alpha, 0)[0]
    )
    yield _Series(
        _SENSITIVITY,
        functools.partial(_exp_sensitivity_tail, alpha),
        1.0 + _exp_sensitivity_tail(alpha, 0)[0],
    )


def _poly_second_tail(alpha: float, n: int, where: str) -> float:
    """2 zeta(2 alpha - 2, n + 1), the polynomial n^2 |C_n|^2 tail, from one
    zeta call: _poly_series would also form the series totals."""
    s = 2.0 * alpha - 2.0
    if s <= 1.0:
        raise NonConvergent(f"{where}{_SECOND} diverges because 2 alpha - 2 <= 1")
    return _zeta_tail(s, n)[0]


# The built-in family values, each with its tail series rule and its rule for
# the n^2 |C_n|^2 tail alone, matched by identity or == as analysis matches its
# closed forms; a renamed copy is another value.
_EXACT_TAILS = (
    (exponential_family(), _exp_series, lambda alpha, n, where: _exp_second_tail(alpha, n)[0]),
    (polynomial_family(), _poly_series, _poly_second_tail),
)


def _exact_tails(family: CoefficientFamily):
    """The (tail series, n^2 tail) rules of a built-in family value, else None."""
    for builtin, series, second in _EXACT_TAILS:
        if family is builtin or family == builtin:
            return series, second
    return None


def build_spectrum(
    family: CoefficientFamily,
    alpha: float,
    rel_tol: float = DEFAULT_REL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> TruncatedSpectrum:
    """Build the normalized truncated spectrum of ``family`` at ``alpha``.

    The cutoff N is the smallest window such that (a) the truncated
    |C_n|^2 mass is below rel_tol of the retained sum, (b) the truncated
    n^2 |C_n|^2 mass is resolved: below rel_tol of its retained sum, or
    completed by a power-law tail whose error is below rel_tol of the
    total, or flagged as divergent (tail_bound = inf), in which case the
    angular-momentum moments raise DivergentMoment downstream, and (c) the
    truncated sensitivity sum |C_n| / n^2 is below rel_tol of its retained
    sum.  The built-in exponential and polynomial families take each tail
    from its closed form, a family with a finite support is kept whole,
    and every other family fits its tails ring by ring.  The rings see only
    what they sample: a callable whose only amplitudes past the first ring
    and its probes are isolated modes (at n = +-1000, say) must set
    ``support_hint``, or it reads as ending early.

    Raises NonConvergent when no window up to n_max resolves the tails,
    DegenerateState when every amplitude underflows, InvalidParameter on
    domain violations.
    """
    if not (alpha > 0.0):
        raise InvalidParameter(f"alpha must be positive, got {alpha!r}")
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameter(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    if n_max < 1:
        raise InvalidParameter(f"n_max must be >= 1, got {n_max!r}")
    where = f"family {family.name!r} at alpha={alpha}: "
    exact = _exact_tails(family)
    if exact is not None:
        cutoff, mass, second = _cutoff(exact[0](float(alpha), rel_tol), rel_tol, n_max, where)
        coeffs = family.coefficients(np.arange(-cutoff, cutoff + 1), alpha)
        return _window(family, alpha, coeffs, mass.tail(cutoff)[0], *second.tail(cutoff))

    support = family.support_hint
    if support is not None:
        # every amplitude past the support is 0: the tails are exactly 0
        if support > n_max:
            raise NonConvergent(f"{where}the support |n| <= {support} exceeds n_max={n_max}")
        coeffs = family.coefficients(np.arange(-support, support + 1), alpha)
        return _window(family, alpha, coeffs, 0.0, 0.0, 0.0)

    c0 = complex(family.coefficients(0, alpha)[0])
    u0 = abs(c0) ** 2
    for n_edge, cp, cm, u, v, x, u_est, v_est, x_est in _rings(family, alpha, n_max):
        if u_est.kind == "divergent":
            raise NonConvergent(f"{where}the normalization " + _too_slow(_MASS, u_est))
        u_sum, v_sum = u0 + float(u.sum()), float(v.sum())
        if u_sum <= _ZERO_FLOOR and u_est.kind == "zero":
            if _probe_ok(family, alpha, n_edge, n_max, _ZERO_FLOOR):
                raise DegenerateState(where + _DEGENERATE)
        series = (
            _fitted(_MASS, u_sum, u, u_est),
            _fitted(_SECOND, v_sum, v, v_est, completes=True),
            _fitted(_SENSITIVITY, abs(c0) + float(x.sum()), x, x_est),
        )
        probe_threshold = max(rel_tol * max(v_sum, u_sum), _ZERO_FLOOR)
        if all(s.diverges or s.passes(n_edge, rel_tol) for s in series) and _probe_ok(
            family, alpha, n_edge, n_max, probe_threshold, v_est
        ):
            break
    else:
        raise NonConvergent(
            f"{where}tail criteria not met within n_max={n_max} "
            f"(|C_n|^2 tail: {u_est.kind}, n^2|C_n|^2 tail: {v_est.kind})"
        )

    cutoff = _cutoff(iter(series), rel_tol, n_edge, where)[0]
    coeffs = np.concatenate((cm[:cutoff][::-1], [c0], cp[:cutoff]))
    # the reported tails sum the dropped part of the window directly
    if math.isinf(v_est.bound):
        tail_bound = tail_err = math.inf
    else:
        tail_bound = _fsum(v[cutoff:]) + v_est.bound
        tail_err = v_est.err + _TERM_ROUND * tail_bound
    return _window(family, alpha, coeffs, _fsum(u[cutoff:]) + u_est.bound, tail_bound, tail_err)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def boundary_density(s: TruncatedSpectrum) -> float:
    """|f(pi)|^2 = |A|^2 |sum_n (-1)^n C_n|^2, the density entering the state-dependent bound.

    Slot parity gives (-1)^n up to a sign the modulus drops.  Neighbouring slots
    are paired, so a slowly decaying state's amplitudes cancel before the sum."""
    c = s.coeffs
    return s.norm_sq * abs(complex((c[:-1:2] - c[1::2]).sum() + c[-1])) ** 2


# --------------------------------------------------------------------------
# family-level tail diagnostics
# --------------------------------------------------------------------------

_TAIL_BUDGET = 4_000_000


def tail_second_moment(
    family: CoefficientFamily,
    alpha_grid: Sequence[float],
    N: int,
) -> list[float]:
    """T_N(alpha) = sum_{|n| > N} n^2 |C_n(alpha)|^2 per grid point.

    The built-in families take their closed form (2 zeta(2 alpha - 2, N+1)
    for the polynomial family, which diverges exactly for alpha <= 3/2, and
    a geometric n^2 sum for the exponential one).  A family with a finite
    support S (``support_hint``) is summed exactly over N < |n| <= S from
    one evaluation per grid point, and its tail is 0.0 when S <= N; an S
    past N + 4 000 000 raises NonConvergent before any amplitude is
    evaluated.  Any other family reads the windows build_spectrum grows:
    T_N is the first window past N summed over N < |n| <= edge, plus its
    fitted n^2 tail, whose fit is certified to 1e-12 (a geometric majorant
    below 1e-12 of the summed part, or a power-law completion with error
    below 1e-12 of T_N) and whose probes past the edge find no resurgence.
    The 1e-12 bounds the fitted tail, not the rounding of the sum, for
    tails that are asymptotically geometric or pure power laws.  A fit
    that reads as divergent raises NonConvergent.  Isolated modes far past
    N need ``support_hint``: the windows see only what they sample.
    """
    if len(alpha_grid) == 0:
        raise InvalidParameter("alpha grid must be nonempty")
    if N < 1:
        raise InvalidParameter(f"N must be >= 1, got {N!r}")

    exact = _exact_tails(family)
    support = family.support_hint
    if support is not None and support > N + _TAIL_BUDGET:
        raise NonConvergent(
            f"family {family.name!r}: the support |n| <= {support} exceeds "
            f"N + {_TAIL_BUDGET} = {N + _TAIL_BUDGET}"
        )
    out = []
    for alpha in alpha_grid:
        if not (alpha > 0.0):
            raise InvalidParameter(f"grid alphas must be positive, got {alpha!r}")
        where = f"family {family.name!r} at alpha={alpha}: "
        if exact is not None:
            out.append(exact[1](float(alpha), N, where))
            continue
        if support is not None:
            # every amplitude past the support is 0: the tail is a finite sum
            if support <= N:
                out.append(0.0)
                continue
            ns = np.arange(N + 1, support + 1)
            u = np.abs(family.coefficients(np.concatenate((ns, -ns)), alpha)) ** 2
            out.append(_fsum(ns * ns * (u[: ns.size] + u[ns.size :])))
            continue
        n_cap = N + _TAIL_BUDGET
        for ring in _rings(family, alpha, n_cap):
            if ring.edge <= N:
                continue
            beyond = ring.v[N:]  # n = N+1 .. edge
            tail = _fitted(_SECOND, _fsum(beyond), beyond, ring.v_est, completes=True)
            if tail.diverges:
                raise NonConvergent(where + tail.diverges)
            threshold = DEFAULT_REL_TOL * max(tail.total, _ZERO_FLOOR)
            if tail.passes(beyond.size, DEFAULT_REL_TOL) and _probe_ok(
                family, alpha, ring.edge, n_cap, threshold, ring.v_est
            ):
                out.append(tail.total)
                break
        else:
            raise NonConvergent(f"{where}the {_SECOND} tail past N={N} is unresolved at n={n_cap}")
    return out
