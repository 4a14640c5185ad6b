"""Independent verification path: direct quadrature of the explicit state.

Every moment the series engine produces is recomputed here as an integral
over phi in [-pi, pi] of the pointwise-evaluated state, never reusing the
coefficient-space formulas.

Mesh.  The truncated state f(phi) = A sum_{|n|<=N} c_n e^{i n phi} is a
trigonometric polynomial of degree N, so every integrand has a known
bandwidth.  The rule is composite 8-point Gauss-Legendre on P equal panels
of width h = 2 pi / P, with P the smallest 2^a 3^b 5^c that is at least
max(2N + 3, 32), or the larger P' of Bound below.  For one Gauss node
offset delta the P nodes -pi + delta + h j (j = 0..P-1) are equispaced.
Every state is f / A = g + i h with g and h real trigonometric
polynomials, of half spectra g_n = (c_n + conj(c_{-n})) / 2 and
h_n = (c_n - conj(c_{-n})) / (2 i), n = 0..N (the converse of packing two
real FFTs into one complex one; Press et al., Numerical Recipes, 3rd ed.,
12.3).  A part at all P nodes is one real inverse FFT of its half spectrum
times (-1)^n e^{i n delta}, placed in slots 0..N of P // 2 + 1 (P > 2N
keeps the slots distinct), and its derivative is one more after
multiplying the slots by i n.  The parts are the rows of one array, so an
offset takes one transform for f, and f' one more.  The phasors of every
offset come from two short tables per offset, built once per pass
(``_phasors``): with n = a B + b and B about sqrt(N), e^{i n delta} =
e^{i a B delta} e^{i b delta}, so a pass takes O(sqrt N) cosines and sines
per offset, not N + 1; the first offset's periodic weights e^{i phi_j}
are built the same way.  Then
|f|^2 = g^2 + h^2, |f'|^2 = g'^2 + h'^2 and Im(conj(f) f') = g h' - h g'.
A real-valued state, c_{-n} = conj(c_n) (checked on the coefficients, not
taken from the family's flags), is g alone, g_n = c_n, and its
Im(conj(f) f') is exactly 0.  A mirror-symmetric state,
c_{-n} = c_n (also checked on the coefficients; real or complex), has
f(-phi) = f(phi).  The rule is symmetric too (nodes u and 1 - u carry
equal weights), and the node set at offset h - delta is the negation of
the one at delta, so such a state is evaluated at half the offsets with
twice the weight, and its odd integrals (phi, sin, Im(conj(f) f')) are
exactly 0.  Of the nine integrals, phi and phi^2 read every offset; the
seven periodic ones (norm, sin, cos, sin^2, cos^2, |f'|^2 and
Im(conj(f) f')) read the first offset alone, for the reason below, so f'
is transformed once per pass.

Bound.  On any P' >= P panels each offset's P' nodes are equispaced over
a full period, so h' times the sum over them (h' = 2 pi / P') integrates
a trigonometric polynomial of degree below P' exactly, and so does the
rule, a weighted mean of such sums.  Seven integrands are such
polynomials, of degree at most 2N + 2 < P: norm, sin, cos, sin^2, cos^2,
|f'|^2 and Im(conj(f) f').  Each is therefore read from the nodes of the
first offset alone, weighted h', whatever the state's symmetry.  Their
est_error is the rounding floor alone (see ``_rounding_floors``).  Only
phi and phi^2 are not periodic.  Each offset adds to them three node sums
of |f|^2 against fixed grid vectors (1, grid and grid^2, with the node
phi = grid + delta expanded).  Their truncation error is bounded before
any node is evaluated, by Gauss's Bernstein-ellipse bound summed over the
panels (``_gauss_bound``), and P' is the smallest 2^a 3^b 5^c >= P whose
bounds on the requested phi integrals are at most max(abs_tol, floor).
One pass on P' panels then gives every value, and est_error = bound +
floor for phi and phi^2.

Budget.  ``max_evals`` caps the node evaluations, and ``evaluations``
reports them.  Both count the rule's nodes, 8 P', also where a
mirror-symmetric state takes half of them from the other half, so a
state's count and its budget error do not depend on its symmetry.  The
periodic integrals' one offset is among those nodes.  The search for P'
stops at the first panel count over budget and raises ToleranceNotMet
naming it, before any FFT runs.

Workspace.  Every full-window array of the oracle is scratch that the
calling thread keeps between calls (``spectrum._workspace``): the even
test, the strip sums' magnitudes and leads, the parts of ``_parts``, and
every array of a pass (grid, grid^2, node densities, phasor rows and
periodic weights, half spectra, the i n factor, and the rows the inverse
FFTs write through ``out=``).  A pass on a window no wider than an earlier
one on the same thread allocates no array of the window's size, so it
takes no page faults.
Each call writes every element it reads, the zero padding of the half
spectra included, so nothing carries over from a wider call, and no
result points into the buffers.  Each thread retains the widest buffers
it has used, shared with the series shells: about 3.3 MiB once it has
checked poly alpha = 1.4 at rel_tol 1e-8 (N = 17757, 36000 panels).

``adaptive_simpson`` and the four ``quad_*`` are not exported, and nothing
in the library calls them; they stay only for the benchmark's span hooks.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter, ToleranceNotMet
from .moments import trig_report, uncertainty_report
from .spectrum import TruncatedSpectrum, _ramp, _smooth_length, _workspace

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_EVALS = 2_000_000

# Never ask the accumulated rounding noise to beat this relative level.
_REL_FLOOR = 2e-13
# Intervals narrower than this are accepted as-is (rounding regime).
_MIN_WIDTH = 1e-12

_TRIG_WEIGHTS = ("sin", "cos", "sin2", "cos2")

_GAUSS_POINTS = 8
_MIN_PANELS = 32
# Integral name -> max |weight(phi)| on [-pi, pi].  The lz integrals weigh
# |f'|^2 and Im(conj(f) f'); the rest weigh |f|^2.
_INTEGRALS = {
    "norm": 1.0,
    "phi": math.pi,
    "phi2": math.pi**2,
    "lz2": 1.0,
    "lz": 1.0,
    "sin": 1.0,
    "cos": 1.0,
    "sin2": 1.0,
    "cos2": 1.0,
}
_DERIVATIVE_INTEGRALS = ("lz2", "lz")
# Relative 2-norm error of the node values: a length-P FFT contributes at
# most about 6 eps per radix stage, the phasors and slot products 8 eps
# more (see _rounding_floors); pairwise summation adds (16 + log2 P) eps.
# Rounded up.
_FFT_STAGE_EPS = 10.0
_FIXED_EPS = 40.0
# Strip half-widths tried by the a priori bound, in units of 1 / (largest
# index with a nonzero amplitude).  Any b > 0 gives a valid bound; the best
# b measured on exp, poly and table states lies between 7 and 20 units.
_STRIP_WIDTHS = np.geomspace(1.0, 64.0, 13)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value, error bound, and node-evaluation count."""

    value: float
    est_error: float
    evaluations: int


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integrate f over [a, b] with adaptive Simpson bisection.

    The error budget is max(abs_tol, rel_floor * |coarse estimate|), split
    between halves at each bisection; each accepted interval contributes
    its Richardson correction and |delta|/15 error estimate.  Raises
    ToleranceNotMet at the evaluation cap.
    """
    if not (b > a):
        raise InvalidParameter(f"need b > a, got [{a}, {b}]")
    if not (abs_tol > 0.0):
        raise InvalidParameter(f"abs_tol must be positive, got {abs_tol!r}")

    n_root = 8  # root intervals; helps oscillatory integrands start sane
    xs = np.linspace(a, b, 2 * n_root + 1)
    fs = [f(float(x)) for x in xs]
    evals = len(fs)

    coarse = 0.0
    for i in range(n_root):
        h = xs[2 * i + 2] - xs[2 * i]
        coarse += h / 6.0 * (fs[2 * i] + 4.0 * fs[2 * i + 1] + fs[2 * i + 2])
    budget = max(abs_tol, _REL_FLOOR * abs(coarse))

    pieces: list[float] = []
    errors: list[float] = []
    # stack entries: (a, b, fa, fm, fb, simpson(a,b), local budget)
    stack = []
    for i in range(n_root):
        x0, x1, x2 = xs[2 * i], xs[2 * i + 1], xs[2 * i + 2]
        h = x2 - x0
        whole = h / 6.0 * (fs[2 * i] + 4.0 * fs[2 * i + 1] + fs[2 * i + 2])
        stack.append((x0, x2, fs[2 * i], fs[2 * i + 1], fs[2 * i + 2], whole, budget / n_root))

    while stack:
        x0, x2, f0, f1, f2, whole, tol = stack.pop()
        if evals + 2 > max_evals:
            raise ToleranceNotMet(
                f"adaptive Simpson hit the evaluation cap ({max_evals}) with "
                f"{len(stack) + 1} intervals unresolved"
            )
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        evals += 2
        left = (xm - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - xm) / 6.0 * (f1 + 4.0 * fr + f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or (x2 - x0) <= _MIN_WIDTH:
            pieces.append(left + right + delta / 15.0)
            errors.append(abs(delta) / 15.0)
        else:
            stack.append((x0, xm, f0, fl, f1, left, tol / 2.0))
            stack.append((xm, x2, f1, fr, f2, right, tol / 2.0))

    value = math.fsum(pieces)
    est = math.fsum(errors) + 4.0 * np.finfo(float).eps * math.fsum(map(abs, pieces))
    return QuadratureResult(value=value, est_error=est, evaluations=evals)


# --------------------------------------------------------------------------
# the shared Gauss-Legendre mesh, evaluated by FFT
# --------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """8-point Gauss-Legendre nodes mapped to [0, 1], weights summing to 1."""
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(_GAUSS_POINTS)
    return tuple((t + 1.0) / 2.0), tuple(w / 2.0)


def _panel_count(cutoff: int) -> int:
    """Smallest 2^a 3^b 5^c that is at least max(2 cutoff + 3, 32)."""
    return _smooth_length(max(2 * cutoff + 3, _MIN_PANELS))


def _parts(s: TruncatedSpectrum) -> np.ndarray:
    """Half spectra, n = 0..N, of the real parts of f / A = g + i h, one per row.

    g_n = (c_n + conj(c_{-n})) / 2 and h_n = (c_n - conj(c_{-n})) / (2 i);
    multiplying by -0.5j only halves and swaps the components, so it is
    exact.  A real-valued state, c_{-n} = conj(c_n), has h = 0 and returns
    the one row g_n = c_n, a view of the coefficients; the two rows of any
    other state are scratch, valid until the thread next uses its workspace.
    """
    N = s.cutoff
    pos = s.coeffs[N:]
    neg = np.conjugate(s.coeffs[N::-1], out=_workspace(4, N + 1, complex))
    if np.equal(pos, neg, out=_workspace(0, N + 1, bool)).all():
        return pos[np.newaxis]
    parts = _workspace(5, (2, N + 1), complex)
    np.multiply(0.5, np.add(pos, neg, out=parts[0]), out=parts[0])
    np.multiply(-0.5j, np.subtract(pos, neg, out=parts[1]), out=parts[1])
    return parts


def _phasors(
    deltas: list[float], h: float, count: int, panels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node phasor tables, and the first offset's periodic weights.

    Returns (hi, lo, weights).  Row q of the flat outer product of hi[q] and
    lo[q], cut to ``count`` entries, is (-1)^n e^{i n delta_q}, n =
    0..count-1; weights are e^{i (delta_0 - pi + h j)}, j = 0..panels-1.
    For each step s (the offsets, then h) the tables are lo_b = e^{i b s}
    for b < B, B the even number at or just above sqrt(count), and hi_a =
    e^{i a B s}; each angle is one rounded product of an exact integer and
    s, and e^{i (a B + b) s} = hi_a lo_b is one complex product.  B is
    even, so (-1)^n = (-1)^b, folded exactly into the offsets' tables by
    negating lo's odd columns.  The weights use e^{-i pi} = -1: they are
    (-e^{i delta_0} hi_a) lo_b with s = h.  One cosine and one sine call
    serve every table of the pass.
    """
    base = math.isqrt(count - 1) + 1
    base += base % 2
    wide = -(-panels // base)  # hi columns of the weights, the widest row
    k = np.arange(base + wide)
    k[base:] = k[:wide] * base
    angles = np.multiply.outer(deltas + [h], k)
    tables = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=tables.real)
    np.sin(angles, out=tables.imag)
    lo, hi = tables[:, :base], tables[:, base:]
    lo[:-1, 1::2] *= -1.0
    weights = _workspace(0, (wide, base), complex)
    np.multiply.outer(-cmath.exp(1j * deltas[0]) * hi[-1], lo[-1], out=weights)
    return hi[:-1, : -(-count // base)], lo[:-1], weights.reshape(-1)[:panels]


def _mesh_pass(
    s: TruncatedSpectrum,
    panels: int,
    derivative: bool,
    even: bool,
) -> dict[str, float]:
    """The nine integrals on ``panels`` panels.

    The nodes at offset delta = h u_q form one length-``panels`` grid, on
    which each real part of ``_parts`` is one row of a real inverse FFT of
    the part's half spectrum times the offset's phasors, from tables that
    one ``_phasors`` call builds for the pass.  phi and phi^2 take
    every offset: with x = grid + delta, their node sums are S1 + delta S0
    and S2 + 2 delta S1 + delta^2 S0, from the three sums S_k of |f|^2
    grid^k over the grid.  The seven periodic integrals are exact on any
    one offset's equispaced nodes (Bound in the module docstring), so they
    take the first offset alone, weighted h, and f' is transformed there
    only.  The lz integrals are left at 0 unless ``derivative`` is set; a
    real state has one part, so Im(conj(f) f') and the lz integral are
    exactly 0.  An ``even`` state, f(-phi) = f(phi), is evaluated at the
    offsets with q < 4 only, each weighted twice: offset h - delta =
    h u_{7-q} carries the negated nodes and the same weight, so it adds as
    much to each even integral and cancels each odd one (phi, sin, lz),
    which stay exactly 0.
    """
    N = s.cutoff
    h = 2.0 * math.pi / panels
    grid = np.multiply(h, _ramp(panels), out=_workspace(0, panels))
    grid -= math.pi
    grid_sq = np.multiply(grid, grid, out=_workspace(1, panels))
    parts = _parts(s)
    complex_state = len(parts) == 2
    dens, tmp = _workspace(2, panels), _workspace(3, panels)
    wgt = _workspace(4, panels) if complex_state else None
    partial: dict[str, list[float]] = {name: [] for name in _INTEGRALS}
    odd = ("phi", "sin", "lz") if even else ()

    def add(name: str, values: np.ndarray) -> None:  # on the first offset
        if name not in odd:
            partial[name].append(h * float(values.sum()))

    def sum_squares(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.square(rows[0], out=out)
        if complex_state:
            np.square(rows[1], out=wgt)
            out += wgt
        return out

    nodes, weights = _gauss_legendre()
    if even:
        nodes = nodes[: _GAUSS_POINTS // 2]
        weights = tuple(2.0 * w for w in weights[: _GAUSS_POINTS // 2])
    deltas = [h * u for u in nodes]
    hi, lo, periodic = _phasors(deltas, h, N + 1, panels)
    # one offset's phasors at a time, hi[q] x lo[q] in one reused buffer
    rows = _workspace(2, (hi.shape[1], lo.shape[1]), complex)
    phasors = rows.reshape(-1)[: N + 1]
    half = _workspace(1, (len(parts), panels // 2 + 1), complex)
    half[:, N + 1 :] = 0.0
    slots = half[:, : N + 1]
    f = _workspace(5, (len(parts), panels))  # rows g, h
    for q, (delta, w) in enumerate(zip(deltas, weights)):
        wq = h * w
        np.multiply(hi[q, :, np.newaxis], lo[q], out=rows)
        np.multiply(phasors, parts, out=slots)
        np.fft.irfft(half, panels, norm="forward", out=f)
        sum_squares(f, dens)
        s0 = float(dens.sum())
        s1 = float(np.multiply(dens, grid, out=tmp).sum())
        s2 = float(np.multiply(dens, grid_sq, out=tmp).sum())
        if not even:
            partial["phi"].append(wq * (s1 + delta * s0))
        partial["phi2"].append(wq * (s2 + 2.0 * delta * s1 + delta * delta * s0))
        if not q:  # the periodic integrals
            partial["norm"].append(h * s0)
            for name, trig in (("sin", periodic.imag), ("cos", periodic.real)):
                np.multiply(dens, trig, out=tmp)
                add(name, tmp)
                tmp *= trig
                add(name + "2", tmp)
            if derivative:
                slots *= np.multiply(1j, _ramp(N + 1), out=_workspace(3, N + 1, complex))
                d = _workspace(6, f.shape)  # rows g', h'
                np.fft.irfft(half, panels, norm="forward", out=d)
                add("lz2", sum_squares(d, tmp))
                if complex_state and not even:
                    # Im(conj(f) f') = g h' - h g'
                    np.multiply(f[0], d[1], out=tmp)
                    np.multiply(f[1], d[0], out=wgt)
                    tmp -= wgt
                    add("lz", tmp)
    return {name: s.norm_sq * math.fsum(v) for name, v in partial.items()}


def _rounding_floors(values: dict[str, float], panels: int) -> dict[str, float]:
    """Bound on the rounding error of each integral.

    Each real part (g, h, g', h') is off by at most rel = eps (10 log2 P +
    40) in relative 2-norm per offset (FFT stages, phasors, and the pairwise
    node sum; see the constants above).  Forming the parts rounds each
    coefficient by at most eps / 2, and expanding phi = grid + delta in the
    phi sums adds a few eps of max|w| U, both inside the fixed 40 eps.  As
    g^2 + h^2 = |f|^2 pointwise, errors of rel ||g|| and rel ||h|| add up to
    at most rel ||f||, so f and f' are off by the same rel.  For an
    integrand w u conj(v), u and v in {f, f'}, Cauchy-Schwarz over the nodes
    bounds the error by 3 rel max|w| sqrt(U V), U and V the integrals of
    |u|^2 and |v|^2: one rel for each factor and one for the sum.
    Cauchy-Schwarz on the pair (g, h) gives the same bound for
    g h' - h g', as |dg h' - dh g'| <= |(dg, dh)| |(g', h')| at each node.
    The periodic integrals sum one offset's nodes, weighted h, not the
    whole rule; the bound holds for them unchanged, because |f|^2 and
    |f'|^2 are periodic too, so h times their sums over those nodes are
    U and V exactly.

    The phasors (-1)^n e^{i n delta} are products hi_a lo_b of two table
    entries (``_phasors``).  An entry's angle k s, below pi, is rounded
    once, by at most pi eps / 2, and its cosine and sine are each within
    about an ulp, eps / 2, so the entry is within 2.3 eps of its point on
    the unit circle.  The complex product adds sqrt(5) eps / 2 = 1.2 eps,
    so a phasor is within 6 eps (1.7 eps measured against mpmath at
    N = 17757).  The product by the part's coefficient adds 1.2 eps more,
    and the part itself eps / 2: 8 eps in all.  With 16 eps for the
    pairwise sum, that leaves 16 eps of the fixed 40 for the phi
    expansion.  The first offset's weights e^{i x_j} = (-e^{i delta_0}
    hi_a) lo_b, with angles below 2 pi, are within 8 eps (2.7 measured),
    so w and w^2 are off by at most 17 eps, which adds 17 eps max|w| U.
    That fits inside the rel max|w| U kept for the sum, because rel is at
    least (10 log2 P + 40) eps and the pairwise sum takes (16 + log2 P) eps.
    """
    eps = np.finfo(float).eps
    kappa = 3.0 * eps * (_FFT_STAGE_EPS * math.log2(panels) + _FIXED_EPS)
    u = abs(values["norm"])
    v = abs(values["lz2"])
    scale = {"lz2": v, "lz": math.sqrt(u * v)}
    return {
        name: kappa * w_max * scale.get(name, u)
        for name, w_max in _INTEGRALS.items()
    }


def _strip_sums(s: TruncatedSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Strip half-widths b and ln(A^2 (sum_n |c_n| e^{|n| b})^2) at each.

    On the strip |Im phi| <= b, f and the continuation of conj(f) are both
    at most A sum |c_n| e^{|n| b} in modulus, so M = A^2 (sum)^2 bounds the
    continuation of |f|^2.  The sum runs over the nonzero |c_n| + |c_{-n}|,
    one width at a time so that the scratch stays O(N).
    """
    N = s.cutoff
    mag = np.abs(s.coeffs, out=_workspace(0, s.coeffs.size))
    a = mag[N:]
    a[1:] += mag[:N][::-1]  # |c_n| + |c_{-n}|, n = 0..N
    n = np.flatnonzero(a)
    top, a_max = int(n[-1]), float(a.max())
    b = _STRIP_WIDTHS / max(top, 1)
    # sum = a_max e^{top b} sum (a_n / a_max) e^{(n - top) b}: no term
    # exceeds 1, and the largest a_n's is at least e^{-top b} >= e^{-64}
    scaled = np.take(a, n, out=_workspace(1, n.size))
    scaled /= a_max
    lead = np.subtract(n, top, out=_workspace(2, n.size))
    # elementwise, not np.dot: a BLAS dot may start threads on long vectors
    term = _workspace(3, n.size)
    sums = np.empty(b.size)
    for j, bj in enumerate(b):
        np.exp(np.multiply(bj, lead, out=term), out=term)
        sums[j] = np.multiply(scaled, term, out=term).sum()
    return b, math.log(s.norm_sq) + 2.0 * (math.log(a_max) + top * b + np.log(sums))


def _gauss_bound(b: np.ndarray, log_m: np.ndarray, panels: int, power: int) -> float:
    """Bound on the error of the integral of phi^power |f|^2 on ``panels`` panels.

    Panel j maps to [-1, 1] by phi = phi_j + (h/2) z.  On the Bernstein
    ellipse E_rho, |Im z| <= (rho - 1/rho)/2 and |z| <= (rho + 1/rho)/2, so
    rho - 1/rho = 4 b / h keeps |Im phi| <= b, and there |phi| <= pi +
    sqrt(b^2 + h^2/4).  The (n+1)-point Gauss error is at most (64/15) M
    rho^(-2n) / (rho^2 - 1) times the half-width h/2 (Trefethen, ATAP, Thm
    19.3); with 8 nodes, n = 7, and the P panels add up to pi (64/15) M
    rho^(-14) / (rho^2 - 1), with rho^2 - 1 = rho (4 b / h).  The least
    bound over the strips b is returned.
    """
    h = 2.0 * math.pi / panels
    t = 2.0 * b / h
    log_bound = (
        math.log(64.0 * math.pi / 15.0)
        + log_m
        + power * np.log(math.pi + np.hypot(b, h / 2.0))
        - (2 * _GAUSS_POINTS - 1) * np.arcsinh(t)  # ln rho = asinh(2 b / h)
        - np.log(2.0 * t)
    )
    return math.exp(float(log_bound.min()))


def _mesh_integrals(
    s: TruncatedSpectrum,
    names: tuple[str, ...],
    abs_tol: float,
    max_evals: int,
) -> dict[str, QuadratureResult]:
    """The requested integrals of one pass on P' panels, each with an error bound.

    P' is chosen, and the budget checked against 8 times each panel count
    tried, before any transform; ToleranceNotMet when it is exceeded.
    """
    if not (abs_tol > 0.0):
        raise InvalidParameter(f"abs_tol must be positive, got {abs_tol!r}")
    derivative = any(name in _DERIVATIVE_INTEGRALS for name in names)
    # f is even, f(-phi) = f(phi), exactly when c_{-n} = c_n
    even = bool(
        np.equal(s.coeffs, s.coeffs[::-1], out=_workspace(0, s.coeffs.size, bool)).all()
    )
    panels = _panel_count(s.cutoff)
    powers = {name: k for k, name in enumerate(("phi", "phi2"), 1) if name in names}
    strips = _strip_sums(s) if powers else ()
    while True:
        evals = _GAUSS_POINTS * panels
        if evals > max_evals:
            raise ToleranceNotMet(
                f"quadrature on {panels} panels (N={s.cutoff}) needs "
                f"{evals} node evaluations, over max_evals={max_evals}"
            )
        bounds = {name: _gauss_bound(*strips, panels, k) for name, k in powers.items()}
        # the state is normalized, so its norm integral is 1 to rounding
        floors = _rounding_floors({"norm": 1.0, "lz2": 0.0}, panels)
        if all(e <= max(abs_tol, floors[k]) for k, e in bounds.items()):
            break
        panels = _smooth_length(panels + 1)
    values = _mesh_pass(s, panels, derivative, even)
    floors = _rounding_floors(values, panels)
    return {
        k: QuadratureResult(values[k], bounds.get(k, 0.0) + floors[k], evals)
        for k in names
    }


def quad_phi_moment(
    s: TruncatedSpectrum,
    power: int,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """<phi^power> by quadrature of phi^power |f(phi)|^2, power in {1, 2}."""
    if power not in (1, 2):
        raise InvalidParameter(f"power must be 1 or 2, got {power!r}")
    name = ("phi", "phi2")[power - 1]
    return _mesh_integrals(s, (name,), abs_tol, max_evals)[name]


def quad_lz_moment(
    s: TruncatedSpectrum,
    power: int,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """<L_z^power> by quadrature, power in {1, 2} (hbar = 1).

    power = 2 integrates |f'|^2 with f' the term-wise differentiated
    series; power = 1 integrates Im(conj(f) f'), i.e. <L_z> = <f, -i f'>.
    """
    if power not in (1, 2):
        raise InvalidParameter(f"power must be 1 or 2, got {power!r}")
    name = ("lz", "lz2")[power - 1]
    return _mesh_integrals(s, (name,), abs_tol, max_evals)[name]


def quad_trig_moment(
    s: TruncatedSpectrum,
    which: str,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """<w(phi)> for w in {sin, cos, sin2, cos2} against |f|^2."""
    if which not in _TRIG_WEIGHTS:
        raise InvalidParameter(f"which must be one of {_TRIG_WEIGHTS}, got {which!r}")
    return _mesh_integrals(s, (which,), abs_tol, max_evals)[which]


def quad_norm(
    s: TruncatedSpectrum,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> QuadratureResult:
    """Integral of |f|^2 over one period; must be 1 for any valid spectrum."""
    return _mesh_integrals(s, ("norm",), abs_tol, max_evals)["norm"]


# --------------------------------------------------------------------------
# series vs quadrature comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """One moment compared across the two routes.

    ``est_error`` bounds the quadrature side's error (None for n/a rows);
    variance rows carry e2 + 2 |q1| e1 from their two integrals.
    """

    name: str
    series: float | None
    quadrature: float | None
    diff: float | None
    passed: bool | None  # None = not applicable
    note: str = ""
    est_error: float | None = None


@dataclass(frozen=True)
class CompareReport:
    """Per-moment series/quadrature differences for one state."""

    rows: tuple[ComparisonRow, ...]
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "all_passed": self.all_passed,
            "rows": [dict(vars(r)) for r in self.rows],
        }


def compare_report(
    s: TruncatedSpectrum,
    tol: float = 1e-8,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> CompareReport:
    """Check the moments of ``uncertainty_report`` and ``trig_report`` by quadrature.

    All quadrature rows come from the one shared mesh.  Failures
    are data (rows with passed = False), not exceptions; moments that do
    not exist on the series side (divergent sigma_Lz) come back as
    not-applicable rows.  Raises ToleranceNotMet when the mesh would need
    more than ``max_evals`` node evaluations.
    """
    if not (tol > 0.0):
        raise InvalidParameter(f"tol must be positive, got {tol!r}")
    rows: list[ComparisonRow] = []

    def add(
        name: str, series: float, first: QuadratureResult, second: QuadratureResult | None = None
    ) -> None:
        quad, est = first.value, first.est_error
        if second is not None:  # a variance row, q2 - q1^2, error e2 + 2 |q1| e1
            quad, est = second.value - quad**2, second.est_error + 2.0 * abs(quad) * est
        diff = abs(series - quad)
        rows.append(ComparisonRow(name, series, quad, diff, diff <= tol, est_error=est))

    # one divergence test picks both the f' integrals and the lz rows
    divergent = s.lz_divergent
    names = ("norm", "phi", "phi2", *_TRIG_WEIGHTS, *(() if divergent else _DERIVATIVE_INTEGRALS))
    q = _mesh_integrals(s, names, DEFAULT_ABS_TOL, max_evals)
    rep, tr = uncertainty_report(s), trig_report(s)

    add("norm", 1.0, q["norm"])
    add("mean_phi", rep.mean_phi, q["phi"])
    add("second_phi", rep.second_phi, q["phi2"])
    add("var_phi", rep.var_phi, q["phi"], q["phi2"])

    if divergent:
        note = "series-side sigma_Lz^2 divergent; not applicable"
        for name in ("mean_lz", "second_lz", "var_lz"):
            rows.append(ComparisonRow(name, None, None, None, None, note))
    else:
        add("mean_lz", rep.mean_lz, q["lz"])
        add("second_lz", rep.second_lz, q["lz2"])
        add("var_lz", rep.var_lz, q["lz"], q["lz2"])

    add("mean_sin", tr.mean_sin, q["sin"])
    add("mean_cos", tr.mean_cos, q["cos"])
    add("sin_sq", tr.var_sin + tr.mean_sin**2, q["sin2"])
    add("cos_sq", tr.var_cos + tr.mean_cos**2, q["cos2"])
    add("var_sin", tr.var_sin, q["sin"], q["sin2"])
    add("var_cos", tr.var_cos, q["cos"], q["cos2"])

    return CompareReport(rows=tuple(rows), tol=tol)
