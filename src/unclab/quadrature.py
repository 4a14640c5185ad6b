"""Independent verification path: direct quadrature of the explicit state.

Every moment the series engine produces is recomputed here as an integral
over phi in [-pi, pi] of the pointwise-evaluated state, never reusing the
coefficient-space formulas.

Mesh.  The truncated state f(phi) = A sum_{|n|<=N} c_n e^{i n phi} is a
trigonometric polynomial of degree N, so every integrand has a known
bandwidth.  The rule is composite 8-point Gauss-Legendre on P equal panels
of width h = 2 pi / P, with P the smallest 2^a 3^b 5^c that is at least
max(2N + 3, 32).  For one Gauss node offset delta the P nodes
-pi + delta + h j (j = 0..P-1) are equispaced, so f at all of them is one
length-P inverse FFT of c_n (-1)^n e^{i n delta} placed in slot n mod P
(P > 2N keeps the slots distinct), and f' is one more after multiplying
the slots by i n.  One pass over the offsets feeds all nine integrals
(norm, phi, phi^2, |f'|^2, Im(conj(f) f'), sin, cos, sin^2, cos^2) from
the same node values.

Bound.  The rule on P panels is compared with the rule on 2P panels; the
finer rule's nodes are length-P grids at half-panel offsets, so no array
grows past length P.  The panel count keeps doubling until the difference
is at most max(abs_tol, floor) for every requested integral.  The value
reported is the finer rule's, and est_error = |difference| + floor, where
the rounding floor bounds the FFT evaluation and summation error (see
``_rounding_floors``).

Budget.  ``max_evals`` caps the node evaluations (points at which the
state is evaluated).  It is checked before each pass, so a request over
budget raises ToleranceNotMet before any FFT runs.

``adaptive_simpson`` remains the integrator for arbitrary callables; the
moment paths do not use it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergentMoment, InvalidParameter, ToleranceNotMet
from .moments import lz_moments, phi_moments, trig_report
from .spectrum import TruncatedSpectrum, _smooth_length

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
# most about 6 eps per radix stage, the phases and slot products a few eps
# more; pairwise summation adds (16 + log2 P) eps.  Rounded up.
_FFT_STAGE_EPS = 10.0
_FIXED_EPS = 40.0


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


def _node_values(s: TruncatedSpectrum, b: np.ndarray, delta: float) -> np.ndarray:
    """f / A at the P nodes -pi + delta + 2 pi j / P, P = b.size > 2N.

    Writes c_n (-1)^n e^{i n delta} into slot n mod P of the scratch array
    b (other slots stay 0) and transforms it.  |n delta| < pi keeps the
    phases accurate, and e^{-i n delta} = conj(e^{i n delta}).
    """
    N = s.cutoff
    pos, neg = b[: N + 1], b[b.size - N :]
    np.multiply(np.arange(N + 1), delta, out=pos.real)
    np.sin(pos.real, out=pos.imag)
    np.cos(pos.real, out=pos.real)
    np.conjugate(pos[N:0:-1], out=neg)
    pos *= s.coeffs[N:]
    neg *= s.coeffs[:N]
    pos[1::2] *= -1.0
    neg[(N + 1) % 2 :: 2] *= -1.0
    return np.fft.ifft(b, norm="forward")


def _mesh_pass(
    s: TruncatedSpectrum, panels: int, level: int, derivative: bool
) -> dict[str, float]:
    """The nine integrals on panels * 2**level panels.

    The node offsets of the finer panels are delta = (h / 2**level)(r + u_q)
    for r < 2**level, so every offset is one length-``panels`` grid.  The
    lz integrals are left at 0 unless ``derivative`` is set.
    """
    N = s.cutoff
    h = 2.0 * math.pi / panels
    sub = h / (1 << level)
    grid = h * np.arange(panels) - math.pi
    sin_grid, cos_grid = np.sin(grid), np.cos(grid)
    b = np.zeros(panels, dtype=complex)
    x, dens, tmp, wgt = (np.empty(panels) for _ in range(4))
    partial: dict[str, list[float]] = {name: [] for name in _INTEGRALS}

    def add(name: str, values: np.ndarray, weight: float) -> None:
        partial[name].append(weight * float(values.sum()))

    nodes, weights = _gauss_legendre()
    for r in range(1 << level):
        for u, w in zip(nodes, weights):
            delta = sub * (r + u)
            wq = sub * w
            f = _node_values(s, b, delta)
            np.add(grid, delta, out=x)
            np.square(f.real, out=dens)
            np.square(f.imag, out=tmp)
            dens += tmp
            add("norm", dens, wq)
            np.multiply(dens, x, out=tmp)
            add("phi", tmp, wq)
            tmp *= x
            add("phi2", tmp, wq)
            # sin(x) and cos(x) by angle addition from the grid's values
            cd, sd = math.cos(delta), math.sin(delta)
            for name, a, c, sign in (("sin", sin_grid, cos_grid, 1.0), ("cos", cos_grid, sin_grid, -1.0)):
                np.multiply(a, cd, out=wgt)
                np.multiply(c, sign * sd, out=tmp)
                wgt += tmp
                np.multiply(dens, wgt, out=tmp)
                add(name, tmp, wq)
                tmp *= wgt
                add(name + "2", tmp, wq)
            if derivative:
                # g = -i f' (before the factor A): |f'|^2 = |g|^2 and
                # Im(conj(f) f') = Re(conj(f) g)
                b[: N + 1] *= np.arange(N + 1)
                b[panels - N :] *= np.arange(-N, 0)
                g = np.fft.ifft(b, norm="forward")
                np.square(g.real, out=tmp)
                np.square(g.imag, out=wgt)
                tmp += wgt
                add("lz2", tmp, wq)
                np.multiply(f.real, g.real, out=tmp)
                np.multiply(f.imag, g.imag, out=wgt)
                tmp += wgt
                add("lz", tmp, wq)
                del g
            del f  # freed before the next transform allocates
    return {name: s.norm_sq * math.fsum(v) for name, v in partial.items()}


def _rounding_floors(values: dict[str, float], panels: int) -> dict[str, float]:
    """Bound on the rounding error of each integral.

    Node values are off by at most rel = eps (10 log2 P + 40) in relative
    2-norm per offset (FFT stages, phases, and the pairwise node sum; see
    the constants above).  For an integrand w u conj(v), u and v in
    {f, f'}, Cauchy-Schwarz over the nodes bounds the error by
    3 rel max|w| sqrt(U V), U and V the integrals of |u|^2 and |v|^2: one
    rel for each factor and one for the sum.
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


def _mesh_integrals(
    s: TruncatedSpectrum,
    names: tuple[str, ...],
    abs_tol: float,
    max_evals: int,
) -> dict[str, QuadratureResult]:
    """The requested integrals of the shared mesh, each with an error bound.

    Doubles the panel count until every requested integral changes by at
    most max(abs_tol, its rounding floor) from the previous rule.  The
    evaluation budget is checked before each pass (the first check covers
    the two passes any answer needs) and raises ToleranceNotMet when
    exceeded.
    """
    if not (abs_tol > 0.0):
        raise InvalidParameter(f"abs_tol must be positive, got {abs_tol!r}")
    derivative = any(name in _DERIVATIVE_INTEGRALS for name in names)
    panels = _panel_count(s.cutoff)
    per_pass = _GAUSS_POINTS * panels
    evals = 0
    prev: dict[str, float] | None = None
    level = 0
    while True:
        planned = evals + (per_pass << level) + (2 * per_pass if prev is None else 0)
        if planned > max_evals:
            raise ToleranceNotMet(
                f"quadrature on {panels << level} panels (N={s.cutoff}) needs "
                f"{planned} node evaluations, over max_evals={max_evals}"
            )
        cur = _mesh_pass(s, panels, level, derivative)
        evals += per_pass << level
        if prev is not None:
            floors = _rounding_floors(cur, panels)
            diffs = {name: abs(cur[name] - prev[name]) for name in names}
            if all(diffs[k] <= max(abs_tol, floors[k]) for k in names):
                return {
                    k: QuadratureResult(cur[k], diffs[k] + floors[k], evals)
                    for k in names
                }
        prev = cur
        level += 1


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
            "rows": [
                {
                    "name": r.name,
                    "series": r.series,
                    "quadrature": r.quadrature,
                    "diff": r.diff,
                    "est_error": r.est_error,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in self.rows
            ],
        }


def compare_report(
    s: TruncatedSpectrum,
    tol: float = 1e-8,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> CompareReport:
    """Run every series moment against its quadrature twin.

    All quadrature rows come from the one shared mesh.  Failures
    are data (rows with passed = False), not exceptions; moments that do
    not exist on the series side (divergent sigma_Lz) come back as
    not-applicable rows.  Raises ToleranceNotMet when the mesh would need
    more than ``max_evals`` node evaluations.
    """
    if not (tol > 0.0):
        raise InvalidParameter(f"tol must be positive, got {tol!r}")
    rows: list[ComparisonRow] = []

    def add(name: str, series: float, quad: float, est: float) -> None:
        diff = abs(series - quad)
        rows.append(ComparisonRow(name, series, quad, diff, diff <= tol, est_error=est))

    def add_direct(name: str, series: float, q: QuadratureResult) -> None:
        add(name, series, q.value, q.est_error)

    def add_var(name: str, series: float, q1: QuadratureResult, q2: QuadratureResult) -> None:
        add(name, series, q2.value - q1.value**2, q2.est_error + 2.0 * abs(q1.value) * q1.est_error)

    names = ("norm", "phi", "phi2", *_TRIG_WEIGHTS)
    if not s.lz_divergent:
        names += _DERIVATIVE_INTEGRALS
    q = _mesh_integrals(s, names, abs_tol, max_evals)

    add_direct("norm", 1.0, q["norm"])

    mean_phi, second_phi, var_phi = phi_moments(s)
    add_direct("mean_phi", mean_phi, q["phi"])
    add_direct("second_phi", second_phi, q["phi2"])
    add_var("var_phi", var_phi, q["phi"], q["phi2"])

    try:
        mean_lz, second_lz, var_lz = lz_moments(s)
    except DivergentMoment:
        note = "series-side sigma_Lz^2 divergent; not applicable"
        for name in ("mean_lz", "second_lz", "var_lz"):
            rows.append(ComparisonRow(name, None, None, None, None, note))
    else:
        add_direct("mean_lz", mean_lz, q["lz"])
        add_direct("second_lz", second_lz, q["lz2"])
        add_var("var_lz", var_lz, q["lz"], q["lz2"])

    tr = trig_report(s)
    add_direct("mean_sin", tr.mean_sin, q["sin"])
    add_direct("mean_cos", tr.mean_cos, q["cos"])
    add_direct("sin_sq", tr.var_sin + tr.mean_sin**2, q["sin2"])
    add_direct("cos_sq", tr.var_cos + tr.mean_cos**2, q["cos2"])
    add_var("var_sin", tr.var_sin, q["sin"], q["sin2"])
    add_var("var_cos", tr.var_cos, q["cos"], q["cos2"])

    return CompareReport(rows=tuple(rows), tol=tol)
