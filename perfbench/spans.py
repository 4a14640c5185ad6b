"""Span tracing of unclab's public boundaries, installed from outside src/.

``install`` rebinds each boundary function under every name it is bound
to in the loaded ``unclab`` modules (``analysis`` imports
``build_spectrum`` by name, so that binding is wrapped too) and returns a
function that restores the originals.  Each wrapped call records a span
(name, start, end, parent); spans opened on a thread with no open span of
its own while a sweep runs get the sweep span as parent, so rows computed
in sweep's pool threads hang under their sweep.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer report when the run ends.

A few functions inside one layer are counted but get no span of their
own (the quadrature rule and its per-moment drivers, the search's product
evaluations), so their time stays in the self time of the layer's entry
point.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

SWEEP = "analysis.sweep"
BUILD = "spectrum.build_spectrum"
COMPARE = "quadrature.compare_report"


@dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    error: str | None = None


class Tracer:
    """In-memory span and counter store, safe to use from pool threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.adopter: int | None = None
        # quadrature bookkeeping of the compare_report call in progress
        self.window = 0
        self.quad_est: dict[str, float] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopter
        sp = Span(next(self._ids), name, time.perf_counter(), parent, threading.get_ident())
        stack.append(sp)
        return sp

    def close(self, sp: Span, error: str | None = None) -> None:
        sp.end = time.perf_counter()
        sp.error = error
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:
            stack.remove(sp)
        with self._lock:
            self.spans.append(sp)

    def inside(self, name: str) -> bool:
        return any(sp.name == name for sp in self._stack())

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------

def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children on other threads may overlap each other; their union, clipped
    to the parent's interval, is what gets subtracted.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.id, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[sp.id] = (sp.end - sp.start) - covered_length(clipped)
    return out


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_coefficients(tr, args, kwargs, result):
    tr.add("families.coefficients.indices", result.size)
    if tr.inside(BUILD):
        tr.add("spectrum.build_indices", result.size)


def _on_build(tr, args, kwargs, spec):
    tr.add("spectrum.cutoff_sum", spec.cutoff)
    tr.add("spectrum.kept", 2 * spec.cutoff + 1)


def _on_shells(tr, args, kwargs, result):
    m = _arg(args, kwargs, 0, "s").coeffs.size
    tr.add("moments.shell_passes")
    tr.add("moments.window_sq_sum", m * m)


def _on_special(prefix):
    def hook(tr, args, kwargs, result):
        tr.add(prefix + ".terms", result.terms_used)

    return hook


def _before_compare(tr, args, kwargs):
    tr.window = _arg(args, kwargs, 0, "s").coeffs.size
    tr.quad_est = {}


def _on_compare(tr, args, kwargs, report):
    for row in report.rows:
        if row.passed is None:
            continue
        tr.add("quadrature.rows")
        if not row.passed:
            tr.add("quadrature.rows_failed")
        est = tr.quad_est.get(row.name)
        if est:
            tr.peak("quadrature.diff_over_est_max", row.diff / est)


def _on_simpson(tr, args, kwargs, result):
    tr.add("quadrature.integrals")
    tr.add("quadrature.evaluations", result.evaluations)
    tr.add("quadrature.terms", result.evaluations * tr.window)


def _on_quad(row_name):
    """Remember a direct row's error estimate, keyed by its compare row name."""

    def hook(tr, args, kwargs, result):
        tr.quad_est[row_name(args, kwargs)] = result.est_error

    return hook


_QUAD_ROWS = {
    "quad_norm": lambda a, k: "norm",
    "quad_phi_moment": lambda a, k: ("mean_phi", "second_phi")[_arg(a, k, 1, "power") - 1],
    "quad_lz_moment": lambda a, k: ("mean_lz", "second_lz")[_arg(a, k, 1, "power") - 1],
    "quad_trig_moment": lambda a, k: {
        "sin": "mean_sin", "cos": "mean_cos", "sin2": "sin_sq", "cos2": "cos_sq"
    }[_arg(a, k, 1, "which")],
}


def _on_sweep(tr, args, kwargs, rows):
    tr.add("analysis.sweep.rows", len(rows))


# (module, attribute, span name or None for count-only, after-hook, before-hook)
TARGETS = [
    ("unclab.spectrum", "build_spectrum", BUILD, _on_build, None),
    ("unclab.spectrum", "tail_second_moment", "spectrum.tail_second_moment", None, None),
    ("unclab.spectrum", "boundary_density", "spectrum.boundary_density", None, None),
    ("unclab.moments", "phi_moments", "moments.phi_moments", _on_shells, None),
    ("unclab.moments", "xi_sum", "moments.xi_sum", _on_shells, None),
    ("unclab.moments", "uncertainty_report", "moments.uncertainty_report", None, None),
    ("unclab.moments", "trig_report", "moments.trig_report", None, None),
    ("unclab.closed_forms", "exp_closed", "closed_forms.exp_closed", None, None),
    ("unclab.closed_forms", "_poly_eval", "closed_forms.poly", None, None),
    ("unclab.special", "zeta", "special.zeta", _on_special("special.zeta"), None),
    ("unclab.special", "dilog", "special.dilog", _on_special("special.dilog"), None),
    ("unclab.quadrature", "compare_report", COMPARE, _on_compare, _before_compare),
    ("unclab.quadrature", "adaptive_simpson", None, _on_simpson, None),
    *[
        ("unclab.quadrature", name, None, _on_quad(row), None)
        for name, row in _QUAD_ROWS.items()
    ],
    ("unclab.analysis", "sweep", SWEEP, _on_sweep, None),
    ("unclab.analysis", "evaluate_family", "analysis.evaluate_family", None, None),
    ("unclab.analysis", "_product", None, None, None),
    ("unclab.analysis", "check_dominance", "analysis.check_dominance", None, None),
    ("unclab.analysis", "check_admissibility", "analysis.check_admissibility", None, None),
    ("unclab.cli", "main", "cli.main", None, None),
]

# count-only targets report their calls under these names
_COUNT_NAMES = {"_product": "analysis.search.evals"}


def _wrap(tr: Tracer, fn, span_name, after, before, count_name):
    if span_name is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if count_name:
                tr.add(count_name)
            result = fn(*args, **kwargs)
            if after:
                after(tr, args, kwargs, result)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before:
            before(tr, args, kwargs)
        sp = tr.open(span_name)
        adopted = tr.adopter
        if span_name == SWEEP:
            tr.adopter = sp.id
        error = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            if span_name == SWEEP:
                tr.adopter = adopted
            tr.close(sp, error)
        if after:
            after(tr, args, kwargs, result)
        return result

    return traced


def install(tr: Tracer):
    """Wrap every boundary under all its bindings; return the undo function."""
    from unclab.families import CoefficientFamily

    for modname, *_ in TARGETS:
        importlib.import_module(modname)
    modules = [m for name, m in list(sys.modules.items())
               if name == "unclab" or name.startswith("unclab.")]
    restore = []
    for modname, attr, span_name, after, before in TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapper = _wrap(tr, original, span_name, after, before, _COUNT_NAMES.get(attr))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    restore.append((m, key, original))
    original = CoefficientFamily.__dict__["coefficients"]
    CoefficientFamily.coefficients = _wrap(
        tr, original, "families.coefficients", _on_coefficients, None, None
    )
    restore.append((CoefficientFamily, "coefficients", original))

    def uninstall() -> None:
        for obj, key, value in reversed(restore):
            setattr(obj, key, value)

    return uninstall


# --------------------------------------------------------------------------
# the per-layer report
# --------------------------------------------------------------------------

def layer_metrics(tr: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures from the recorded spans and counters.

    Calls, counts and self times are totals divided by the number of
    traced passes; ratios are taken over the whole traced run.
    """
    selfs = self_times(tr.spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in tr.spans:
        by_name[sp.name].append(sp)

    def calls(name):
        return len(by_name[name]) / passes, "count"

    def self_s(*names):
        return sum(selfs[sp.id] for n in names for sp in by_name[n]) / passes, "s"

    def count(key, unit="count"):
        return tr.counts[key] / passes, unit

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    sweep_ids = {sp.id for sp in by_name[SWEEP]}
    row_s = sum(sp.end - sp.start for sp in tr.spans if sp.parent in sweep_ids)
    sweep_s = sum(sp.end - sp.start for sp in by_name[SWEEP])
    deadline_missed = sum(1 for sp in by_name[COMPARE] if sp.error == "DeadlineExceeded")

    return {
        "families.coefficients.calls": calls("families.coefficients"),
        "families.coefficients.indices": count("families.coefficients.indices"),
        "families.coefficients.self_s": self_s("families.coefficients"),
        "spectrum.build_spectrum.calls": calls(BUILD),
        "spectrum.build_spectrum.self_s": self_s(BUILD),
        "spectrum.cutoff_sum": count("spectrum.cutoff_sum"),
        "spectrum.indices_per_kept": ratio(
            tr.counts["spectrum.build_indices"], tr.counts["spectrum.kept"]
        ),
        "spectrum.tail_second_moment.self_s": self_s("spectrum.tail_second_moment"),
        "spectrum.boundary_density.self_s": self_s("spectrum.boundary_density"),
        "moments.phi_moments.self_s": self_s("moments.phi_moments"),
        "moments.xi_sum.self_s": self_s("moments.xi_sum"),
        "moments.uncertainty_report.self_s": self_s("moments.uncertainty_report"),
        "moments.trig_report.self_s": self_s("moments.trig_report"),
        "moments.shell_passes": count("moments.shell_passes"),
        "moments.window_sq_sum": count("moments.window_sq_sum"),
        "closed_forms.exp_closed.calls": calls("closed_forms.exp_closed"),
        "closed_forms.exp_closed.self_s": self_s("closed_forms.exp_closed"),
        "closed_forms.poly.self_s": self_s("closed_forms.poly"),
        "special.zeta.calls": calls("special.zeta"),
        "special.zeta.terms": count("special.zeta.terms"),
        "special.dilog.calls": calls("special.dilog"),
        "special.dilog.terms": count("special.dilog.terms"),
        "special.self_s": self_s("special.zeta", "special.dilog"),
        "quadrature.compare_report.calls": calls(COMPARE),
        "quadrature.compare_report.self_s": self_s(COMPARE),
        "quadrature.integrals": count("quadrature.integrals"),
        "quadrature.evaluations": count("quadrature.evaluations"),
        "quadrature.terms": count("quadrature.terms"),
        "quadrature.rows": count("quadrature.rows"),
        "quadrature.rows_failed": count("quadrature.rows_failed"),
        "quadrature.diff_over_est_max": (
            tr.maxima.get("quadrature.diff_over_est_max", 0.0), "ratio"
        ),
        "quadrature.deadline_missed": (deadline_missed / passes, "count"),
        "analysis.sweep.calls": calls(SWEEP),
        "analysis.sweep.rows": count("analysis.sweep.rows"),
        "analysis.sweep.self_s": self_s(SWEEP),
        "analysis.sweep.row_s_over_wall": ratio(row_s, sweep_s),
        "analysis.evaluate_family.calls": calls("analysis.evaluate_family"),
        "analysis.search.evals": count("analysis.search.evals"),
        "analysis.check_dominance.self_s": self_s("analysis.check_dominance"),
        "analysis.check_admissibility.self_s": self_s("analysis.check_admissibility"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
