"""Seeded inputs, ops and correctness checks of the three workloads.

paper   What a reader runs to reproduce the paper, in process through
        ``unclab.cli.main``: the three sweeps of reproduce_figures.py (and
        its library crossing call), ``crossing``, ``alpha-star`` and
        ``check``.  Dominated by narrow-window ``build_spectrum`` fixed
        cost, the sweep thread pool, closed forms and CSV writing; it never
        touches quadrature.
series  The README library tour through the generic engine:
        ``build_spectrum`` + ``uncertainty_report`` + ``trig_report`` on
        wide windows (the built-in rules under another name, so closed
        forms do not apply), a complex-phase family and seeded
        ``family_from_dict`` documents.  Dominated by the O(N^2) shell
        sums; bypasses closed forms, the pool and quadrature.
verify  The independent oracle: ``build_spectrum`` + ``compare_report``,
        the pair ``unclab verify`` runs.  About 96% quadrature.

Every op carries the check its output must pass, with its tolerance.
Reference values that come from closed forms are computed while the
inputs are generated; references that need numpy work are computed on
first use, outside the timed calls.  The seed picks the random inputs
(the phase and documents of series, the table state of verify); the op
order is fixed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from typing import Callable

import numpy as np

import unclab
import unclab.cli

from ops import CliResult, Op, run_cli

CROSSING_ALPHA = 1.296390
CROSSING_TOL = 1e-6
POLY_LIMIT = math.sqrt(math.pi ** 2 / 3.0 + 0.5)
CSV_COLUMNS = "alpha,var_phi,var_lz,product,hr_bound,state_bound"

# Known defects the inputs keep on purpose (see ROADMAP "Known defects").
# A fix shows as a fall in the failed-op fraction, not as a benchmark edit.
DEFECT_CHECK_POLY = "check --family poly exits 1 on the default grid; 3 is documented"
DEFECT_SIMPSON = "adaptive Simpson converges falsely (Lyness 1969); a row misses tol"
DEFECT_NO_BUDGET = "verify has no work budget for poly alpha <= 3/2 at tight rel_tol"

# The table state pinned in ROADMAP item 2: its mean_lz quadrature is off
# by 9.4e-10 while reporting est_error 4.2e-11, so var_lz fails tol 1e-9.
PINNED_TABLE = {
    0: 1.2403705806321854,
    -1: 0.97265625,
    -4: -1.9778407743282225j,
    6: 0.5706432505115271j,
    -6: -1.9279289510115802j,
}

# series: documents with finite support, sized so the JSON rule's
# per-entry mask loop is a visible share of build_spectrum
DOC_COUNT = 2
DOC_SUPPORT = 300
DOC_ENTRIES = 120

# verify: the poly alpha = 1.4, rel_tol = 1e-8 case runs for more than
# 500 s at the parent commit; it gets a deadline of a couple of seconds,
# the cost of the two poly verify ops, so the tail percentile lands among
# these three heavy ops whatever their order
NO_BUDGET_DEADLINE_S = 3.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _first_failure(*checks: tuple[bool, str]) -> str | None:
    for ok, what in checks:
        if not ok:
            return what
    return None


def _cli(argv: list[str]) -> Callable[[], CliResult]:
    # look unclab.cli.main up at call time so a traced run sees the wrapper
    return lambda: run_cli(unclab.cli.main, argv)


# --------------------------------------------------------------------------
# paper
# --------------------------------------------------------------------------

def _csv_check(path: str, steps: int, lo: float, hi: float, last_product=None):
    """Columns, row count, grid ends and 17-digit round-trip of every cell."""

    def check(result: CliResult) -> str | None:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
        if not lines or lines[0] != CSV_COLUMNS:
            return f"header {lines[:1]!r}, expected {CSV_COLUMNS!r}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != steps:
            return f"{len(rows)} rows, expected {steps}"
        for row in rows:
            if len(row) != 6:
                return f"row {row!r} has {len(row)} cells"
            for cell in row:
                if format(float(cell), ".17g") != cell:
                    return f"cell {cell!r} does not round-trip at 17 digits"
        alphas = [float(row[0]) for row in rows]
        if _rel(alphas[0], lo) > 1e-12 or _rel(alphas[-1], hi) > 1e-12:
            return f"alpha grid [{alphas[0]}, {alphas[-1]}], expected [{lo}, {hi}]"
        if last_product is not None and _rel(float(rows[-1][3]), last_product) > 1e-9:
            return f"last product {rows[-1][3]}, expected {last_product!r} to 1e-9"
        return None

    return check


def _json_check(test: Callable[[dict], str | None]):
    def check(result: CliResult) -> str | None:
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {result.stdout[:80]!r}"
        return test(payload)

    return check


def _crossing_ok(alpha: float) -> str | None:
    if abs(alpha - CROSSING_ALPHA) > CROSSING_TOL:
        return f"crossing at {alpha!r}, expected {CROSSING_ALPHA} to {CROSSING_TOL:g}"
    return None


def paper(rng: random.Random, tmpdir: str) -> list[Op]:
    exp_family = unclab.exponential_family()
    ops = []
    # the jobs of scripts/reproduce_figures.py, flag for flag
    for name, fam, lo, hi, steps, scale, last in [
        ("fig1_exp", "exp", "0.05", "5", 300, "linear", None),
        ("fig2_poly", "poly", "1.6", "50", 160, "log", POLY_LIMIT),
        ("fig2_exp", "exp", "1.6", "50", 160, "log", None),
    ]:
        path = os.path.join(tmpdir, name + ".csv")
        argv = ["sweep", "--family", fam, "--min", lo, "--max", hi,
                "--steps", str(steps), "--scale", scale, "--out", path]
        ops.append(Op(f"cli.sweep.{name}", _cli(argv),
                      _csv_check(path, steps, float(lo), float(hi), last),
                      expected_exit=0, csv_path=path))
    ops.append(Op(
        "lib.find_bound_crossing.exp",
        lambda: unclab.find_bound_crossing(exp_family, 0.5),
        _crossing_ok,
    ))
    ops.append(Op(
        "cli.crossing.exp",
        _cli(["crossing", "--family", "exp", "--target", "0.5", "--json"]),
        _json_check(lambda p: _crossing_ok(p["alpha"])),
        expected_exit=0,
    ))
    ops.append(Op(
        "cli.alpha_star.exp",
        _cli(["alpha-star", "--family", "exp", "--epsilon", "1e-3", "--json"]),
        _json_check(lambda p: None if p["product"] < 1e-3
                    else f"product {p['product']} not below 1e-3"),
        expected_exit=0,
    ))
    ops.append(Op(
        "cli.alpha_star.poly",
        _cli(["alpha-star", "--family", "poly", "--epsilon", "0.01", "--json"]),
        _json_check(lambda p: None if _rel(p["edge_product"], POLY_LIMIT) <= 1e-9
                    else f"edge product {p['edge_product']}, expected {POLY_LIMIT!r}"),
        expected_exit=5,
    ))
    ops.append(Op(
        "cli.check.exp",
        _cli(["check", "--family", "exp", "--json"]),
        _json_check(lambda p: None if (p["dominance"]["verdict"], p["dominance"]["dominant_index"])
                    == ("dominant", 0) else f"dominance {p['dominance']}"),
        expected_exit=0,
    ))
    ops.append(Op(
        "cli.check.poly",
        _cli(["check", "--family", "poly", "--json"]),
        _json_check(lambda p: None if p["dominance"]["verdict"] == "no_unique_dominant"
                    else f"dominance {p['dominance']}"),
        expected_exit=3,
        known=DEFECT_CHECK_POLY,
    ))
    return ops


# --------------------------------------------------------------------------
# series
# --------------------------------------------------------------------------

def _renamed(family: unclab.CoefficientFamily, name: str) -> unclab.CoefficientFamily:
    """The same rule under a name the closed-form fast paths do not know."""
    return unclab.CoefficientFamily(
        name, family.rule, is_real=family.is_real, is_symmetric=family.is_symmetric
    )


def _phase_family(theta: float) -> unclab.CoefficientFamily:
    """C_n = e^{-alpha |n|} e^{i theta n}: the exp state shifted by theta."""

    def rule(n: np.ndarray, alpha: float) -> np.ndarray:
        return np.exp(-alpha * np.abs(n) + 1j * theta * n)

    return unclab.CoefficientFamily("exp_phase", rule, is_real=False, is_symmetric=True)


def _random_doc(rng: random.Random, name: str) -> tuple[dict, float]:
    alpha = rng.choice((0.25, 0.5, 0.75))
    entries, table = [], []
    for n in rng.sample(range(-DOC_SUPPORT, DOC_SUPPORT + 1), DOC_ENTRIES):
        expr = rng.choice(("exp", "table") if n == 0 else ("exp", "poly", "table"))
        entry = {"n": n, "expr": expr, "scale": round(rng.uniform(0.2, 2.0), 6)}
        if expr == "table":
            table.append([n, round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)])
        entries.append(entry)
    doc = {"name": name, "symmetric": False, "real": not table, "entries": entries}
    if table:
        doc["table"] = {repr(alpha): table}
    return doc, alpha


def _doc_amplitudes(doc: dict, alpha: float) -> np.ndarray:
    """The document's amplitudes on -S..S, evaluated here, not by unclab."""
    support = max(abs(e["n"]) for e in doc["entries"])
    rows = doc.get("table", {}).get(repr(alpha), [])
    table = {n: complex(re, im) for n, re, im in rows}
    c = np.zeros(2 * support + 1, dtype=complex)
    for e in doc["entries"]:
        n, scale = e["n"], e["scale"]
        if e["expr"] == "exp":
            c[n + support] = scale * math.exp(-alpha * abs(n))
        elif e["expr"] == "poly":
            c[n + support] = scale * abs(n) ** (-alpha)
        else:
            c[n + support] = scale * table[n]
    return c


def reference_moments(c: np.ndarray) -> dict:
    """Moments of amplitudes c on -S..S from numpy's correlation.

    S_k = sum_n conj(c_n) c_{n+k} comes from ``np.correlate``; the moment
    formulas are the ones in unclab.moments' docstring, so this checks the
    engine's windowing, shell sums and reductions independently.
    """
    support = (c.size - 1) // 2
    ns = np.arange(-support, support + 1)
    w = float(np.sum(np.abs(c) ** 2))
    p = np.abs(c) ** 2 / w
    mean_lz = float(np.sum(ns * p))
    shells = np.correlate(c, c, "full")[c.size:]  # S_k for k = 1 .. 2S
    k = np.arange(1, shells.size + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    xi = 2.0 * float(np.sum(sign * shells.real / k ** 2))
    mean_phi = 2.0 / w * float(np.sum(sign * shells.imag / k))
    s1 = shells[0] if shells.size else 0j
    return {
        "mean_phi": mean_phi,
        "var_phi": math.pi ** 2 / 3.0 + 2.0 / w * xi - mean_phi ** 2,
        "var_lz": float(np.sum(ns * ns * p)) - mean_lz ** 2,
        "mean_cos": s1.real / w,
        "mean_sin": -s1.imag / w,
    }


def _trig_relations_hold(tr) -> str | None:
    """var_lz var_sin >= <cos>^2/4 and var_lz var_cos >= <sin>^2/4."""
    for name in ("sin_relation_residual", "cos_relation_residual"):
        if getattr(tr, name) < -1e-9:
            return f"{name} = {getattr(tr, name)!r} < 0"
    return None


def _series_group(label: str, build: Callable, check_ur, check_tr) -> list[Op]:
    held: dict = {}

    def do_build():
        held.clear()
        held["s"] = build()
        return held["s"]

    def check_build(spec) -> str | None:
        mass = 2.0 * math.pi * spec.norm_sq * spec.sum_sq
        return None if abs(mass - 1.0) <= 1e-12 else f"normalization {mass!r}"

    return [
        Op(f"{label}.build_spectrum", do_build, check_build),
        Op(f"{label}.uncertainty_report",
           lambda: unclab.uncertainty_report(held["s"]),
           lambda rep: check_ur(held["s"], rep)),
        Op(f"{label}.trig_report",
           lambda: unclab.trig_report(held["s"]),
           lambda tr: _trig_relations_hold(tr) or check_tr(tr)),
    ]


def series(rng: random.Random, tmpdir: str) -> list[Op]:
    ops = []

    alpha = 0.01  # N = 1703
    exp_generic = _renamed(unclab.exponential_family(), "exp_generic")
    ev = unclab.exp_closed(alpha)
    ops += _series_group(
        "exp_generic",
        lambda: unclab.build_spectrum(exp_generic, alpha),
        lambda s, rep: _first_failure(
            (_rel(rep.var_phi, ev.var_phi) <= 1e-9, f"var_phi {rep.var_phi!r} vs exp_closed {ev.var_phi!r} (rel 1e-9)"),
            (_rel(rep.var_lz, ev.var_lz) <= 1e-9, f"var_lz {rep.var_lz!r} vs exp_closed {ev.var_lz!r} (rel 1e-9)"),
            (abs(rep.mean_phi) <= 1e-12, f"mean_phi {rep.mean_phi!r} not 0 (1e-12)"),
        ),
        lambda tr: _first_failure(
            (abs(tr.mean_cos - ev.mean_cos) <= 1e-10, f"mean_cos {tr.mean_cos!r} vs {ev.mean_cos!r} (1e-10)"),
            (abs(tr.var_sin - ev.var_sin) <= 1e-10, f"var_sin {tr.var_sin!r} vs {ev.var_sin!r} (1e-10)"),
            (abs(tr.var_cos - ev.var_cos) <= 1e-10, f"var_cos {tr.var_cos!r} vs {ev.var_cos!r} (1e-10)"),
        ),
    )

    # N = 3827: the widest poly window whose shell dots stay under
    # OpenBLAS's 10000-element threading threshold.  At alpha = 2
    # (N = 6725) the threaded dots make the pass time bimodal on a 2-core
    # host; verify's no-budget op still shows BLAS threads in cpu_per_pass_s.
    alpha_p = 2.2
    poly_generic = _renamed(unclab.polynomial_family(), "poly_generic")
    zeta_ratio = unclab.zeta(2 * alpha_p - 2).value / unclab.zeta(2 * alpha_p).value
    ops += _series_group(
        "poly_generic",
        lambda: unclab.build_spectrum(poly_generic, alpha_p),
        # the truncated state's var_lz plus the spectrum's own estimate of
        # the dropped n^2 |C_n|^2 mass must give zeta(2a-2)/zeta(2a)
        lambda s, rep: _first_failure((
            _rel(rep.var_lz + s.tail_bound / s.sum_sq, zeta_ratio) <= 1e-9,
            f"var_lz + tail {rep.var_lz + s.tail_bound / s.sum_sq!r} vs "
            f"zeta(2a-2)/zeta(2a) {zeta_ratio!r} (rel 1e-9)",
        )),
        lambda tr: None if abs(tr.mean_sin) <= 1e-15 else f"mean_sin {tr.mean_sin!r} not 0",
    )

    alpha_c = 0.005  # N = 3405
    theta = round(rng.uniform(0.1, 3.0), 6)
    phase = _phase_family(theta)
    ev_c = unclab.exp_closed(alpha_c)
    ops += _series_group(
        "exp_phase",
        lambda: unclab.build_spectrum(phase, alpha_c),
        lambda s, rep: _first_failure((
            _rel(rep.var_lz, ev_c.var_lz) <= 1e-9,
            f"var_lz {rep.var_lz!r} vs exp_closed {ev_c.var_lz!r} (rel 1e-9)",
        )),
        # shifting the state by theta rotates (<cos>, <sin>) by theta
        lambda tr: _first_failure(
            (abs(tr.mean_cos - math.cos(theta) * ev_c.mean_cos) <= 1e-10, f"mean_cos {tr.mean_cos!r} (1e-10)"),
            (abs(tr.mean_sin + math.sin(theta) * ev_c.mean_cos) <= 1e-10, f"mean_sin {tr.mean_sin!r} (1e-10)"),
        ),
    )

    for i in range(DOC_COUNT):
        doc, alpha_d = _random_doc(rng, f"doc{i}")
        family = unclab.family_from_dict(doc)
        ref: dict = {}

        def reference(doc=doc, alpha_d=alpha_d, ref=ref):
            if not ref:
                ref.update(reference_moments(_doc_amplitudes(doc, alpha_d)))
            return ref

        def check_ur(s, rep, reference=reference):
            r = reference()
            return _first_failure(
                (abs(rep.var_phi - r["var_phi"]) <= 1e-9, f"var_phi {rep.var_phi!r} vs {r['var_phi']!r} (1e-9)"),
                (abs(rep.mean_phi - r["mean_phi"]) <= 1e-9, f"mean_phi {rep.mean_phi!r} vs {r['mean_phi']!r} (1e-9)"),
                (_rel(rep.var_lz, r["var_lz"]) <= 1e-9, f"var_lz {rep.var_lz!r} vs {r['var_lz']!r} (rel 1e-9)"),
            )

        def check_tr(tr, reference=reference):
            r = reference()
            return _first_failure(
                (abs(tr.mean_cos - r["mean_cos"]) <= 1e-9, f"mean_cos {tr.mean_cos!r} vs {r['mean_cos']!r} (1e-9)"),
                (abs(tr.mean_sin - r["mean_sin"]) <= 1e-9, f"mean_sin {tr.mean_sin!r} vs {r['mean_sin']!r} (1e-9)"),
            )

        ops += _series_group(
            f"doc{i}",
            lambda family=family, alpha_d=alpha_d: unclab.build_spectrum(family, alpha_d),
            check_ur,
            check_tr,
        )
    return ops


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def random_table_state(rng: random.Random) -> dict[int, complex]:
    """A state from TestOracleEquivalence's strategy space.

    Indices in [-6, 6], magnitudes up to 2, nine draws (the strategy's
    largest list; repeated indices collapse), at least one amplitude above
    1e-6.  Nine draws keep the state's quadrature cost within a narrow band.
    """
    while True:
        coeffs = {
            rng.randint(-6, 6): rng.uniform(0.0, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            for _ in range(9)
        }
        if any(abs(v) > 1e-6 for v in coeffs.values()):
            return coeffs


def _verify_op(name, family, alpha, tol, rel_tol=None, deadline_s=30.0, known=None) -> Op:
    kwargs = {} if rel_tol is None else {"rel_tol": rel_tol}

    def call():
        spec = unclab.build_spectrum(family, alpha, **kwargs)
        return unclab.compare_report(spec, tol=tol)

    def check(report) -> str | None:
        if report.all_passed:
            return None
        bad = [r.name for r in report.rows if r.passed is False]
        return f"rows over tol {tol:g}: {', '.join(bad)}"

    return Op(name, call, check, deadline_s=deadline_s, known=known)


def verify(rng: random.Random, tmpdir: str) -> list[Op]:
    exp_family = unclab.exponential_family()
    poly_family = unclab.polynomial_family()
    return [
        _verify_op("verify.exp_1", exp_family, 1.0, 1e-8),
        _verify_op("verify.exp_0.1", exp_family, 0.1, 1e-8),
        _verify_op("verify.poly_3", poly_family, 3.0, 1e-8),
        _verify_op("verify.poly_1.6", poly_family, 1.6, 1e-5, rel_tol=1e-5),
        _verify_op("verify.table_random",
                   unclab.table_family("random", random_table_state(rng)), 1.0, 1e-9,
                   known=DEFECT_SIMPSON),
        _verify_op("verify.table_pinned",
                   unclab.table_family("pinned", PINNED_TABLE), 1.0, 1e-9,
                   known=DEFECT_SIMPSON),
        _verify_op("verify.poly_1.4", poly_family, 1.4, 1e-8, rel_tol=1e-8,
                   deadline_s=NO_BUDGET_DEADLINE_S, known=DEFECT_NO_BUDGET),
    ]


WORKLOADS = {"paper": paper, "series": series, "verify": verify}


def make(workload: str, seed: int, tmpdir: str) -> list[Op]:
    """The ops of one pass of ``workload``, inputs drawn from ``seed``."""
    return WORKLOADS[workload](random.Random(seed), tmpdir)
