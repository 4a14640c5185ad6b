"""Command-line surface: sweeps, family checks, searches, verification.

Exit codes: 0 success, 1 invalid parameters, 2 divergent rows in a sweep,
3 no unique dominant coefficient, 4 inconclusive dominance,
5 target not attainable / no bracket, 6 verification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _engine,
    check_admissibility,
    check_dominance,
    evaluate_family,
    find_alpha_star,
    find_bound_crossing,
    sweep,
)
from .errors import (
    DivergentMoment,
    InvalidParameter,
    NoBracket,
    NonConvergent,
    NotAttainable,
    ToleranceNotMet,
)
from .families import (
    CoefficientFamily,
    exponential_family,
    load_family,
    polynomial_family,
)
from .quadrature import compare_report
from .spectrum import build_spectrum

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DIVERGENT_ROWS = 2
EXIT_NO_UNIQUE_DOMINANT = 3
EXIT_INCONCLUSIVE = 4
EXIT_NOT_ATTAINABLE = 5
EXIT_VERIFY_FAILED = 6

_CSV_COLUMNS = ("alpha", "var_phi", "var_lz", "product", "hr_bound", "state_bound")


def _fmt(x: float) -> str:
    """17 significant digits: lossless round-trip of binary64."""
    return format(x, ".17g")


def _resolve_family(args: argparse.Namespace) -> CoefficientFamily:
    if args.family == "exp":
        return exponential_family()
    if args.family == "poly":
        return polynomial_family()
    if args.spec is None:
        raise InvalidParameter("--family custom requires --spec FILE.json")
    return load_family(args.spec)


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        required=True,
        choices=("exp", "poly", "custom"),
        help="built-in family or 'custom' with --spec",
    )
    p.add_argument("--spec", type=Path, default=None, help="custom family JSON file")


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-min", type=float, default=0.5, help="grid start")
    p.add_argument("--grid-max", type=float, default=20.0, help="grid end")
    p.add_argument("--grid-points", type=int, default=16, help="log-spaced points")


def _log_grid(lo: float, hi: float, num: int) -> list[float]:
    for name, end in (("--grid-min", lo), ("--grid-max", hi)):
        if not math.isfinite(end):
            raise InvalidParameter(f"{name} must be finite, got {end!r}")
    if not (0.0 < lo < hi) or num < 2:
        raise InvalidParameter(f"bad grid [{lo}, {hi}] x {num}")
    return np.geomspace(lo, hi, num).tolist()


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    family = _resolve_family(args)
    try:
        rows = sweep(
            family,
            args.min,
            args.max,
            args.steps,
            scale=args.scale,
            keep_going=args.keep_going,
        )
    except DivergentMoment as exc:
        print(f"error: divergent sigma_Lz in sweep range: {exc}", file=sys.stderr)
        print("hint: rerun with --keep-going to mark such rows 'div'", file=sys.stderr)
        return EXIT_DIVERGENT_ROWS
    _, engine = _engine(family)
    lines = [
        f"# unclab {__version__} sweep",
        f"# family: {family.name}",
        f"# alpha: [{_fmt(args.min)}, {_fmt(args.max)}] steps={args.steps} scale={args.scale}",
        f"# engine: {engine}",
        "# units: hbar = 1; product = sigma_phi * sigma_Lz",
        ",".join(_CSV_COLUMNS),
    ]
    divergent = 0
    for r in rows:
        if r.divergent:
            divergent += 1
            cells = [_fmt(r.alpha), "div", "div", "div", _fmt(r.hr_bound), "div"]
        else:
            cells = [
                _fmt(r.alpha),
                _fmt(r.var_phi),
                _fmt(r.var_lz),
                _fmt(r.product),
                _fmt(r.hr_bound),
                _fmt(r.state_bound),
            ]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_DIVERGENT_ROWS if divergent else EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    family = _resolve_family(args)
    grid = _log_grid(args.grid_min, args.grid_max, args.grid_points)
    verdict = check_dominance(family, grid, n_probe=args.n_probe)
    adm = check_admissibility(
        family, grid, kappa=args.kappa, N=args.tail_n, eps=args.eps
    )
    if args.json:
        payload = {
            "family": family.name,
            "dominance": {
                "verdict": verdict.verdict,
                "dominant_index": verdict.dominant_index,
                "grid": list(verdict.grid),
            },
            "admissibility": {
                "cond_i": adm.cond_i,
                "inf_var_phi": adm.inf_var_phi,
                "kappa": adm.kappa,
                "cond_ii": adm.cond_ii,
                "max_tail": None if math.isinf(adm.max_tail) else adm.max_tail,
                "eps": adm.eps,
                "cond_iii": adm.cond_iii,
                "cond_iii_strict": adm.cond_iii_strict,
                "cond_iii_nonstrict": adm.cond_iii_nonstrict,
                "notes": adm.notes,
            },
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"family: {family.name}")
        if verdict.verdict == "dominant":
            print(f"dominance: dominant k={verdict.dominant_index}")
        elif verdict.verdict == "no_unique_dominant":
            print("dominance: no unique dominant coefficient")
        else:
            print("dominance: inconclusive")
        print(
            f"admissibility (i): {'pass' if adm.cond_i else 'fail'} "
            f"(inf var_phi={adm.inf_var_phi:.6g}, kappa={adm.kappa:g})"
        )
        print(
            f"admissibility (ii): {'pass' if adm.cond_ii else 'fail'} "
            f"(max tail={adm.max_tail:.6g}, eps={adm.eps:g})"
        )
        print(
            f"admissibility (iii): {'pass' if adm.cond_iii else 'fail'} "
            f"(strict={'pass' if adm.cond_iii_strict else 'fail'}, "
            f"nonstrict={'pass' if adm.cond_iii_nonstrict else 'fail'})"
        )
        if adm.notes:
            print(f"notes: {adm.notes}")
    if verdict.verdict == "dominant":
        return EXIT_OK
    if verdict.verdict == "no_unique_dominant":
        return EXIT_NO_UNIQUE_DOMINANT
    return EXIT_INCONCLUSIVE


def _cmd_crossing(args: argparse.Namespace) -> int:
    family = _resolve_family(args)
    try:
        alpha = find_bound_crossing(family, args.target)
    except NoBracket as exc:
        if args.json:
            print(json.dumps({"error": "no_bracket", "detail": str(exc)}))
        else:
            print(f"no crossing: {exc}")
        return EXIT_NOT_ATTAINABLE
    product = evaluate_family(family, alpha).product
    if args.json:
        print(json.dumps({"alpha": alpha, "product": product}, sort_keys=True))
    else:
        print(f"alpha = {alpha:.6f}  product = {product:.10f}")
    return EXIT_OK


def _cmd_alpha_star(args: argparse.Namespace) -> int:
    family = _resolve_family(args)
    try:
        alpha = find_alpha_star(family, args.epsilon, alpha_hint=args.hint)
    except NotAttainable as exc:
        if args.json:
            print(
                json.dumps(
                    {
                        "error": "not_attainable",
                        "best_alpha": exc.best_alpha,
                        "best_product": exc.best_product,
                        "edge_alpha": exc.edge_alpha,
                        "edge_product": exc.edge_product,
                    },
                    sort_keys=True,
                )
            )
        else:
            print(
                f"not attainable: smallest product {exc.best_product:.6f} at "
                f"alpha={exc.best_alpha:.6g}; settles near {exc.edge_product:.6f} "
                f"at the alpha budget ({exc.edge_alpha:g})"
            )
        return EXIT_NOT_ATTAINABLE
    product = evaluate_family(family, alpha).product
    if args.json:
        print(json.dumps({"alpha_star": alpha, "product": product}, sort_keys=True))
    else:
        print(f"alpha* = {alpha:.6f}  product = {product:.10f} < {args.epsilon:g}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    family = _resolve_family(args)
    spec = build_spectrum(family, args.alpha, rel_tol=args.rel_tol)
    report = compare_report(spec, tol=args.tol)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(f"family: {family.name}  alpha={args.alpha:g}  cutoff N={spec.cutoff}")
        print(f"{'moment':>12s} {'series':>24s} {'quadrature':>24s} {'|diff|':>12s}  status")
        for r in report.rows:
            if r.passed is None:
                print(f"{r.name:>12s} {'n/a':>24s} {'n/a':>24s} {'n/a':>12s}  {r.note}")
            else:
                status = "pass" if r.passed else "FAIL"
                print(
                    f"{r.name:>12s} {r.series:>24.16e} {r.quadrature:>24.16e} "
                    f"{r.diff:>12.3e}  {status}"
                )
        print(f"tolerance: {report.tol:g}  all passed: {report.all_passed}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unclab",
        description=(
            "Angle/angular-momentum uncertainty products of periodic states "
            "defined by one-parameter Fourier-coefficient families (hbar = 1)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"unclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="uncertainty-product profile as CSV")
    _add_family_args(p)
    p.add_argument("--min", type=float, required=True, help="smallest alpha")
    p.add_argument("--max", type=float, required=True, help="largest alpha")
    p.add_argument("--steps", type=int, default=100, help="number of rows")
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="mark divergent rows 'div' instead of aborting",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="admissibility and dominance report")
    _add_family_args(p)
    _grid_args(p)
    p.add_argument("--n-probe", type=int, default=8, help="|n| range for dominance")
    p.add_argument("--kappa", type=float, default=0.1, help="condition (i) floor")
    p.add_argument("--tail-n", type=int, default=50, help="condition (ii) probe N")
    p.add_argument("--eps", type=float, default=1.0, help="condition (ii) ceiling")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("crossing", help="solve product(alpha) = target")
    _add_family_args(p)
    p.add_argument("--target", type=float, required=True, help="product level")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_crossing)

    p = sub.add_parser("alpha-star", help="find alpha with product < epsilon")
    _add_family_args(p)
    p.add_argument("--epsilon", type=float, required=True, help="target product")
    p.add_argument("--hint", type=float, default=1.0, help="starting alpha")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_alpha_star)

    p = sub.add_parser("verify", help="series vs quadrature comparison table")
    _add_family_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8, help="per-moment tolerance")
    p.add_argument("--rel-tol", type=float, default=1e-12, help="spectrum tolerance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InvalidParameter,
        NonConvergent,
        DivergentMoment,
        ToleranceNotMet,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
