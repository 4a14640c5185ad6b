"""Command-line surface: sweeps, family checks, searches, verification.

Exit codes: 0 success, 1 invalid parameters or another library error,
2 divergent rows in a sweep, 3 no unique dominant coefficient,
4 inconclusive dominance, 5 target not attainable / no bracket,
6 verification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _engine,
    _index_range,
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
    NotAttainable,
    UncLabError,
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
_csv_cells = operator.attrgetter(*_CSV_COLUMNS)
# one row in one format; "%.17g" % x is format(x, ".17g"), and "nan" occurs
# in no other number's text, so a divergent row's NaN cells become "div"
_CSV_ROW = ",".join(["%.17g"] * len(_CSV_COLUMNS))

# each dominance verdict's exit code and text line
_VERDICTS = {
    "dominant": (EXIT_OK, "dominance: dominant k={}"),
    "no_unique_dominant": (EXIT_NO_UNIQUE_DOMINANT, "dominance: no unique dominant coefficient"),
    "inconclusive": (EXIT_INCONCLUSIVE, "dominance: inconclusive"),
}


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

def _cmd_sweep(family: CoefficientFamily, args: argparse.Namespace) -> int:
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
    engine = _engine(family)[1]
    lines = [
        f"# unclab {__version__} sweep",
        f"# family: {family.name}",
        f"# alpha: [{args.min:.17g}, {args.max:.17g}] steps={args.steps} scale={args.scale}",
        f"# engine: {engine}",
        "# units: hbar = 1; product = sigma_phi * sigma_Lz",
        ",".join(_CSV_COLUMNS),
    ]
    body = "".join([_CSV_ROW % _csv_cells(r) + "\n" for r in rows])
    text = "\n".join(lines) + "\n" + body.replace("nan", "div")
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_DIVERGENT_ROWS if any(r.divergent for r in rows) else EXIT_OK


def _cmd_check(family: CoefficientFamily, args: argparse.Namespace) -> int:
    grid = _log_grid(args.grid_min, args.grid_max, args.grid_points)
    # both ranges are checked before either report evaluates an amplitude
    _index_range("n_probe", args.n_probe)
    _index_range("N", args.tail_n)
    verdict = check_dominance(family, grid, n_probe=args.n_probe)
    code, line = _VERDICTS[verdict.verdict]
    adm = check_admissibility(
        family, grid, kappa=args.kappa, N=args.tail_n, eps=args.eps
    )
    if args.json:
        # JSON has no inf and no NaN
        nulls = {k: None for k in ("inf_var_phi", "max_tail") if not math.isfinite(getattr(adm, k))}
        payload = {
            "family": family.name,
            "dominance": vars(verdict),
            "admissibility": {**vars(adm), **nulls},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"family: {family.name}")
        print(line.format(verdict.dominant_index))
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
            f"nonstrict={'pass' if adm.cond_iii else 'fail'})"
        )
        if adm.notes:
            print(f"notes: {adm.notes}")
    return code


def _cmd_crossing(family: CoefficientFamily, args: argparse.Namespace) -> int:
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


def _cmd_alpha_star(family: CoefficientFamily, args: argparse.Namespace) -> int:
    try:
        alpha = find_alpha_star(family, args.epsilon, alpha_hint=args.hint)
    except NotAttainable as exc:
        if args.json:
            print(json.dumps({"error": "not_attainable", **vars(exc)}, sort_keys=True))
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


def _cmd_verify(family: CoefficientFamily, args: argparse.Namespace) -> int:
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
        return args.func(_resolve_family(args), args)
    except (UncLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
