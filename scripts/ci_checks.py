#!/usr/bin/env python3
"""Check the CLI contracts of this checkout and, with --base DIR, compare its outputs with
those of the checkout in DIR. Each command runs in a fresh interpreter in its own tree, with
that tree's src/ first on sys.path. Prints one ok/FAIL line per check; exits 1 if any failed.
A change that moves a compared output on purpose edits its row here and says so in CHANGES.md."""

import argparse
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
CLI = "from unclab.cli import main; sys.exit(main(sys.argv[1:]))"
FIGURES = "import runpy; runpy.run_path('scripts/reproduce_figures.py', run_name='__main__')"
# one fitted-ring state, argv (name, alpha): renamed built-ins and a complex phase family
RING = """import json, numpy as np, unclab
name, alpha = sys.argv[1], float(sys.argv[2])
rule = {"exp_ring": unclab.exponential_family().rule, "poly_ring": unclab.polynomial_family().rule,
        "exp_phase": lambda n, a: np.exp(-a * np.abs(n) + 0.7j * n)}[name]
family = unclab.CoefficientFamily(name, rule, is_real=name != "exp_phase")
s = unclab.build_spectrum(family, alpha, rel_tol=1e-12)
print(json.dumps({k: getattr(s, k) for k in ("cutoff", "tail_bound", "tail_err", "norm_tail")}))"""
SHOWN = {CLI: "-m unclab.cli", FIGURES: "scripts/reproduce_figures.py"}


def doc(name, entries, symmetric=True, real=True, **table):  # entry: (n, expr[, scale])
    return {"name": name, "symmetric": symmetric, "real": real,
            "entries": [dict(zip(("n", "expr", "scale"), e)) for e in entries], **table}


DOCS = {d["name"]: d for d in [
    # no mirror symmetry: a two-part, all-offsets mesh and a nonzero <L_z>
    doc("complex_table", [(n, "table") for n in (-4, -1, 0, 3, 6)], symmetric=False, real=False,
        table={"1.0": [[-4, 0, -1.5], [-1, 0.75, 0.25], [0, 1.25, 0], [3, -0.5, 0.5],
                       [6, 0, 0.625]]}),
    doc("far", [(-3000000, "exp"), (0, "exp"), (3000000, "exp")]),
    doc("bad_scale", [(0, "exp", "x")]),
    doc("bad_row", [(0, "table")], table={"1.0": [[0, "a", 0]]}),
    doc("huge_scale", [(0, "exp"), (1, "exp", 1e308)]),
    doc("frac_index", [(0, "exp"), (1.5, "exp")]),
    doc("all_zero", [(0, "table")], table={"1.0": [[0, 0, 0]]}),
    doc("index_past_int64", [(0, "exp"), (2**63, "exp")]),
    doc("index_int64_min", [(0, "exp"), (-2**63, "exp")]),
    doc("string_flag", [(0, "exp")], real="false"),
    doc("m8", [(8, "poly", 0.3)], symmetric=False),
    doc("spike", [(-200, "table"), (0, "table"), (200, "table")],
        table={"1.0": [[-200, 1, 0], [0, 1, 0], [200, 1, 0]]}),
    doc("pm1000", [(-1000, "poly"), (0, "exp"), (1000, "poly")]),
]} | {"not_utf8": b"\xff\xfe{}"}
ERROR = ("stderr", rb"(?m)^error: ")
PASSED = ("stdout", rb'"all_passed": true')
# (unclab arguments, where {name} is the path of DOCS[name]; exit code; time limit
#  in s; a pattern its stdout or stderr must match)
CONTRACTS = [
    ("verify --family poly --alpha 1.4 --rel-tol 1e-8 --json", 0, 30, PASSED),
    ("check --family poly --json", 3, 30, ("stdout", rb'"verdict": "no_unique_dominant"')),
    # windows and a document support wider than n_max fail fast
    ("verify --family poly --alpha 0.8", 1, 10, ERROR),
    ("verify --family exp --alpha 1e-6", 1, 10, ERROR),
    ("sweep --family custom --spec {far} --min 1 --max 2 --steps 2", 1, 10, ERROR),
    *((f"verify --family custom --spec {{{name}}} --alpha 1", 1, 10, ERROR)
      for name in ("bad_scale", "bad_row", "huge_scale", "frac_index", "all_zero",
                   "index_past_int64", "index_int64_min", "string_flag", "not_utf8")),
    # a single mode off zero is dominant despite a negative var_lz residue
    ("check --family custom --spec {m8} --json", 0, 30, ("stdout", rb'"dominant_index": 8,')),
    # the phi bound picks a wider mesh for the spiky table
    ("verify --family custom --spec {spike} --alpha 1 --json", 0, 30, PASSED),
    ("verify --family custom --spec {complex_table} --alpha 1 --json", 0, 30, PASSED),
    # a support past the first tail ring fails admissibility (ii)
    ("check --family custom --spec {pm1000} --json", 0, 30, ("stdout", rb'"cond_ii": false')),
]


def within(base, head, err):
    """Whether head is within err of base; None matches only None."""
    return base is head if base is None or head is None else abs(head - base) <= err


def verify_problems(base, head):
    """How head's `verify --json` misses base's: the same rows and all_passed,
    each series and quadrature value within its base row's est_error."""
    if [b["name"] for b in base["rows"]] != [h["name"] for h in head["rows"]]:
        return ["the rows differ"]
    return [f"{b['name']} {key} {b[key]!r} -> {h[key]!r}, est_error {b['est_error']:.3g}"
            for b, h in zip(base["rows"], head["rows"]) for key in ("series", "quadrature")
            if not within(b[key], h[key], b["est_error"])
            ] + ([] if base["all_passed"] == head["all_passed"] else ["all_passed differs"])


def ring_problems(base, head):
    """How a head fitted-ring state misses the base's: the rings may stop at another edge, but
    the cutoff stays, tail_bound moves within the base's tail_err, norm_tail within 1e-6."""
    errs = {"cutoff": 0, "tail_bound": base["tail_err"], "norm_tail": 1e-6 * base["norm_tail"]}
    return [f"{key} {base[key]!r} -> {head[key]!r}" for key, err in errs.items()
            if not within(base[key], head[key], err)]


# (code, arguments, time limit in s, rule): both trees run the code; the exits must be equal,
# the stdouts byte-identical or, where the row has a rule, JSON in which it finds no problem
COMPARED = [
    *((CLI, args, 60, None) for args in [
        "crossing --family exp --target 0.5 --json", "crossing --family poly --target 0.5 --json",
        "alpha-star --family exp --epsilon 1e-3 --json",
        "alpha-star --family poly --epsilon 0.01 --json", "check --family exp --json"]),
    # verify values may move by ulps when the mesh or the shells round otherwise
    *((CLI, f"verify {args} --json", 60, verify_problems) for args in [
        "--family poly --alpha 1.4 --rel-tol 1e-8", "--family poly --alpha 3",
        "--family exp --alpha 0.1", "--family custom --spec {complex_table} --alpha 1"]),
    *((RING, state, 12, ring_problems) for state in [  # 60 s for all five
        "exp_ring 0.01", "exp_ring 1e-4", "poly_ring 2.2", "poly_ring 1.6", "exp_phase 0.005"]),
]


def run(tree, code, args, timeout):
    """`code` in a fresh interpreter in `tree`, with `tree`/src first on sys.path."""
    shown = SHOWN.get(code, f"-c {shlex.quote(code)}")
    shown = f"(cd {tree} && PYTHONPATH=src python {shown} {shlex.join(args)})"
    argv = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src')\n" + code, *args]
    try:
        p = subprocess.run(argv, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        p = subprocess.CompletedProcess(argv, f"none, killed after {timeout} s",
                                        exc.stdout or b"", exc.stderr or b"")
    p.args = shown  # what the report prints
    return p


def exits(r, code):
    return [] if r.returncode == code else [f"exit {r.returncode}, expected {code}"]


def compared(rule, b, h):
    """Head run h's problems against base run b: another exit code, and other stdout
    bytes or, where there is a rule, the problems it finds in the two JSON outputs."""
    try:
        return exits(h, b.returncode) + (rule(json.loads(b.stdout), json.loads(h.stdout)) if rule
                                         else [] if b.stdout == h.stdout else ["stdout differs"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def report(name, problems, *runs):
    """Print the check's line; after a FAIL, each run's command, exit and stderr tail."""
    print(f"ok   {name}" if not problems else f"FAIL {name}: {'; '.join(problems)}")
    for r in runs if problems else ():
        tail = r.stderr.decode(errors="replace").splitlines()[-20:]
        print(f"  $ {r.args}", f"  exit {r.returncode}", *(f"  | {t}" for t in tail), sep="\n")
    return not problems


def checks(base, tmp):
    """Run every check in order; yield whether each passed."""
    paths = {name: tmp / f"{name}.json" for name in DOCS}
    for name, d in DOCS.items():
        paths[name].write_bytes(d if isinstance(d, bytes) else json.dumps(d).encode())
    for args, code, limit, (stream, pattern) in CONTRACTS:
        r = run(HEAD, CLI, shlex.split(args.format(**paths)), limit)
        yield report(f"unclab {args} -> exit {code}", exits(r, code) or (
            [] if re.search(pattern, getattr(r, stream)) else [f"no {pattern!r} in {stream}"]), r)
    sides = {"head": HEAD, "rerun": HEAD} | ({"base": base} if base else {})
    figures = {s: run(t, FIGURES, ["--outdir", str(tmp / s)], 120) for s, t in sides.items()}
    first = figures.pop("head")
    yield report("reproduce_figures.py in 120 s prints alpha = 1.296390", exits(first, 0) or (
        [] if b"alpha = 1.296390" in first.stdout else ["no alpha = 1.296390 line"]), first)
    for side, r in figures.items():
        for csv in ("fig1_exp.csv", "fig2_poly.csv", "fig2_exp.csv"):
            a, b = tmp / "head" / csv, tmp / side / csv
            same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
            yield report(f"{csv} byte-identical to the {side}'s", [] if same else ["differs"],
                         first, r)
    if base is None:
        return
    r = run(base, "import unclab; print(unclab.__file__)", [], 60)
    yield report("the base imports its own src/", exits(r, 0) or (
        [] if r.stdout.decode().startswith(str(base / "src")) else [r.stdout.decode().strip()]), r)
    for code, args, limit, rule in COMPARED:
        b, h = (run(tree, code, shlex.split(args.format(**paths)), limit) for tree in (base, HEAD))
        name = f"unclab {args}" if code == CLI else f"ring state {args}"
        yield report(f"{name} matches the base's", compared(rule, b, h), b, h)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=Path, metavar="DIR", help="a checkout of the base commit")
    base = parser.parse_args().base
    if base and not (base / "src").is_dir():
        parser.error(f"{base} has no src/ directory")
    with tempfile.TemporaryDirectory() as tmp:
        results = list(checks(base and base.resolve(), Path(tmp)))
    print(f"{results.count(True)} ok, {results.count(False)} failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
