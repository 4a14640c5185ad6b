#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload paper --seeds 1-10 --jsonl runs.jsonl

For every end-to-end metric it prints the median of the per-seed values
and their inter-quartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when each spread, setup_s aside,
stays well inside its bound.  The spreads of the timings as the clock read
them, before scaling to reference speed, follow.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent


def _seeds(tokens: list[str]) -> list[int]:
    out = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 1-10")
    parser.add_argument("--jsonl", type=Path, help="append every result line here")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    raw: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        *_, details_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        for name, value in json.loads(details_line)["details"]["raw"].items():
            raw.setdefault(name, []).append(value)
        if args.jsonl:
            with open(args.jsonl, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)

    if len(next(iter(values.values()))) < 2:
        return 0
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        share = measure.spread(vals)
        flag = "ok" if share <= m["bound"] / 3 else ("within bound" if share <= m["bound"] else "OVER")
        print(f"{m['name']:>16s} median {statistics.median(vals):.6g} {m['unit']:<5s} "
              f"spread {share:.3f} bound {m['bound']}  {flag}")
    for name, vals in raw.items():
        print(f"{name:>16s} as read: median {statistics.median(vals):.6g} "
              f"spread {measure.spread(vals):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
