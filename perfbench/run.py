#!/usr/bin/env python3
"""The unclab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The library is imported from the
checkout's ``src/`` in fresh child interpreters (worker.py), with
UNC_LAB_THREADS removed from their environment so the default sweep pool
is measured.  One child at a time runs; the last one is the single
load-generating process, a closed loop of one caller.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see README.md).  The last stdout line is the JSON result; the line before
it carries provenance and details (tail percentile and sample count,
failed-op fraction, failing op names).  The exit code is 0 when a result
was printed and non-zero when the run could not be measured.

--smoke runs every workload for a single pass, traced and untraced, and
checks that every metric named in BENCHMARK.json is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters per run, one at a time.  EXTRA_CHILDREN of them add
# setup_s samples and, where a pass is short, cold_pass_s samples too.
# Every child scales its times by the host-speed probe (probe.py).
# The run's --seconds are split over FULL_CHILDREN load-generating
# children; each times its cold first pass and then runs its share of the
# closed loop.  Pooling several processes damps the process-to-process
# drift (5-15% on a 2-core sandbox) of the short paper and series passes;
# verify's 8 s pass averages it out within one process.  A traced run
# uses one load child, so the traced and untraced passes it compares
# share a process.
EXTRA_CHILDREN = 9
EXTRA_STAGE = {"paper": "cold", "series": "cold", "verify": "setup"}
FULL_CHILDREN = {"paper": 5, "series": 5, "verify": 1}

# Every child must end inside this budget, counted from the run's start.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("UNC_LAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(stage, workload, seed, seconds, trace, tmp, started) -> dict:
    out = os.path.join(tmp, f"{stage}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--stage", stage, "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", tmp, "--out", out]
    left = RUN_BUDGET_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run budget exhausted before all children ran")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{stage} child did not finish within the run budget")
    if proc.returncode != 0:
        raise BenchError(f"{stage} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    src = ROOT / "src"
    if not Path(record["unclab_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"unclab was imported from {record['unclab_file']}, not {src}")
    return record


def collect(workload, seed, seconds, trace, extra_children, full_children) -> list[dict]:
    """Run the children one at a time: the extra ones, then the full ones."""
    started = time.monotonic()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        records = [_run_child(EXTRA_STAGE[workload], workload, seed, 0, 0, tmp, started)
                   for _ in range(extra_children)]
        records += [_run_child("full", workload, seed, seconds / full_children, trace, tmp, started)
                    for _ in range(full_children)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return records


def summarize(records: list[dict], trace: int) -> tuple[dict, dict]:
    """(metrics, details) from the child records, warm passes pooled."""
    fulls = [r for r in records if r["passes"]]
    warm = [p for r in fulls for p in r["passes"] if not p["traced"]]
    traced = [p for r in fulls for p in r["passes"] if p["traced"]]
    every_op = [op for r in records for op in r.get("cold", [])]
    every_op += [op for r in fulls for p in r["passes"] for op in p["ops"]]
    failures = measure.failure_summary(every_op)
    steal, total = (sum(t) for t in zip(*(r["ticks"] for r in fulls)))
    details = {**failures, "passes": len(warm), "traced_passes": len(traced),
               "steal_frac": steal / total if total else 0.0}

    if trace:
        walls = [measure.pass_totals(p["ops"])[0] for p in warm]
        traced_walls = [measure.pass_totals(p["ops"])[0] for p in traced]
        traced_ops = [op for p in traced for op in p["ops"]]
        (full,) = fulls
        layers = dict(full["layers"])
        layers["cli.csv_bytes"] = (sum(op["csv_bytes"] for op in traced_ops) / len(traced), "bytes")
        layers["cli.exit_mismatch"] = (sum(op["exit_mismatch"] for op in traced_ops) / len(traced), "count")
        layers["trace_overhead_frac"] = (statistics.median(traced_walls) / statistics.median(walls) - 1.0, "ratio")
        layers["fail_frac"] = (measure.failure_summary(traced_ops)["fail_frac"], "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        return metrics, details

    metrics, tail_info = _timings(records, fulls, warm, raw=False)
    raw, _ = _timings(records, fulls, warm, raw=True)
    details.update(tail_info, cold_passes=sum("cold" in r for r in records),
                   setup_samples=len(records), probe_ref_s=measure.CALIB_REF_S,
                   probe_s=statistics.median(op["calib"] for r in fulls for op in r["cold"]),
                   raw={n: v for n, (v, _) in raw.items()})
    metrics.update(
        peak_rss_mb=(max(r["peak_rss_kb"] for r in fulls) / 1024.0, "MB"),
        ok_frac=(1.0 - failures["fail_frac"], "frac"),
    )
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}, details


def _timings(records, fulls, warm, raw: bool) -> tuple[dict, dict]:
    """The timing metrics at reference speed, or as the clock read them."""
    def lat(op):
        return measure.op_latency(op, raw)

    totals = [measure.pass_totals(p["ops"], raw) for p in warm]
    # op latencies cover each child's whole closed loop, its cold first
    # pass included: verify's few long passes then leave its tail
    # percentile inside a group of like ops rather than at a group edge
    latencies = [lat(op) for r in fulls for op in r["cold"]]
    latencies += [lat(op) for p in warm for op in p["ops"]]
    tail, pct, beyond = measure.tail_latency(latencies)
    cold = [measure.pass_totals(r["cold"], raw)[0] for r in records if "cold" in r]
    setups = [r["setup_s"] if raw else measure.scaled(r["setup_s"], r["setup_calib"])
              for r in records]
    metrics = {
        "pass_s": (statistics.median([w for w, _ in totals]), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "cpu_per_pass_s": (statistics.median([c for _, c in totals]), "s"),
        "cold_pass_s": (statistics.median(cold), "s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, {"op_tail_percentile": pct, "op_tail_beyond": beyond,
                     "op_samples": len(latencies)}


def measure_run(workload, seed, seconds, trace, extra_children, full_children):
    records = collect(workload, seed, seconds, trace, extra_children, full_children)
    metrics, info = summarize(records, trace)
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": records[-1]["numpy"],
        "commit": _commit(),
        "unc_lab_threads": "unset (default pool: min(8, cpu_count))",
    }
    return metrics, info, provenance


def _check_layout() -> dict:
    if not (ROOT / "src" / "unclab" / "__init__.py").is_file():
        raise BenchError(f"no unclab sources under {ROOT / 'src'}; run from a checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def smoke(bench: dict, seed: int) -> int:
    """One pass of every workload, both modes; every declared metric printed."""
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, info, _ = measure_run(workload, seed, 0, trace, 0, 1)
            expected = [m["name"] for m in bench[key]]
            missing = [n for n in expected if n not in metrics]
            ok &= not missing and info["correct"]
            print(f"{workload} trace={trace} correct={info['correct']} "
                  f"attempted={info['attempted']} failed={info['failed']}")
            for name in expected:
                m = metrics.get(name)
                print(f"  {name} = " + (f"{m['value']:.6g} {m['unit']}" if m else "MISSING"))
            for line in info["unexpected"]:
                print(f"  unexpected failure: {line}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of every workload, both modes, then stop")
    args = parser.parse_args()
    try:
        bench = _check_layout()
        if args.smoke:
            return smoke(bench, args.seed)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        metrics, info, provenance = measure_run(
            args.workload, args.seed, args.seconds, args.trace,
            EXTRA_CHILDREN, 1 if args.trace else FULL_CHILDREN[args.workload],
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "provenance": provenance, "details": info}))
    print(json.dumps({"correct": info["correct"], "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
