"""Pure statistics over per-op records: percentiles, pass totals, failures.

Nothing here imports unclab, so the parent process and the tests can use
it without the library on the path.  Times are scaled to the reference
speed of the host-speed probe (probe.py) unless asked for as read.
"""

from __future__ import annotations

import statistics

from probe import CALIB_REF_S

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def scaled(seconds: float, calib: float) -> float:
    """``seconds`` measured while the probe took ``calib``, at reference speed."""
    return seconds * CALIB_REF_S / calib


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    Nearest-rank on the sorted sample: the value at rank n - TAIL_BEYOND
    (1-based) has exactly TAIL_BEYOND samples ranked above it, and sits
    at percentile 100 (n - TAIL_BEYOND) / n.  Returns (value, percentile,
    samples beyond).  With n <= TAIL_BEYOND no percentile qualifies; the
    maximum is returned with percentile 100 and 0 samples beyond, so a
    short smoke run still prints the metric.
    """
    if not latencies:
        raise ValueError("no latencies")
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def op_latency(op: dict, raw: bool = False, key: str = "latency") -> float:
    """An op's latency (or ``key="cpu"``, CPU time) at reference speed, or
    as the clock read it.

    A missed deadline counts as the deadline itself, and the CPU time spent
    before it is bounded by it.  The deadline is a wall-clock limit, so
    neither is scaled.
    """
    if raw or op["deadline_missed"]:
        return op[key]
    return scaled(op[key], op["calib"])


def pass_totals(ops: list[dict], raw: bool = False) -> tuple[float, float]:
    """(wall s, cpu s) of one pass: the sums over its ops, at reference speed.

    Only the ops themselves are timed; the correctness checks between them
    are harness work and stay out of the totals.  ``raw`` gives the times
    as the clock read them.
    """
    return (
        sum(op_latency(op, raw) for op in ops),
        sum(op_latency(op, raw, "cpu") for op in ops),
    )


def failure_summary(ops: list[dict]) -> dict:
    """Attempted/failed counts and whether every failure is a known defect.

    An op record has ``failed`` (bool), ``reason`` and ``known`` (the
    documented defect the op is expected to show at the parent commit, or
    None).  ``correct`` is False as soon as one failure is not a listed
    known defect.
    """
    attempted = len(ops)
    failed = [op for op in ops if op["failed"]]
    unexpected = [op for op in failed if not op["known"]]
    return {
        "attempted": attempted,
        "failed": len(failed),
        "fail_frac": len(failed) / attempted if attempted else 0.0,
        "correct": attempted > 0 and not unexpected,
        "unexpected": sorted({f"{op['name']}: {op['reason']}" for op in unexpected}),
        "known_failed": sorted({op["name"] for op in failed if op["known"]}),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
