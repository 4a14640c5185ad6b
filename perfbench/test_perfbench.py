"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench

They are not part of the library's suite (pyproject's testpaths is
``tests``).  The last test runs ``run.py --smoke`` and takes about a
minute.
"""

import json
import math
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from ops import CliResult, Op, execute  # noqa: E402


# --------------------------------------------------------------------------
# tail percentile
# --------------------------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, beyond = measure.tail_latency([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_tail_is_highest_qualifying_percentile_on_shuffled_data():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(257)]
    value, pct, _ = measure.tail_latency(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * 247 / 257)


def test_tail_with_eleven_samples_is_the_minimum():
    xs = list(range(11, 0, -1))
    assert measure.tail_latency(xs) == (1, 100.0 / 11, 10)


def test_tail_with_too_few_samples_falls_back_to_max():
    assert measure.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------

def _span(id_, start, end, parent=None, thread=0, name="x"):
    return spans.Span(id_, name, start, parent, thread, end)


def test_self_time_subtracts_nested_children():
    got = spans.self_times([
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 5.0, parent=1),
        _span(3, 3.0, 4.0, parent=2),
        _span(4, 6.0, 7.0, parent=1),
    ])
    assert got == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_subtracts_the_union_of_overlapping_thread_children():
    got = spans.self_times([
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 6.0, parent=1, thread=1),
        _span(3, 4.0, 9.0, parent=1, thread=2),
        _span(4, 9.5, 12.0, parent=1, thread=1),  # runs past its parent: clipped
    ])
    assert got[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert got[2] == 5.0 and got[3] == 5.0


def test_rows_in_pool_threads_get_the_sweep_span_as_parent():
    tr = spans.Tracer()

    def row(x):
        time.sleep(0.01)
        return x

    traced_row = spans._wrap(tr, row, "analysis.evaluate_family", None, None, None)

    def sweep(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_row, xs))

    traced_sweep = spans._wrap(tr, sweep, spans.SWEEP, spans._on_sweep, None, None)
    assert traced_sweep([1, 2, 3, 4]) == [1, 2, 3, 4]

    (sweep_span,) = [s for s in tr.spans if s.name == spans.SWEEP]
    rows = [s for s in tr.spans if s.name == "analysis.evaluate_family"]
    assert len(rows) == 4
    assert all(s.parent == sweep_span.id for s in rows)
    assert all(s.thread != threading.get_ident() for s in rows)
    assert tr.adopter is None

    layers = spans.layer_metrics(tr, passes=1)
    row_s = sum(s.end - s.start for s in rows)
    assert layers["analysis.sweep.rows"] == (4, "count")
    assert layers["analysis.sweep.row_s_over_wall"][0] == pytest.approx(
        row_s / (sweep_span.end - sweep_span.start))
    assert 0.0 <= layers["analysis.sweep.self_s"][0] < sweep_span.end - sweep_span.start


def test_install_wraps_every_binding_and_undo_restores_them():
    import unclab
    import unclab.analysis
    import unclab.spectrum

    original = unclab.spectrum.build_spectrum
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        assert unclab.analysis.build_spectrum is not original
        assert unclab.analysis.build_spectrum is unclab.spectrum.build_spectrum
        assert unclab.build_spectrum is unclab.spectrum.build_spectrum
        spec = unclab.build_spectrum(unclab.exponential_family(), 1.0)
    finally:
        undo()
    assert unclab.analysis.build_spectrum is original
    assert unclab.build_spectrum is original
    builds = [s for s in tr.spans if s.name == spans.BUILD]
    assert len(builds) == 1
    coeff = [s for s in tr.spans if s.name == "families.coefficients"]
    assert coeff and all(s.parent == builds[0].id for s in coeff)
    assert tr.counts["spectrum.cutoff_sum"] == spec.cutoff
    assert tr.counts["spectrum.build_indices"] >= 2 * spec.cutoff


# --------------------------------------------------------------------------
# op failures and the failed-op fraction
# --------------------------------------------------------------------------

def test_missed_deadline_fails_and_counts_the_deadline_as_latency():
    rec = execute(Op("slow", lambda: time.sleep(5), lambda r: None, deadline_s=0.05))
    assert rec["failed"] and rec["deadline_missed"]
    assert rec["latency"] == 0.05
    assert "deadline" in rec["reason"]


def test_wrong_exit_code_fails_before_the_output_check_runs():
    rec = execute(Op("cli", lambda: CliResult(1, "", "error"), lambda r: None, expected_exit=3))
    assert rec["failed"] and rec["exit_mismatch"]
    assert rec["reason"] == "exit code 1, documented 3"


def test_output_outside_tolerance_fails():
    def check(v):
        return None if abs(v - 1.0) <= 1e-9 else f"{v!r} off by more than 1e-9"

    assert not execute(Op("close", lambda: 1.0 + 1e-12, check))["failed"]
    rec = execute(Op("far", lambda: 1.0 + 1e-6, check))
    assert rec["failed"] and "1e-9" in rec["reason"]


def test_unexpected_exception_fails_without_aborting():
    def boom():
        raise ValueError("bad input")

    rec = execute(Op("boom", boom, lambda r: None))
    assert rec["failed"] and rec["reason"] == "raised ValueError: bad input"


def test_failure_summary_separates_known_defects():
    ok = execute(Op("ok", lambda: 1, lambda r: None))
    known = execute(Op("known", lambda: CliResult(1, "", ""), lambda r: None,
                       expected_exit=3, known="documented defect"))
    summary = measure.failure_summary([ok, ok, known, ok])
    assert summary["attempted"] == 4 and summary["failed"] == 1
    assert summary["fail_frac"] == 0.25
    assert summary["correct"] and summary["known_failed"] == ["known"]

    bad = execute(Op("bad", lambda: 2.0, lambda r: "wrong value"))
    summary = measure.failure_summary([ok, known, bad])
    assert not summary["correct"]
    assert summary["unexpected"] == ["bad: wrong value"]


# --------------------------------------------------------------------------
# scaling to the host-speed probe's reference speed
# --------------------------------------------------------------------------

def _rec(latency, cpu, calib, missed=False):
    return {"latency": latency, "cpu": cpu, "calib": calib, "deadline_missed": missed}


def test_times_scale_by_the_probe_but_a_missed_deadline_does_not():
    slow = 2 * probe.CALIB_REF_S  # the host ran at half the reference speed
    ops = [_rec(0.4, 0.6, slow), _rec(0.2, 0.2, probe.CALIB_REF_S), _rec(3.0, 5.0, slow, missed=True)]
    assert measure.op_latency(ops[0]) == pytest.approx(0.2)
    assert measure.op_latency(ops[2]) == 3.0
    assert measure.pass_totals(ops) == pytest.approx((0.2 + 0.2 + 3.0, 0.3 + 0.2 + 5.0))
    assert measure.pass_totals(ops, raw=True) == pytest.approx((3.6, 5.8))


def test_probe_samples_taken_inside_an_op_are_not_timed_as_the_op():
    def busy():
        end = time.process_time() + 4 * probe.SAMPLE_CPU_S
        while time.process_time() < end:
            pass

    t0 = time.perf_counter()
    rec = execute(Op("busy", busy, lambda r: None))
    outer = time.perf_counter() - t0
    assert len(rec["probe_samples"]) >= 2
    # the op's own time is the outer time less the samples (the check and
    # bookkeeping add a little outside the op)
    assert rec["latency"] <= outer - 0.9 * sum(rec["probe_samples"])
    # CPU clocks may tick as coarsely as 4 ms
    assert rec["cpu"] <= rec["latency"] + 0.01


# --------------------------------------------------------------------------
# the series workload's independent reference
# --------------------------------------------------------------------------

def test_reference_moments_match_brute_force_pair_sums():
    import workloads

    rng = np.random.default_rng(5)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    support = 4
    ns = np.arange(-support, support + 1)
    w = float(np.sum(np.abs(c) ** 2))
    xi = mean = 0j
    for i, m in enumerate(ns):
        for j, n in enumerate(ns):
            if m != n:
                k = n - m
                xi += np.conj(c[i]) * c[j] * (-1.0) ** abs(k) / k ** 2
                mean += np.conj(c[i]) * c[j] * (-1.0) ** abs(k) / (1j * k)
    mean_phi = (mean / w).real
    ref = workloads.reference_moments(c)
    assert ref["mean_phi"] == pytest.approx(mean_phi, abs=1e-13)
    assert ref["var_phi"] == pytest.approx(
        math.pi ** 2 / 3 + 2.0 * xi.real / w - mean_phi ** 2, abs=1e-13)
    s1 = np.sum(np.conj(c[:-1]) * c[1:])
    assert ref["mean_cos"] == pytest.approx(s1.real / w, abs=1e-14)


# --------------------------------------------------------------------------
# smoke
# --------------------------------------------------------------------------

def test_smoke_prints_every_metric_and_passes_its_checks():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=400)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in bench["workloads"]:
        assert f"{workload['name']} trace=0 correct=True" in proc.stdout
        assert f"{workload['name']} trace=1 correct=True" in proc.stdout
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert f"  {metric['name']} = " in proc.stdout
    assert "MISSING" not in proc.stdout
