"""One benchmark op: a timed call with a deadline, an exit code and a check.

An op is one CLI invocation or one top-level library call a user waits
on.  ``execute`` never lets an op abort the run: an unexpected exception,
a wrong exit code, a missed deadline or an output outside the stated
tolerance all come back as a failed record.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

import probe


class DeadlineExceeded(Exception):
    """Raised inside a running op by SIGALRM when its deadline passes."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """A named call plus the check its result must pass.

    ``check`` returns None when the output is right, else the reason it is
    not.  ``expected_exit`` is the documented CLI exit code (None for a
    library call).  ``known`` names a documented defect that makes this op
    fail at the parent commit; such a failure still counts as failed, but
    does not make the run incorrect.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    deadline_s: float = 30.0
    expected_exit: int | None = None
    csv_path: str | None = None
    known: str | None = None


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> CliResult:
    """Call an in-process CLI entry point, capturing its output streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(op: Op) -> dict:
    """Run one op in the main thread under its deadline; return its record.

    Wall and CPU time (all threads of the process) cover the call only,
    less the host-speed probe samples taken while it ran (listed in
    ``probe_samples``); the check runs after the clock stops.  A missed
    deadline counts its latency as the deadline itself.
    """
    if op.csv_path is not None and os.path.exists(op.csv_path):
        os.remove(op.csv_path)  # a failed call must not be checked on a stale file
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    result = None
    reason = None
    missed = False
    sampler = probe.Sampler()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            sampler.start()
            result = op.call()
        finally:
            sampler.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        missed = True
        reason = f"missed its {op.deadline_s:g} s deadline"
    except Exception as exc:  # an op may not abort the run; the record says why
        reason = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0 - sampler.wall
    cpu = time.process_time() - c0 - sampler.cpu
    signal.signal(signal.SIGALRM, previous)
    if missed:
        latency = op.deadline_s

    exit_mismatch = False
    if reason is None:
        if op.expected_exit is not None and result.code != op.expected_exit:
            exit_mismatch = True
            reason = f"exit code {result.code}, documented {op.expected_exit}"
        else:
            reason = op.check(result)
    csv_bytes = 0
    if op.csv_path is not None and os.path.exists(op.csv_path):
        csv_bytes = os.path.getsize(op.csv_path)
    return {
        "name": op.name,
        "latency": latency,
        "cpu": cpu,
        "failed": reason is not None,
        "reason": reason,
        "known": op.known,
        "deadline_missed": missed,
        "exit_mismatch": exit_mismatch,
        "csv_bytes": csv_bytes,
        "probe_samples": sampler.samples,
    }
