"""Host-speed probe: a fixed pure-Python loop, timed next to every op.

On a shared host the speed a process gets swings by up to 1.8x in phases
of seconds to minutes (CPU frequency, busy sibling hyper-threads, steal),
and its CPU time swings with it.  The probe loop tracks that speed.  It is
timed before and after every op and, while an op runs, every SAMPLE_CPU_S
of process CPU time from a SIGPROF handler; the op's wall and CPU time
exclude the time spent in the probe.  measure.py scales op times to the
speed at which the loop runs CALIB_RATE iterations per second.  Nothing
in unclab can change the loop, so a slower program still reads slower.
"""

from __future__ import annotations

import signal
import sys
import time

CALIB_ITERS = 50_000
CALIB_RATE = 20e6
CALIB_REF_S = CALIB_ITERS / CALIB_RATE

# In-op samples: one per this much process CPU time (all threads).
SAMPLE_CPU_S = 0.1


def calibrate() -> float:
    """Seconds the probe loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i
    return time.perf_counter() - t0


class Sampler:
    """Times the probe loop periodically between start() and stop().

    ``samples`` holds the probe times; ``wall`` and ``cpu`` the seconds
    the samples took, which the caller subtracts from the op's times.
    The handler runs in the main thread between bytecodes.  While it runs,
    the GIL switch interval is raised so pool threads do not cut into the
    probe.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            self.samples.append(calibrate())
        finally:
            sys.setswitchinterval(interval)
            self.wall += time.perf_counter() - t0
            self.cpu += time.process_time() - c0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None
