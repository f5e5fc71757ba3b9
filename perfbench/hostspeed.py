"""Host speed probe: converts measured seconds to seconds at a fixed host speed.

The shared machine this benchmark was sized on changes speed by up to 1.7x
over seconds to minutes.  The slow spells move a process's CPU time as much
as its wall time, so repeating jobs within a run does not remove them from a
multi-second job, and they move whole runs.  ``HostClock`` runs a short
fixed probe, which uses no orbitcat code, every ``PERIOD_S`` seconds from a
``SIGALRM`` timer, also in the middle of a job.  The probe body mixes what
orbitcat's time is made of (interpreter arithmetic, dict updates and small
numpy matrix products) on a few kilobytes of data.  It runs once to warm the
caches and is timed on a second run, so the program's own memory traffic
before a probe does not change its time.

``HostClock.interval(t0, t1)`` gives the interval's seconds with the probes
taken out (``raw_s``) and those seconds scaled to the reference speed
(``ref_s``): ``raw_s * REFERENCE_PROBE_S / mean probe time`` over the probes
from ``WINDOW_S`` before ``t0`` to ``WINDOW_S`` after ``t1``.  A change to
the program moves ``ref_s`` as it moves ``raw_s``, since the probe does not
run the program; a slow spell of the host slows the probe too and cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 1.0
WARMUP_PROBES = 20
# About the timed probe's duration on a quiet shared 2-core x86-64 host
# (Python 3.11, numpy 2.4); ref_s is in seconds at that speed.
REFERENCE_PROBE_S = 0.0007


class HostClock:
    """Runs the probe from a timer and keeps every probe's start and duration."""

    def __init__(self):
        self._mat = np.arange(48 * 48, dtype=np.float64).reshape(48, 48) % 7
        self.starts = array("d")
        self.durations = array("d")
        self._old_handler = None

    def _body(self):
        s = 0
        for i in range(2000):
            s += (i * i) % 7
        d = {}
        for i in range(1000):
            d[i & 255] = d.get(i & 255, 0) + i
        b = self._mat
        for _ in range(4):
            b = np.mod(b @ self._mat, 7.0)

    def probe(self) -> float:
        """One probe: the body once to warm the caches, then once timed.
        Returns the timed duration in seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._body()
            t0 = time.perf_counter()
            self._body()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.durations.append(self.probe())
        self.starts.append(t0)

    def start(self):
        for _ in range(WARMUP_PROBES):
            self.probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def interval(self, t0: float, t1: float) -> tuple:
        """(raw_s, ref_s) of the interval from ``t0`` to ``t1``."""
        starts = np.array(self.starts)
        durations = np.array(self.durations)
        inside = (starts >= t0) & (starts < t1)
        raw = (t1 - t0) - float(durations[inside].sum())
        near = (starts >= t0 - WINDOW_S) & (starts < t1 + WINDOW_S)
        if not near.any():
            raise RuntimeError(f"no host speed probe within {WINDOW_S} s of an interval")
        return raw, raw * REFERENCE_PROBE_S / float(durations[near].mean())
