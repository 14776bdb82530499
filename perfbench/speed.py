"""Host-speed adjustment of the timings.

The benchmark host is shared: the same fixed loop runs up to 1.6 times
slower from one minute to the next, in plateaus of seconds to minutes, and
timings taken minutes apart move with it.  During an untraced run a timer
signal interrupts the main thread every INTERVAL seconds to time a fixed
reference loop (pure Python and small numpy arrays, no swallowkit code).
An operation's time is its wall time minus the time spent in those
interruptions, scaled by REF_NOMINAL / (median reference time during it).
The result reads as seconds on this host at its nominal speed, where the
loop takes REF_NOMINAL seconds; the raw times are reported beside them.
No thread is started: the handler runs between bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_NOMINAL = 0.012      # s, the loop on the 2-CPU host at a quiet time
INTERVAL = 0.25          # s between reference samples
WINDOW = 0.5             # s added on each side of a short operation


def reference_loop() -> float:
    x = 0.0
    for i in range(24000):
        x += (i * 0.5) % 7
    a = np.arange(28.0)
    for _ in range(6000):
        a = a * 1.0000001 + 0.1
    return x + float(a[0])


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time, loop seconds)
        self.stolen = 0.0        # seconds spent in the reference loop so far
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t
        self.samples.append((t, dt))
        self.stolen += dt

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        """A point in time: (wall clock, reference time spent so far)."""
        return time.perf_counter(), self.stolen

    def _factor(self, t0: float, t1: float) -> float:
        """REF_NOMINAL / median reference time in [t0, t1] (or the nearest)."""
        near = [dt for t, dt in self.samples if t0 <= t <= t1]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return REF_NOMINAL / statistics.median(near)

    def seconds(self, m0, m1, adjusted=True) -> float:
        """Time of the work between two marks, without the reference loops,
        scaled to the nominal speed unless adjusted is False."""
        (t0, s0), (t1, s1) = m0, m1
        own = (t1 - t0) - (s1 - s0)
        if not adjusted or not self.samples:
            return own
        pad = max(0.0, WINDOW - (t1 - t0) / 2)
        return own * self._factor(t0 - pad, t1 + pad)
