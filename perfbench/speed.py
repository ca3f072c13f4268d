"""Host-speed calibration: measured seconds scaled to a reference speed.

On a shared virtual machine the speed of a core swings by a third or
more, both from one tenth of a second to the next and over tens of
seconds as neighbouring tenants come and go; process CPU time swings
with it.  So the raw seconds of one run measure the moment more than
the program.  While a pass measures, a :class:`Sampler` runs a fixed
piece of reference work from a timer signal every :data:`PERIOD_S`
seconds.  :meth:`Sampler.at_reference` converts a measured interval to
the seconds it would take at the reference speed: the interval's
seconds, less the time spent in reference work, times ``REFERENCE_S``
over the mean time of the reference work run during the interval.  The
reference work is fixed code of the benchmark, so a change to the
program moves the scaled seconds as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Median seconds of :func:`reference_work` while a pass runs on the
#: machine the benchmark was defined on (a 2-vCPU Intel Xeon, family 6
#: model 207, KVM guest), so scaled seconds read close to raw seconds there.
REFERENCE_S = 1.4e-3

#: Seconds between two runs of the reference work.
PERIOD_S = 0.05

#: An interval's speed is that of the reference work run during it or
#: within this many seconds of it, so a short interval has samples.
WINDOW_S = 0.1


def reference_work() -> float:
    """Small-array numpy arithmetic driven from a Python loop, like the
    program's batch kernels on 2-6-dimensional models."""
    state = np.linspace(0.1, 0.9, 6)
    totals = {}
    for step in range(200):
        drift = state * (1.0 - state) - 0.3 * state
        state = state + 0.01 * drift
        totals[step % 7] = float(state.sum()) + step
    return sum(totals.values())


class Sampler:
    """Runs :func:`reference_work` every :data:`PERIOD_S` seconds from a
    ``SIGALRM`` timer, between the bytecodes of whatever the main thread
    runs, and records when each run started and ended
    (``time.monotonic``)."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        reference_work()
        self.starts.append(start)
        self.ends.append(time.monotonic())

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _runs(self, start: float, end: float) -> range:
        """Indices of the reference runs that started in ``[start, end)``."""
        return range(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def seconds(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the reference runs in them."""
        return end - start - sum(self.ends[i] - self.starts[i]
                                 for i in self._runs(start, end))

    def at_reference(self, start: float, end: float) -> float:
        """:meth:`seconds` from ``start`` to ``end`` at the reference speed."""
        runs = self._runs(start - WINDOW_S, end + WINDOW_S)
        if not runs:
            raise RuntimeError("no reference run near the measured interval")
        speed = statistics.fmean(self.ends[i] - self.starts[i] for i in runs)
        return self.seconds(start, end) * REFERENCE_S / speed
