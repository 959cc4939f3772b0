"""Machine-speed correction for timings taken on a shared, noisy machine.

On a machine shared with other work the same pass can take 2.2 s or 3.4 s,
because the speed of the core drifts on a scale of seconds.  To take that
drift out, a fixed pure-Python kernel is timed every PERIOD seconds while
the program runs (from a SIGALRM handler, so in the same thread and on the
same core as the work).  A timing over [t0, t1] is then reported as

    (t1 - t0 - kernel time inside [t0, t1]) * mean(REFERENCE / k)

over the kernel times k sampled within WINDOW seconds of the interval: the
seconds it would take on a machine where the kernel takes REFERENCE
seconds.  The kernel does not touch admcalc, so a change to the program
moves the corrected timing as much as the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.01  # seconds between kernel runs; the kernel costs about 2% of the time
WINDOW = 0.1  # seconds around a timed interval whose kernel samples correct it
REFERENCE = 2.0e-4  # kernel seconds the corrected timings are scaled to


def kernel() -> float:
    """Seconds taken by a fixed bit of rational arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, 2 * k + 1)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel every PERIOD seconds between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), kernel()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean of REFERENCE / kernel time near [t0, t1] (or over everything)."""
        near = [k for s, k in self.samples if t0 - WINDOW <= s <= t1 + WINDOW]
        return statistics.fmean(REFERENCE / k for k in near or [k for _, k in self.samples])

    def corrected(self, t0: float, t1: float) -> float:
        inside = sum(k for s, k in self.samples if t0 <= s <= t1)
        return (t1 - t0 - inside) * self.factor(t0, t1)


def corrected_once(seconds: float) -> float:
    """Correct a timing taken just before, by 30 kernel runs taken right after."""
    return seconds * statistics.fmean(REFERENCE / kernel() for _ in range(30))
