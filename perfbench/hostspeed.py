"""Host-speed correction for the end-to-end timings.

The benchmark runs on virtual CPUs of a shared host.  There the speed of
identical single-threaded work drifts by a factor of up to 1.5 over tens of
seconds to minutes, in wall and in CPU time alike, as other tenants load the
host.  A pass of one workload takes 15 to 40 seconds, so two runs of the
same code can differ by a quarter from that alone.

``HostSpeed`` measures the drift while the benchmark runs.  A wall-clock
timer interrupts the main thread ten times a second, and the signal handler
times a fixed reference unit: pure-Python ``Fraction`` arithmetic, the kind
of work that takes most of hopfexact's time, which does not call hopfexact.
``corrected(start, end)`` takes the time of an interval, removes the time
the handler spent inside it, and scales the rest by ``NOMINAL_UNIT_S`` over
the reference unit's mean time around the interval.  The result estimates
how long the interval would have taken on the host at its nominal speed.  A
change to hopfexact moves it as it moves the raw time; a slow spell of the
host moves the reference unit as well and cancels out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

clock = time.perf_counter

INTERVAL_S = 0.1
# iterations of the reference unit, about 0.9 ms
UNIT_STEPS = 150
# the reference unit's typical time on the host the baseline was measured
# on (2-vCPU Intel Xeon virtual machine, CPython 3.11.7); it sets the scale
# of corrected times only, not their spread
NOMINAL_UNIT_S = 0.00089
# an interval shorter than this is scaled by the samples within this much
# of its ends as well
MARGIN_S = 0.5
# share of samples dropped at each end before averaging: a sample the
# scheduler interrupted can read ten times too slow
TRIM = 0.1


def reference_unit() -> None:
    x, s = Fraction(1, 3), Fraction(0)
    for i in range(1, UNIT_STEPS):
        s = s + x * Fraction(i, i + 1)


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut:len(values) - cut] if cut else values
    return sum(kept) / len(kept)


class HostSpeed:
    """While active (``with HostSpeed() as host:``), samples the reference
    unit ten times a second."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = clock()
        reference_unit()
        self.samples.append((start, clock() - start))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """The reference unit's mean time around ``[start, end]`` over its
        nominal time."""
        near = [d for s, d in self.samples
                if start - MARGIN_S <= s < end + MARGIN_S]
        if len(near) < 3:
            near = [d for _, d in self.samples]
        return trimmed_mean(near) / NOMINAL_UNIT_S

    def corrected(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` at nominal host speed, without
        the time the sampler spent inside it."""
        sampling = sum(d for s, d in self.samples if start <= s < end)
        return (end - start - sampling) / self.slowdown(start, end)
