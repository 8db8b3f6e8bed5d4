"""The machine's speed, sampled from inside the timed thread while a pass runs.

The benchmark runs on a few cores of a shared host whose speed shifts by up
to half between regimes lasting seconds to minutes, so raw pass times of the
same code spread more than any useful bound.  ``SpeedProbe`` rescales them:
while it runs, a wall-clock timer interrupts the timed thread every
``interval`` seconds and times a fixed probe of about 1.5 ms.  A pass's
normalised time is its wall time, less the probe's own time, times
``NOMINAL_PROBE_S`` over the probe's trimmed mean time in that pass: the
seconds the pass would take on a machine whose probe takes
``NOMINAL_PROBE_S``.  The probe is fixed code, so a change that makes
nlslab faster lowers the normalised time in proportion.  The host's regimes
slow nlslab's workloads by somewhat different shares than the probe, so
part of the spread remains; the benchmark's bounds allow for it.

The handler runs between bytecodes, so a long numpy call delays a sample to
its end; samples still fall throughout the pass.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

#: Probe seconds on the reference machine, about its time on the 2-vCPU host
#: the benchmark was tuned on; it only sets the scale of the normalised times.
NOMINAL_PROBE_S = 1.5e-3
TRIM = 0.1  # share of samples dropped at each end before the mean

_SUMMED = np.ones(100_000)
_SMALL = np.arange(3_600, dtype=np.int64)


def probe() -> float:
    """Seconds for the fixed probe work: a piece of each kind of work nlslab
    does, since the host's regimes slow each kind by a different share."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4_000):  # interpreted integer arithmetic
        acc = (acc + i * i) % 1_000_003
    x = Fraction(1, 3)
    for i in range(1, 60):  # exact rationals, as in the lattice counts
        x = x * Fraction(i, i + 7) + Fraction(1, i)
    for _ in range(20):  # many small numpy calls, as in the plane histograms
        d = (3 * _SMALL - 5) ** 2
        np.bincount(d[d < 10_000_000] // 9_000, minlength=1_000)
    for _ in range(4):  # a streaming reduction
        _SUMMED.sum()
    return time.perf_counter() - t0


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share."""
    if not values:
        raise ValueError("no probe samples")
    v = sorted(values)
    k = int(len(v) * trim)
    v = v[k:len(v) - k]
    return sum(v) / len(v)


class SpeedProbe:
    """Samples ``probe()`` on SIGALRM between ``start`` and ``stop``."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.wall = 0.0  # wall seconds spent in the handler
        self.cpu = 0.0  # process CPU seconds spent in the handler

    def _handler(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from this pass's seconds to seconds on the reference machine."""
        return NOMINAL_PROBE_S / trimmed_mean(self.samples)
