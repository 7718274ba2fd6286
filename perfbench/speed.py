"""Host-speed reference interleaved with the timed operations.

The cores of a shared host switch between fast and slow states (the
loop below took 12-14 ms or 19-22 ms), and the share of time in the
slow state drifts over minutes.  A run's wall times follow that drift:
the median study latency of eight runs of the same code spread 30 %
between quartiles.  So the benchmark times a fixed pure-Python
loop between operations, on the same core and in the same process as
the caller (on every core in turn, keeping the slowest, where the
operations run on all of them), and expresses every timed operation in
seconds of a core running at :data:`NOMINAL_REFERENCE_S` per loop: an
operation's wall time is scaled by the nominal loop time over the mean
of the loops just before and just after it.  Set-up times are scaled
the same way, by loops run just before the launch and just after the
ready point.  The raw wall figures are printed next to the scaled ones.
"""

from __future__ import annotations

import os
import time

#: Iterations of the reference loop: 8.5-22 ms on the host below.
REFERENCE_ITERATIONS = 300_000

#: A fixed scale: the reference loop's time on a fast core of the
#: 2-CPU x86 host the benchmark was calibrated on.  Scaled timings are
#: seconds on a core of that speed.
NOMINAL_REFERENCE_S = 0.0135


def reference_s(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return time.perf_counter() - started


def slowest_cpu_s() -> float:
    """The reference loop on each CPU this process may use: the slowest.

    For operations spread over every CPU (the pool workers), which take
    as long as their slowest part.  The process's CPU set is restored
    afterwards.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return max(times)


class SpeedProbe:
    """Reference loops between the operations of one caller.

    Call :meth:`before_op` before each operation and :meth:`finish`
    after the last.  A loop runs before an operation when ``every_s``
    seconds have passed since the previous loop ended, so operations
    shorter than that share their brackets.
    """

    def __init__(self, every_s: float = 0.0, loop=reference_s) -> None:
        self.every_s = every_s
        self.loop = loop
        #: Loop times, in the order they ran.
        self.samples: list[float] = []
        #: Per operation, the index of the last loop before it.
        self.at: list[int] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(self.loop())
        self._last = time.perf_counter()

    def before_op(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()
        self.at.append(len(self.samples) - 1)

    def finish(self) -> None:
        self.sample()

    def record(self) -> dict:
        return {"samples": self.samples, "at": self.at}


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` on a core of the nominal speed, given the loop times
    just before and just after them."""
    return seconds * NOMINAL_REFERENCE_S / ((before + after) / 2)


def scaled(latencies: list[float], record: dict) -> list[float]:
    """Latencies in seconds on a core of the nominal speed."""
    samples, at = record["samples"], record["at"]
    return [scale(latency, samples[index], samples[index + 1])
            for latency, index in zip(latencies, at)]
