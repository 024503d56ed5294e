"""Machine-speed reference for the end-to-end timings.

On a shared VM the core's speed drifts by tens of percent, for seconds to
minutes at a time, and the process's CPU time drifts with its wall time, so
the slowdown is not time spent descheduled and no clock removes it.  The
benchmark therefore times two fixed loops of its own between frames: a
pure-Python loop and a numpy copy-and-scale over 4 MB arrays, which slow
down unlike each other.  Each measured time is scaled by

    sqrt(PYTHON_MS / python_local * MEMORY_MS / memory_local)

where ``*_local`` is the median of the samples of that loop nearest to the
time.  A time so scaled reads "at reference speed": on a machine where the
loops take exactly ``PYTHON_MS`` and ``MEMORY_MS`` it is the wall time.  A
change to the program moves the scaled time as it moves the wall time, while
a change in the machine's speed slows the loops and the frames alike and
mostly cancels.  The report line keeps the raw wall times and the loops' own
medians beside them.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

PYTHON_MS = 1.4  # the loops' times at reference speed
MEMORY_MS = 1.2
PYTHON_STEPS = 20_000
MEMORY_ELEMS = 500_000  # float64: 4 MB an array
MEMORY_PASSES = 2
SAMPLE_EVERY_NS = 100_000_000  # between frames, at most one sample per 100 ms
NEAREST = 15  # samples in each local median


def python_loop() -> int:
    total = 0
    for k in range(PYTHON_STEPS):
        total += k * k % 7
    return total


class SpeedProbe:
    """Loop samples taken between frames, and the scale factors they give."""

    def __init__(self):
        self.src = np.ones(MEMORY_ELEMS)
        self.dst = np.empty_like(self.src)
        self.at_ns: list[int] = []
        self.python_ns: list[int] = []
        self.memory_ns: list[int] = []

    def memory_loop(self) -> None:
        for _ in range(MEMORY_PASSES):
            np.copyto(self.dst, self.src)
            np.multiply(self.dst, 2.0, out=self.dst)

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter_ns()
            python_loop()
            t1 = perf_counter_ns()
            self.memory_loop()
            t2 = perf_counter_ns()
            self.at_ns.append(t1)
            self.python_ns.append(t1 - t0)
            self.memory_ns.append(t2 - t1)

    def maybe_sample(self) -> None:
        """Sample unless the last one was taken less than 100 ms ago."""
        if not self.at_ns or perf_counter_ns() - self.at_ns[-1] >= SAMPLE_EVERY_NS:
            self.sample()

    def scale(self, at_ns) -> np.ndarray:
        """Factor to reference speed for times centred on each of ``at_ns``."""
        at = np.asarray(self.at_ns)
        k = min(NEAREST, len(at))
        lo = np.clip(np.searchsorted(at, np.asarray(at_ns)) - k // 2, 0, len(at) - k)
        factor = np.ones(len(lo))
        for loop_ns, ref_ms in ((self.python_ns, PYTHON_MS), (self.memory_ns, MEMORY_MS)):
            loop = np.asarray(loop_ns, dtype=float)
            local = np.array([np.median(loop[i : i + k]) for i in lo])
            factor *= ref_ms * 1e6 / local
        return np.sqrt(factor)

    def medians_ms(self) -> dict:
        return {
            "python": float(np.median(self.python_ns)) / 1e6,
            "memory": float(np.median(self.memory_ns)) / 1e6,
            "reference": {"python": PYTHON_MS, "memory": MEMORY_MS},
            "samples": len(self.at_ns),
        }
