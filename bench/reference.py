"""A fixed reference computation that tracks how fast the machine runs now.

On a shared machine other tenants switch the core between a fast and a slow
state (about 1.6 times slower) every few milliseconds, and the share of slow
time drifts by tens of percent from one minute to the next.  A call that
lasts longer than a few milliseconds sees the average state over its span;
a shorter call sees one state.  :class:`SpeedMeter` times this kernel
around every call and scales each call's latency to the kernel's nominal
speed, by the kernel runs on both sides of it.

The kernel does the same kind of work as the package's inner loops (small
complex eigen-solves, Kronecker products and traces, driven from Python) and
never calls the package, so a change to the package cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's mean time on the 2-core machine the benchmark's bounds were
# set on (Python 3.11, numpy 2.4); latencies are reported at this speed
NOMINAL_S = 3.3e-3
# one kernel run per this much call time after a call, so a longer call is
# compared with a longer stretch of machine state
SAMPLE_EVERY_S = 0.02
MAX_SAMPLES_PER_CALL = 25

_rng = np.random.default_rng(20261017)
_G = _rng.standard_normal((60, 3, 3)) + 1j * _rng.standard_normal((60, 3, 3))
_EYE2 = np.eye(2)


def kernel() -> float:
    total = 0.0
    for g in _G:
        h = 0.5 * (g + g.conj().T)
        w, v = np.linalg.eigh(h)
        s = (v * np.sign(w)) @ v.conj().T
        k = np.kron(s, _EYE2)
        total += float(np.trace(k @ k).real)
    return total


def timed() -> float:
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedMeter:
    """Kernel timings taken between calls, and the scaling they imply."""

    # calls shorter than this are timed as the mean of back-to-back repeats
    short_call_s = 2e-3

    def __init__(self):
        self.samples: list[float] = []
        self._before: list[float] = []

    def before_call(self) -> None:
        if not self._before:
            self._before = [timed()]
            self.samples.extend(self._before)

    def after_call(self, latency: float) -> float:
        """Time the kernel after a call; returns the reference for that call.

        A call shorter than the kernel is compared with the kernel runs just
        before and just after it, which most likely saw the same machine
        state; a longer call with the mean of all kernel runs on both sides.
        """
        count = min(1 + int(latency / SAMPLE_EVERY_S), MAX_SAMPLES_PER_CALL)
        after = [timed() for _ in range(count)]
        self.samples.extend(after)
        if latency < NOMINAL_S:
            ref = 0.5 * (self._before[-1] + after[0])
        else:
            ref = statistics.fmean(self._before + after)
        self._before = after
        return ref

    def nominal(self, latency: float, ref: float) -> float:
        """A call's latency at the kernel's nominal speed."""
        return latency * NOMINAL_S / ref

    def mean(self) -> float:
        return statistics.fmean(self.samples)
