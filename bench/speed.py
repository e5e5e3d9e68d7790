"""Machine-speed sampling, so timings compare across a noisy host.

The 2-vCPU VM this benchmark was built on runs each vCPU at one of a few
speeds at a time (a fixed loop takes 3.2, 5.4 or 6.4 ms), switching every
fraction of a second to every few minutes, independently per vCPU. Whole
runs can sit in a slow state, so neither medians nor minima over
repetitions make wall times comparable between runs.

So the benchmark pins itself, and every process it starts, to one vCPU,
and while the package works a ``SpeedSampler`` runs a short fixed loop
from a timer signal. A phase's normalised time is its wall time, less the
time spent sampling, times the mean over its samples of ``reference /
loop time``: the time it would have taken at the reference speed. The
slow states slow interpreter-bound and memory-bound code by different
amounts, so there are two loops and each workload names the one shaped
like its own work:

* ``interpreter``: small numpy operations driven from Python, as in
  per-dialogue scoring. For 8 repetitions of one noise-experiment seed it
  cut the coefficient of variation of the repetition time from 6.4 % to
  0.9 %.
* ``vector``: Adam-like elementwise passes over a 640k-entry vector, as in
  the large-vocab step. For 8 large-vocab co-teaching runs it cut the
  coefficient of variation from 7.0 % to 2.6 % (the interpreter loop: 7.9 %).

The loops do not use the coteach package, so a change to the package
cannot move the yardstick.
"""

from __future__ import annotations

import functools
import os
import signal
import statistics
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

_RNG = np.random.default_rng(0)
_E = _RNG.uniform(-0.1, 0.1, (1000, 16))
_W = _RNG.uniform(-0.1, 0.1, (16, 16))
_IDS = [_RNG.integers(0, 1000, 10) for _ in range(64)]


def interpreter_loop(iterations: int = 200) -> float:
    """Seconds per iteration of small numpy operations driven from Python."""
    t0 = perf_counter()
    for i in range(iterations):
        u = _E[_IDS[i % 64]].mean(axis=0)
        float(u @ (_W @ u))
    return (perf_counter() - t0) / iterations


class _AdamLike:
    """Adam-like elementwise passes over a 640k-entry vector, allocating a
    fresh array per operation as numpy code does; the step it mimics
    spends much of its time in those allocations and page faults."""

    def __init__(self):
        self.g = np.random.default_rng(1).standard_normal(640_000)
        self.m = np.zeros_like(self.g)
        self.v = np.zeros_like(self.g)

    def __call__(self, iterations: int = 2) -> float:
        t0 = perf_counter()
        for _ in range(iterations):
            self.m = 0.9 * self.m + 0.1 * self.g
            self.v = 0.999 * self.v + 0.001 * self.g * self.g
            p = self.g - 1e-3 * self.m / (np.sqrt(self.v) + 1e-8)
            bool(np.all(np.isfinite(p)))
        return (perf_counter() - t0) / iterations


@functools.cache
def _adam_like() -> _AdamLike:
    return _AdamLike()


def vector_loop() -> float:
    """Seconds per Adam-like pass over a 640k-entry vector."""
    return _adam_like()()


class Kernel(NamedTuple):
    loop: Callable[[], float]
    reference_s: float  # loop time at a fast state of that host; only scales
    interval_s: float   # sampling period; keeps sampling to about 3-6 %


KERNELS = {
    "interpreter": Kernel(interpreter_loop, 6.4e-6, 0.05),
    "vector": Kernel(vector_loop, 6.2e-3, 0.2),
}


class SpeedSampler:
    """Samples ``reference_s / loop time`` of some kernels periodically.

    Runs from SIGALRM, so samples land between the package's bytecodes
    wherever it is; each kernel is sampled at its own interval.
    ``overhead_s`` totals the time spent sampling, which the timings leave
    out. Use as a context manager.
    """

    def __init__(self, kernels=("interpreter",)):
        self.kernels = {name: KERNELS[name] for name in kernels}
        self.factors: dict[str, list[float]] = {name: [] for name in kernels}
        self.overhead_s = 0.0
        self._tick = min(k.interval_s for k in self.kernels.values())
        self._ticks = 0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        for name, kernel in self.kernels.items():
            if self._ticks % round(kernel.interval_s / self._tick) == 0:
                self.factors[name].append(kernel.reference_s / kernel.loop())
        self._ticks += 1
        self.overhead_s += perf_counter() - t0

    def __enter__(self):
        for kernel in self.kernels.values():
            kernel.loop()  # warm-up: first-call allocations are not speed
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self._tick, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[dict, float]:
        return {k: len(f) for k, f in self.factors.items()}, self.overhead_s

    def since(self, mark: tuple[dict, float],
              kernel: str = "interpreter") -> tuple[float, float]:
        """(mean factor of ``kernel``, seconds spent sampling) since
        ``mark``. A span too short to hold a sample gets the samples just
        before and after it."""
        counts, overhead = mark
        overhead = self.overhead_s - overhead
        factors, count = self.factors[kernel], counts[kernel]
        if len(factors) == count:
            t0 = perf_counter()
            factors.append(self.kernels[kernel].reference_s
                           / self.kernels[kernel].loop())
            self.overhead_s += perf_counter() - t0
            count = max(count - 1, 0)
        return statistics.fmean(factors[count:]), overhead

    def mean(self, kernel: str = "interpreter") -> float:
        return statistics.fmean(self.factors[kernel])


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one vCPU, so the
    samples and the timed work always share a vCPU state."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
