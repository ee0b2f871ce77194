"""Host-speed calibration, so that timings on a shared host repeat.

On a virtual machine that shares its host, the speed of one process can
change by a factor of two within seconds, as neighbours start and stop.
Averages over a run do not remove that: a run of half a minute often sits
wholly in a slow or a fast period. So the benchmark measures the host's
speed during each timed interval and reports the interval's time at a fixed
reference speed.

A ``Sampler`` runs a small fixed kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds, in the measured process and thread, and records how
long each run of the kernel took. The kernel is exact ``Fraction``
arithmetic with growing integers, which is what the program spends its time
on too, so it slows down with the program when the host is busy. It uses the
standard library only, so no change to the program can speed it up.

``Sampler.scaled(start, end)`` is the interval's time less the time spent in
the kernel, multiplied by ``REFERENCE_S`` over the harmonic mean of the
kernel times sampled in it: the time the interval would take on a host where
the kernel takes ``REFERENCE_S``. The harmonic mean weighs the samples by
the speed they measure, and lets a sample stretched by a rare interrupt count
little. An interval that holds fewer than ``MIN_SAMPLES`` samples borrows the
samples nearest its middle.
"""
from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import Iterator

INTERVAL_S = 0.05
KERNEL_TERMS = 150
# About the kernel's time inside a benchmark run on a 2-vCPU Xeon virtual
# machine in a quiet period. It only fixes the unit of the scaled times; both
# sides of a comparison use the same one.
REFERENCE_S = 0.0005
MIN_SAMPLES = 8


def kernel() -> Fraction:
    """A fixed sum of fractions, with integers of a few hundred bits."""
    total = Fraction(1, 3)
    for i in range(1, KERNEL_TERMS):
        total = total + Fraction(i, 7 * i + 1)
    return total


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` seconds while ``running``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame) -> None:
        # The collector's state belongs to the program; keep it out.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            self.samples.append((start, perf_counter() - start))
        finally:
            if collecting:
                gc.enable()

    @contextmanager
    def running(self) -> Iterator["Sampler"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would take at the reference speed."""
        inside = [s for s in self.samples if start <= s[0] and s[0] + s[1] <= end]
        window = inside
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2
            window = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            window = window[:MIN_SAMPLES]
        if not window:
            raise ValueError("no host-speed samples were taken")
        harmonic = len(window) / sum(1.0 / seconds for _, seconds in window)
        busy = sum(seconds for _, seconds in inside)
        return (end - start - busy) * REFERENCE_S / harmonic
