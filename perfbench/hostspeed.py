"""Host-speed probe: how much slower than nominal the host ran an operation.

On a shared host the CPU speed a process gets swings by tens of percent in
bursts of seconds, and the share of slow time drifts over minutes, so the
raw time of the same operation drifts with it.  ``HostSpeed`` measures the
host alongside the program: a ``SIGALRM`` timer interrupts the main thread
every ``PERIOD_S`` and times a fixed piece of pure-Python work (the probe),
which touches no gridmon code and no memory of the program's.  An
operation's *slowdown* is the mean probe time while it ran over
``NOMINAL_S``; the end-to-end times are the raw times divided by it, that
is, host seconds at nominal host speed.

No thread or process is started; the probe runs between the program's
bytecodes, and costs under 1 % of the run, the same on every commit.

Run this module to print the probe's time on the current host:
    python3 perfbench/hostspeed.py
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

PERIOD_S = 0.02
# A phase shorter than this many periods takes the whole operation's figure.
MIN_SAMPLES = 3
# Near the probe's time inside a running operation when the host the
# benchmark was recorded on (2 cores of a shared x86-64 host, Python
# 3.11.7) ran fastest.  It only sets the scale of the adjusted times.
NOMINAL_S = 200e-6

_P = 2**256 - 2**32 - 977  # the secp256k1 field prime


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _rotl(word: int, by: int) -> int:
    return ((word << by) | (word >> (32 - by))) & 0xFFFFFFFF


def probe() -> float:
    """Seconds taken by one fixed batch of work of the kinds gridmon does:
    field multiplications, 32-bit word rotations, and a heap of small
    objects pushed and popped."""
    start = time.perf_counter()
    x = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
    for _ in range(60):
        x = x * x % _P
    word = 0x9E3779B9
    for i in range(200):
        word = _rotl(word ^ i, i & 31)
    heap: list = []
    for i in range(150):
        heapq.heappush(heap, (i * 7919 % 150, i, _Item(i, word)))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class HostSpeed:
    """Samples the probe every ``PERIOD_S`` while active (a context manager)."""

    def __init__(self) -> None:
        # (perf_counter when the probe started, probe seconds)
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """Start of an operation: the index of its first sample and its
        start time.  Probes once, so every operation has a sample."""
        since = len(self.samples)
        self._sample()
        return since, self.samples[since][0]

    def slowdown(self, since: int, begin: float = -math.inf, end: float = math.inf) -> float:
        """Mean probe time over ``NOMINAL_S``, for the samples from index
        ``since`` taken between ``begin`` and ``end`` (perf_counter times),
        or for all samples from ``since`` if fewer than ``MIN_SAMPLES`` were.

        A sample is capped at four times the median, so one probe the
        process was descheduled in does not set the figure.
        """
        window = [s for t, s in self.samples[since:] if begin <= t <= end]
        if len(window) < MIN_SAMPLES:
            window = [s for _, s in self.samples[since:]]
        cap = 4 * statistics.median(window)
        return statistics.fmean(min(s, cap) for s in window) / NOMINAL_S


if __name__ == "__main__":
    times = sorted(probe() for _ in range(5000))
    print(f"probe: median {statistics.median(times) * 1e6:.1f} us, "
          f"5th percentile {times[len(times) // 20] * 1e6:.1f} us, "
          f"nominal {NOMINAL_S * 1e6:.1f} us")
