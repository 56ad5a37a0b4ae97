"""Small numeric and process-memory helpers shared by the benchmark."""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
from array import array
from time import perf_counter
from typing import List, Sequence


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (linear interpolation, inclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class HostProbe:
    """How slow the host is right now, as this process sees it.

    The calibration box is a small VM whose speed moves by up to 1.8x
    within a minute (README.md, *Noise control*): the same ten seeds
    run twice read medians 25 % apart.  One probe is a fixed pure-Python
    loop of random reads over an array larger than the last-level cache
    -- the kind of work the search kernel does, in code no change to
    the program can touch.  Probes run between the measured reads, and
    the read-time metrics are divided by the :meth:`slowdown`, so they
    read as on the box when it is quiet.  (A loop of arithmetic alone
    tracked the slowdown half as well: what varies is memory latency.)
    """

    ACCESSES = 4000
    #: Seconds one probe takes on the calibration box when it is quiet.
    REFERENCE_S = 1.0e-3

    def __init__(self) -> None:
        self._slots = array("q", range(4_000_000))  # 32 MB
        self._position = 1
        self.samples: List[float] = []

    def sample(self, count: int = 3) -> None:
        slots, size, position = self._slots, len(self._slots), self._position
        for _ in range(count):
            started = perf_counter()
            total = 0
            for _ in range(self.ACCESSES):
                position = (position * 48261 + 11) % size
                total += slots[position]
            self.samples.append(perf_counter() - started)
        self._position = position

    def slowdown(self) -> float:
        """Median probe time over the reference time."""
        return statistics.median(self.samples) / self.REFERENCE_S


def rss_now_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Sum of the live child processes' high-water marks (the forked
    shard workers; ``RUSAGE_CHILDREN`` only covers reaped children)."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total
