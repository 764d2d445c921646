"""A fixed reference kernel that measures how fast the host is right now.

On a shared machine the same pass can take twice as long from one minute
to the next while CPU time tracks wall time, so the slowdown comes from
the host, not from the program. The kernel below uses none of factoidlab
and mixes the same kinds of work a trial does (Python dicts, tuples, sets
and method calls on ints; numpy sorts, cumulative sums and searches).
Timing it just before and just after each pass, and dividing by its time
on the defining machine, gives the host's slowdown factor during that
pass; run.py rescales each pass's wall-clock time by it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on (2-core
# x86_64 Linux container, Python 3.11, numpy 2.4) while it ran fast.
NOMINAL_S = 0.012


class _TypedRanges:
    """Two index ranges sharing index 0, each mapped to local indices: the
    shape of the per-type projection a multi-type trial makes."""

    def __init__(self, size: int) -> None:
        self.sizes = (size, size)

    def start(self, i: int) -> int:
        return 1 + sum(s - 1 for s in self.sizes[:i])

    def span(self, i: int) -> range:
        start = self.start(i)
        return range(start, start + self.sizes[i] - 1)

    def local(self, i: int, y: int) -> int:
        if y == 0:
            return 0
        if y not in self.span(i):
            raise ValueError(y)
        return y - self.start(i) + 1


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20231124)
        self._ranges = _TypedRanges(10**7)
        self._keys = rng.integers(1, 2 * 10**7 - 1, 4000).tolist()
        self._small = rng.random(3000)
        self._big = rng.random(200_000)

    def _kernel(self) -> int:
        counts: dict[int, int] = {}
        for k in self._keys:
            counts[k] = counts.get(k, 0) + 1
        seen = frozenset(counts)
        hits = 0
        for i in (0, 1):
            span = self._ranges.span(i)
            local = tuple(self._ranges.local(i, y) if y in span else 0 for y in self._keys)
            weights: dict[int, int] = {}
            for y in local:
                weights[y] = weights.get(y, 0) + 1
            ordered = sorted(weights.items())
            np.fromiter((c / 2.0 for _, c in ordered), dtype=np.float64, count=len(ordered))
            hits += sum(1 for y, c in ordered if c == 1 and y in seen)
        for _ in range(20):
            a = np.sort(self._small)
            np.cumsum(a)
            np.searchsorted(a, self._small[:300])
        np.sort(self._big)
        return hits

    def slowdown(self, repeats: int = 5) -> float:
        """Median kernel time now over its nominal time (> 1: slow host)."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / NOMINAL_S
