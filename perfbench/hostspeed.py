"""Host speed, measured by timing a fixed pure-Python loop between ops.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores cut their speed by up to a half, for seconds to
minutes at a time, without any steal time showing in ``/proc/stat``: ops
and a loop timed beside them in the same thread slow down together.  The
harness therefore times ``reference_loop`` before each pass and after any
op that ends ``INTERVAL`` seconds or more after the last timing, and
reports a time measured in a phase at the host speed at which the loop
takes ``REFERENCE_S``: the measured time multiplied by ``scale()``, that
is ``REFERENCE_S / median(loop times)``.  The times as measured and the
loop's median are printed beside the rescaled ones.

The loop does the kind of work the searches do (tuple keys, set and dict
lookups, a heap) and touches no ``pigeonpost`` code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

# Median time of one reference_loop call on the 2-vCPU, 2.1 GHz VM the
# benchmark was written on, Python 3.11.7, at a quiet moment.
REFERENCE_S = 0.002
INTERVAL = 0.1


def reference_loop() -> int:
    seen = set()
    counts = {}
    heap = []
    for i in range(3000):
        key = ((i * 7919) % 1021, i % 7)
        if key not in seen:
            seen.add(key)
            heapq.heappush(heap, key)
        counts[key[1]] = counts.get(key[1], 0) + key[0]
    return sum(heapq.heappop(heap)[0] for _ in range(len(heap) // 2)) + len(counts)


class HostSpeed:
    """Loop times of one phase of a run, and the time they took."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the loop, to leave out of pass wall times
        self.last = float("-inf")

    def probe(self) -> None:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.times.append(end - start)
        self.spent += end - start
        self.last = end

    def maybe_probe(self) -> None:
        if perf_counter() - self.last >= INTERVAL:
            self.probe()

    def loop_s(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor that turns a time measured in this phase into reference-speed seconds."""
        return REFERENCE_S / self.loop_s()
