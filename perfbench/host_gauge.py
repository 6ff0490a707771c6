"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark's host is a small VM on a shared machine whose speed
drifts by up to 2x over seconds to minutes, with CPU time rising along
with wall time (it is not stolen time, so a CPU clock does not help).
``run.py`` times this loop right after every timed segment and divides
the segment's time by it, so a slow spell of the host slows both and
cancels out of the ratio.

The loop is a small discrete-event simulation in the same style as the
program's (a heap of timestamped generator processes, each appending
slotted records to a log), so it leans on the same interpreter paths
and caches, but it shares no code with ``repro``: a change to the
program cannot change the gauge. The cyclic GC is off while it runs,
so GC settings the program makes do not reach it either.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

#: The scale that turns a segment-to-gauge ratio back into seconds. A
#: constant, so it only scales the reported figures (one gauge run took
#: 0.1 s to 0.18 s on a 2-vCPU Intel Xeon VM, Python 3.11.7).
REFERENCE_S = 0.1


class _Record:
    __slots__ = ("start", "proc", "step", "kind", "meta")

    def __init__(self, start, proc, step, kind, meta):
        self.start = start
        self.proc = proc
        self.step = step
        self.kind = kind
        self.meta = meta


def _simulate(n_procs: int = 128, steps: int = 250) -> int:
    rng = random.Random(7)
    heap: list[tuple[float, int, int]] = []
    log: list[_Record] = []
    now = [0.0]

    def process(i: int):
        for k in range(steps):
            yield rng.lognormvariate(-3.5, 0.8)
            write = k % 10 == 0
            log.append(_Record(now[0], i, k, "write" if write else "compute",
                               {"key": f"p{i}-{k}"} if write else None))

    procs = [process(i) for i in range(n_procs)]
    seq = 0
    for i, proc in enumerate(procs):
        heapq.heappush(heap, (next(proc), seq, i))
        seq += 1
    while heap:
        t, _, i = heapq.heappop(heap)
        now[0] = t
        try:
            delay = next(procs[i])
        except StopIteration:
            continue
        heapq.heappush(heap, (t + delay, seq, i))
        seq += 1
    return len(log)


def gauge() -> float:
    """Host seconds one fixed run of the gauge loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _simulate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
