"""Host-speed probe: a fixed pure-Python kernel the benchmark times between passes.

The kernel is shaped like the simulator's hot loop: a heap of timed
events, small slotted objects, and a 64k-entry dict looked up like a
page table.  It imports nothing from the repository and runs with the
garbage collector off, so no change to the simulator can make it faster
or slower.  Only the host's own speed moves it.
"""

from __future__ import annotations

import gc
import heapq
import time

TABLE_BITS = 16
MASK = (1 << TABLE_BITS) - 1
UNITS = 256
#: Events per repetition: about 22 ms on a 2-vCPU Xeon VM.
EVENTS = 12_000


class Unit:
    __slots__ = ("key", "served")

    def __init__(self, key: int) -> None:
        self.key = key
        self.served = 0


TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1 << TABLE_BITS)}


def kernel(events: int = EVENTS) -> int:
    units = [Unit(i * 40503) for i in range(UNITS)]
    heap = [(i, i, unit) for i, unit in enumerate(units)]
    heapq.heapify(heap)
    seq = len(heap)
    total = 0
    for _ in range(events):
        when, _, unit = heapq.heappop(heap)
        value = TABLE[(unit.key * 31 + when) & MASK]
        total += value
        unit.served += 1
        seq += 1
        heapq.heappush(heap, (when + (value & 15) + 1, seq, unit))
    return total


def timed(reps: int) -> list[float]:
    """Host seconds of each of ``reps`` kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(reps):
            started = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - started)
        return out
    finally:
        if enabled:
            gc.enable()
