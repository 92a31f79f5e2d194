"""Sectored set-associative cache with miss merging.

Models the GPU L2 data cache: 128B lines split into 32B sectors, LRU
replacement, and an MSHR file that merges accesses to a sector that is
already being fetched.  Timing is timestamp-based: ``access`` returns
the cycle at which the requested sector is available, issuing a DRAM
access for misses.  Page-table entries are cached here (and only here,
following the paper's footnote 2), so page-walk cost is priced by real
cache behaviour.

State layout
============
``access`` is the single hottest component method in ``repro profile``
runs, so all state is flat per-slot arrays indexed by
``slot = set_index * ways + way``:

* ``_slot_of`` — one dict mapping a resident line address to its slot.
* ``_line_of`` — slot -> line address (``-1`` when the way is empty).
* ``_ready`` — slot -> ``{sector: cycle its data is (or will be)
  valid}`` of the resident line.
* ``_used`` — per-slot LRU state: the last-use tick of a resident line,
  ``-1`` for an empty way.  Every access draws a fresh tick, so ticks
  are unique and a set's victim is its argmin: an empty way first, else
  the least recently used line.
"""

from __future__ import annotations

import heapq

from repro.config import CacheConfig
from repro.memory.dram import DRAM
from repro.sim.stats import StatsRegistry


class SectoredCache:
    """Set-associative sectored cache in front of a next-level port.

    ``next_level`` needs one method, ``access(address, start) -> completion``
    — DRAM provides it directly, and an L2 cache can be adapted behind the
    same interface so the class also serves as the per-SM L1D.
    """

    def __init__(
        self,
        config: CacheConfig,
        next_level: DRAM,
        stats: StatsRegistry,
        *,
        name: str = "l2d",
    ) -> None:
        self.config = config
        self.next_level = next_level
        self.stats = stats
        self.name = name
        self._num_sets = config.num_sets
        self._ways = config.associativity
        num_slots = self._num_sets * self._ways
        self._slot_of: dict[int, int] = {}
        self._line_of: list[int] = [-1] * num_slots
        self._ready: list[dict[int, int] | None] = [None] * num_slots
        self._used: list[int] = [-1] * num_slots
        self._tick = 0
        #: Min-heap of outstanding miss completion times (MSHR occupancy).
        self._outstanding: list[int] = []
        self._counts = stats.counters.live()
        self._c_accesses = f"{name}.accesses"
        self._c_merges = f"{name}.merges"
        self._c_hits = f"{name}.hits"
        self._c_sector_misses = f"{name}.sector_misses"
        self._c_misses = f"{name}.misses"
        self._c_mshr_full = f"{name}.mshr_full"
        self._c_evictions = f"{name}.evictions"

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, address: int, now: int) -> tuple[int, bool]:
        """Read one sector.  Returns ``(completion_cycle, was_hit)``.

        A "hit" means the sector was already resident or being fetched
        (miss-merge); a miss allocates and fetches from DRAM.
        """
        config = self.config
        line_bytes = config.line_bytes
        line_addr = address // line_bytes
        sector = (address % line_bytes) // config.sector_bytes
        self._tick += 1
        lookup_done = now + config.latency
        counts = self._counts
        counts[self._c_accesses] += 1

        slot = self._slot_of.get(line_addr)
        if slot is not None:
            self._used[slot] = self._tick
            sector_ready = self._ready[slot]
            ready = sector_ready.get(sector)
            if ready is not None:
                if ready > lookup_done:
                    counts[self._c_merges] += 1
                    return ready, True
                counts[self._c_hits] += 1
                return lookup_done, True
            # Line resident but sector absent: sector miss.
            completion = self._fetch(address, lookup_done)
            sector_ready[sector] = completion
            counts[self._c_sector_misses] += 1
            return completion, False

        # Full line miss: allocate a way.
        slot = self._allocate(line_addr)
        completion = self._fetch(address, lookup_done)
        self._ready[slot] = {sector: completion}
        counts[self._c_misses] += 1
        return completion, False

    def _fetch(self, address: int, start: int) -> int:
        """Send a sector fetch to DRAM, respecting MSHR capacity."""
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= start:
            heapq.heappop(outstanding)
        if len(outstanding) >= self.config.mshr_entries:
            # All MSHRs busy: the request stalls until one frees up.
            self._counts[self._c_mshr_full] += 1
            start = max(start, heapq.heappop(outstanding))
        completion = self.next_level.access(address, start)
        heapq.heappush(outstanding, completion)
        return completion

    def _allocate(self, line_addr: int) -> int:
        """Claim an empty or LRU victim slot for ``line_addr``."""
        used = self._used
        base = (line_addr % self._num_sets) * self._ways
        oldest = min(used[base:base + self._ways])
        slot = used.index(oldest, base)
        if oldest >= 0:
            del self._slot_of[self._line_of[slot]]
            self._counts[self._c_evictions] += 1
        self._slot_of[line_addr] = slot
        self._line_of[slot] = line_addr
        used[slot] = self._tick
        return slot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        """Fraction of accesses that went to DRAM (full or sector misses)."""
        accesses = self.stats.counters.get(self._c_accesses)
        if accesses == 0:
            return 0.0
        misses = self.stats.counters.get(
            self._c_misses
        ) + self.stats.counters.get(self._c_sector_misses)
        return misses / accesses

    def resident_lines(self) -> int:
        return len(self._slot_of)
