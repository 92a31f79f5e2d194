"""Page Walk Cache: lets walks skip upper page-table levels.

A PWC entry caches the physical base address of one page-table node,
keyed by ``(level, table_tag)``.  Probing for a VPN returns the deepest
cached node along its walk path so the walk starts there; the root is
always known (it lives in the per-process page-table base register), so
a cold probe simply starts at the root level.

The cache is flat per-slot arrays over its ``entries`` ways: ``_slot_of``
maps a key to its slot, ``_key_of`` / ``_base`` hold each slot's key and
node base, and ``_used`` is the LRU state — the last-use tick of an
occupied slot, ``-1`` for an empty one.  Ticks are unique per cache, so
the fill victim is the argmin of ``_used``: an empty slot first, else
the least recently used entry.
"""

from __future__ import annotations

from repro.pagetable.address import AddressLayout
from repro.sim.stats import StatsRegistry


class PageWalkCache:
    """Fully associative cache of page-table node base addresses.

    ``min_level`` bounds how deep the PWC caches: the default of 2
    means pointers *to leaf tables are not cached* — like an x86 PDE
    cache, the walk always reads at least the final PTE from memory
    (after one upper-level read).  Setting ``min_level=1`` models an
    aggressive translation cache that can collapse walks to one access.
    """

    def __init__(
        self,
        entries: int,
        layout: AddressLayout,
        root_base: int,
        stats: StatsRegistry,
        *,
        name: str = "pwc",
        min_level: int = 2,
    ) -> None:
        if entries < 0:
            raise ValueError("PWC size cannot be negative")
        if min_level < 1:
            raise ValueError("min_level must be >= 1")
        self.capacity = entries
        self.layout = layout
        self.root_base = root_base
        self.stats = stats
        self.name = name
        self.min_level = min_level
        self._slot_of: dict[tuple[int, int], int] = {}
        self._key_of: list[tuple[int, int] | None] = [None] * entries
        self._base: list[int] = [0] * entries
        self._used: list[int] = [-1] * entries
        self._tick = 0
        self._counts = stats.counters.live()
        self._c_probes = f"{name}.probes"
        self._c_hits = f"{name}.hits"
        self._c_root_fallbacks = f"{name}.root_fallbacks"
        self._c_evictions = f"{name}.evictions"
        self._c_fills = f"{name}.fills"

    def probe(self, vpn: int) -> tuple[int, int]:
        """Deepest cached node for ``vpn``: returns ``(level, node_base)``.

        Levels below the root are only returned on a PWC hit; the
        fallback is ``(root_level, root_base)``.
        """
        self._tick += 1
        counts = self._counts
        counts[self._c_probes] += 1
        table_tag = self.layout.table_tag
        slot_of = self._slot_of
        for level in range(self.min_level, self.layout.levels):
            slot = slot_of.get((level, table_tag(vpn, level)))
            if slot is not None:
                self._used[slot] = self._tick
                counts[self._c_hits] += 1
                return level, self._base[slot]
        counts[self._c_root_fallbacks] += 1
        return self.layout.levels, self.root_base

    def fill(self, vpn: int, level: int, node_base: int) -> None:
        """Cache the node at ``level`` on ``vpn``'s path (FPWC instruction)."""
        if self.capacity == 0 or level >= self.layout.levels or level < self.min_level:
            return
        self._tick += 1
        key = (level, self.layout.table_tag(vpn, level))
        slot = self._slot_of.get(key)
        if slot is None:
            used = self._used
            oldest = min(used)
            slot = used.index(oldest)
            if oldest >= 0:
                del self._slot_of[self._key_of[slot]]
                self._counts[self._c_evictions] += 1
            self._slot_of[key] = slot
            self._key_of[slot] = key
            self._counts[self._c_fills] += 1
        self._base[slot] = node_base
        self._used[slot] = self._tick

    def hit_rate(self) -> float:
        probes = self.stats.counters.get(self._c_probes)
        if probes == 0:
            return 0.0
        return self.stats.counters.get(self._c_hits) / probes

    @property
    def occupancy(self) -> int:
        return len(self._slot_of)

    def register_metrics(self, metrics) -> None:
        """Expose PWC effectiveness as sampled gauges."""
        metrics.register_gauge(f"{self.name}.hit_rate", self.hit_rate)
        metrics.register_gauge(f"{self.name}.occupancy", lambda: self.occupancy)
