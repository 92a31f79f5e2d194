"""LRU replacement semantics of every structure that evicts.

The TLB, the coalesced TLB, the sectored cache and the page walk cache
each keep their own per-slot LRU state.  These tests pin it through
public methods and eviction counters: every kind of touch refreshes a
key, empty ways fill before anything is evicted and never across sets,
invalidated ways are reused, and In-TLB MSHR (pending) ways are never
victims.  The basic least-recently-used eviction and the all-pending set
of each structure are covered next to its other tests (test_tlb.py,
test_memory.py, test_pwc.py); the coalesced TLB's are here.
"""

from repro.config import CacheConfig, DRAMConfig, PageTableConfig, TLBConfig
from repro.memory.cache import SectoredCache
from repro.memory.dram import DRAM
from repro.pagetable.address import AddressLayout
from repro.sim.stats import StatsRegistry
from repro.tlb.coalesced import CoalescedTLB
from repro.tlb.pwc import PageWalkCache
from repro.tlb.tlb import TLB


def tlb_config(entries: int, associativity: int) -> TLBConfig:
    return TLBConfig(
        entries=entries,
        associativity=associativity,
        latency=10,
        mshr_entries=4,
        mshr_merges=4,
    )


def make_tlb(entries=4, associativity=2) -> TLB:
    """2 sets x 2 ways by default: even vpns map to set 0."""
    return TLB(tlb_config(entries, associativity), StatsRegistry(), name="tlb")


def evictions(structure) -> int:
    return structure.stats.counters.get(f"{structure.name}.evictions")


class TestTLB:
    def test_refill_counts_as_a_touch(self):
        tlb = make_tlb()
        tlb.fill(0, 10)
        tlb.fill(2, 12)
        tlb.fill(0, 11)
        tlb.fill(4, 14)
        assert tlb.lookup(2) is None
        assert tlb.lookup(0) == 11

    def test_fully_associative_evicts_global_lru(self):
        tlb = make_tlb(entries=32, associativity=0)
        for vpn in range(32):
            tlb.fill(vpn, vpn)
        for vpn in range(32):
            if vpn != 17:
                tlb.lookup(vpn)
        tlb.fill(99, 99)
        assert tlb.lookup(17) is None
        assert tlb.occupancy() == 32

    def test_empty_ways_fill_before_any_eviction(self):
        tlb = make_tlb()
        # Fill set 1 while set 0 is still empty, then fill set 0: no set
        # may borrow the other's empty ways.
        for vpn in (1, 3, 0, 2):
            tlb.fill(vpn, vpn)
        assert evictions(tlb) == 0
        assert all(tlb.lookup(vpn) == vpn for vpn in (0, 1, 2, 3))

    def test_invalidated_way_is_reused(self):
        tlb = make_tlb()
        tlb.fill(0, 10)
        tlb.fill(2, 12)
        assert tlb.invalidate(2)
        before = evictions(tlb)
        tlb.fill(4, 14)
        assert evictions(tlb) == before
        assert (tlb.lookup(0), tlb.lookup(4)) == (10, 14)

    def test_pending_way_is_never_a_victim(self):
        tlb = make_tlb()
        assert tlb.allocate_pending(0, "w0")  # oldest way in set 0
        tlb.fill(2, 12)
        tlb.fill(4, 14)  # evicts vpn 2, not the older pending vpn 0
        assert tlb.lookup(2) is None
        assert tlb.lookup(4) == 14
        assert tlb.probe_pending(0) == ["w0"]

    def test_resolved_pending_way_rejoins_lru_order(self):
        tlb = make_tlb()
        assert tlb.allocate_pending(0, "w0")
        tlb.fill(2, 12)
        assert tlb.fill(0, 10) == ["w0"]  # resolving touches vpn 0
        tlb.fill(4, 14)
        assert tlb.lookup(2) is None
        assert tlb.lookup(0) == 10
        assert tlb.pending_entries == 0


def make_coalesced(entries=2) -> CoalescedTLB:
    """Fully associative, span 4, no contiguous neighbours."""
    return CoalescedTLB(
        tlb_config(entries, 0),
        StatsRegistry(),
        name="tlb",
        span=4,
        translate=lambda vpn: None,
    )


class TestCoalescedTLB:
    def test_least_recently_touched_block_is_evicted(self):
        tlb = make_coalesced()
        tlb.fill(0, 100)  # block 0
        tlb.fill(4, 200)  # block 1
        tlb.lookup(0)
        tlb.fill(8, 300)  # block 2 evicts block 1
        assert tlb.lookup(4) is None
        assert (tlb.lookup(0), tlb.lookup(8)) == (100, 300)

    def test_block_refill_counts_as_a_touch(self):
        tlb = make_coalesced()
        tlb.fill(0, 100)
        tlb.fill(4, 200)
        tlb.fill(1, 101)  # same block as vpn 0: touches it
        tlb.fill(8, 300)
        assert tlb.lookup(4) is None
        assert tlb.lookup(1) == 101

    def test_empty_ways_fill_before_any_eviction(self):
        tlb = make_coalesced()
        tlb.fill(0, 100)
        tlb.fill(4, 200)
        assert evictions(tlb) == 0
        assert tlb.occupancy() == 2

    def test_invalidated_block_way_is_reused(self):
        tlb = make_coalesced()
        tlb.fill(0, 100)
        tlb.fill(4, 200)
        assert tlb.invalidate(4)  # last valid page: the block is dropped
        before = evictions(tlb)
        tlb.fill(8, 300)
        assert evictions(tlb) == before
        assert (tlb.lookup(0), tlb.lookup(8)) == (100, 300)

    def test_pending_way_is_never_a_victim(self):
        tlb = make_coalesced()
        assert tlb.allocate_pending(100, "w")
        tlb.fill(0, 10)
        tlb.fill(4, 20)  # evicts block 0, not the older pending slot
        assert tlb.lookup(0) is None
        assert tlb.probe_pending(100) == ["w"]

    def test_all_pending_set_drops_fills_and_refuses_allocation(self):
        tlb = make_coalesced()
        assert tlb.allocate_pending(100, "a")
        assert tlb.allocate_pending(200, "b")
        assert tlb.fill(0, 10) == []
        assert tlb.lookup(0) is None
        assert tlb.stats.counters.get("tlb.fill_dropped") == 1
        assert not tlb.allocate_pending(300, "c")
        # Resolving a pending slot installs its block in the freed way.
        assert tlb.fill(100, 1000) == ["a"]
        assert tlb.lookup(100) == 1000


class TestSectoredCache:
    #: 8KB, 128B lines, 2 ways: 32 sets, so lines SET_SPAN bytes apart
    #: share a set.
    SET_SPAN = 32 * 128

    def make(self) -> SectoredCache:
        config = CacheConfig(
            size_bytes=8 * 1024,
            line_bytes=128,
            sector_bytes=32,
            associativity=2,
            latency=10,
            mshr_entries=64,
        )
        dram = DRAM(DRAMConfig(channels=2, latency=100), StatsRegistry())
        return SectoredCache(config, dram, StatsRegistry(), name="l2d")

    def test_sector_miss_counts_as_a_touch(self):
        cache = self.make()
        a, b, c = 0, self.SET_SPAN, 2 * self.SET_SPAN
        cache.access(a, now=0)
        cache.access(b, now=1)
        cache.access(a + 32, now=1000)  # other sector of a's line
        cache.access(c, now=1001)  # evicts b
        assert cache.access(a, now=2000)[1]
        assert not cache.access(b, now=2001)[1]

    def test_empty_ways_fill_before_any_eviction(self):
        cache = self.make()
        # Set 1 first while set 0 is empty, then set 0.
        for address in (128, 128 + self.SET_SPAN, 0, self.SET_SPAN):
            cache.access(address, now=0)
        assert evictions(cache) == 0
        assert cache.resident_lines() == 4
        cache.access(2 * self.SET_SPAN, now=0)
        assert evictions(cache) == 1


class TestPageWalkCache:
    def make(self, entries=2) -> PageWalkCache:
        layout = AddressLayout.from_config(PageTableConfig())
        return PageWalkCache(
            entries, layout, root_base=0xAAAA000, stats=StatsRegistry(),
            min_level=1,
        )

    def test_refill_counts_as_a_touch(self):
        pwc = self.make()
        pwc.fill(0x000, 1, 0xA000)
        pwc.fill(0x200, 1, 0xB000)
        pwc.fill(0x000, 1, 0xA111)
        pwc.fill(0x400, 1, 0xC000)
        assert pwc.probe(0x000) == (1, 0xA111)
        assert pwc.probe(0x200)[1] == 0xAAAA000

    def test_empty_ways_fill_before_any_eviction(self):
        pwc = self.make(entries=3)
        for vpn in (0x000, 0x200, 0x400):
            pwc.fill(vpn, 1, 0x1000 + vpn)
        assert evictions(pwc) == 0
        assert pwc.occupancy == 3
