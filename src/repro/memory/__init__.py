"""Memory substrate: DRAM channels and sectored caches."""

from repro.memory.cache import SectoredCache
from repro.memory.dram import CHANNEL_INTERLEAVE_BYTES, DRAM
from repro.memory.hierarchy import MemorySystem

__all__ = [
    "SectoredCache",
    "CHANNEL_INTERLEAVE_BYTES",
    "DRAM",
    "MemorySystem",
]
