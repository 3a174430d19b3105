"""The simulated physical address map.

One global map per node.  Regions (BAR windows, DRAM, engine DDR3) are
registered once at machine-build time; lookups are binary searches over
the sorted bases.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.errors import AddressError
from repro.memory.region import MemoryRegion


class AddressMap:
    """A set of non-overlapping memory regions, addressable by byte."""

    def __init__(self):
        self._regions: List[MemoryRegion] = []
        self._bases: List[int] = []

    def add(self, region: MemoryRegion) -> MemoryRegion:
        """Register ``region``; rejects overlap with any existing region."""
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise AddressError(
                    f"region {region.name} [{hex(region.base)}, "
                    f"{hex(region.end)}) overlaps {existing.name} "
                    f"[{hex(existing.base)}, {hex(existing.end)})")
        index = bisect_right(self._bases, region.base)
        self._regions.insert(index, region)
        self._bases.insert(index, region.base)
        return region

    def resolve(self, addr: int, length: int = 1) -> MemoryRegion:
        """The region containing [addr, addr+length), or raise.

        Accesses may not straddle region boundaries — real DMA engines
        split at window edges and so do our models, which size their
        transfers within one target region.
        """
        index = bisect_right(self._bases, addr) - 1
        if index >= 0:
            # bisect_right already guarantees region.base <= addr, so
            # only the end needs checking.
            region = self._regions[index]
            end = region.base + region.size
            if addr + length <= end:
                return region
            if addr < end:
                raise AddressError(
                    f"access [{hex(addr)}, {hex(addr + length)}) straddles the "
                    f"end of region {region.name}")
        raise AddressError(f"unmapped address {hex(addr)}")

    def find(self, name: str) -> Optional[MemoryRegion]:
        """Look a region up by name (None if absent)."""
        for region in self._regions:
            if region.name == name:
                return region
        return None

    def read(self, addr: int, length: int) -> bytes:
        """Functional read (no timing) — used by models and tests."""
        return self.resolve(addr, length).read(addr, length)

    def write(self, addr: int, data: bytes) -> None:
        """Functional write (no timing) — used by models and tests."""
        self.resolve(addr, len(data)).write(addr, data)

    def regions(self) -> List[MemoryRegion]:
        """All regions, sorted by base (a copy)."""
        return list(self._regions)
