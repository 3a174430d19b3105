"""Fixed-size chunk and bump allocators.

The HDC Engine manages its 1 GB DDR3 as fixed 64 KB blocks for
intermediate buffers and NIC receive buffers (paper §IV-C: "the
intermediate buffers and packet recv buffers are chunked into multiple
fixed-size blocks (64KB)").  :class:`ChunkAllocator` reproduces that
scheme and also serves host kernel buffers and GPU staging memory.
:class:`Bump` lays out control structures (queues, rings, status
words) in host control memory and engine BRAM.
"""

from __future__ import annotations

from bisect import insort
from typing import List

from repro.errors import AllocationError


class ChunkAllocator:
    """Allocates fixed-size chunks out of an address window."""

    def __init__(self, base: int, size: int, chunk_size: int):
        if chunk_size <= 0:
            raise AllocationError(f"chunk size must be positive: {chunk_size}")
        if size < chunk_size:
            raise AllocationError(
                f"window of {size} bytes cannot hold one {chunk_size}-byte chunk")
        self.base = base
        self.chunk_size = chunk_size
        self.total_chunks = size // chunk_size
        # Free list kept sorted so allocation is deterministic and
        # contiguous runs can be found.
        self._free: List[int] = list(range(self.total_chunks))
        self._allocated: set[int] = set()

    @property
    def free_chunks(self) -> int:
        """Number of chunks currently free."""
        return len(self._free)

    @property
    def allocated_chunks(self) -> int:
        """Number of chunks currently allocated."""
        return len(self._allocated)

    def alloc(self) -> int:
        """Allocate one chunk; returns its base address."""
        if not self._free:
            raise AllocationError("out of chunks")
        index = self._free.pop(0)
        self._allocated.add(index)
        return self.base + index * self.chunk_size

    def alloc_contiguous(self, count: int) -> int:
        """Allocate ``count`` physically contiguous chunks.

        Needed when a transfer larger than one chunk must land in
        contiguous space (e.g. gathering split packets for an SSD write).
        Returns the base address of the run.
        """
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        run_start = 0
        run_len = 0
        for pos, index in enumerate(self._free):
            if run_len and index == self._free[pos - 1] + 1:
                run_len += 1
            else:
                run_start, run_len = pos, 1
            if run_len == count:
                indices = self._free[run_start:run_start + count]
                del self._free[run_start:run_start + count]
                self._allocated.update(indices)
                return self.base + indices[0] * self.chunk_size
        raise AllocationError(
            f"no contiguous run of {count} chunks "
            f"({len(self._free)} free, fragmented)")

    def alloc_bytes(self, size: int) -> int:
        """Allocate the contiguous chunks ``size`` bytes need; returns
        the base address of the run (one chunk is :meth:`alloc`'s)."""
        return self.alloc_contiguous(self.chunks_for(size))

    def free_bytes(self, addr: int, size: int) -> None:
        """Free a run allocated by :meth:`alloc_bytes`."""
        self.free(addr, self.chunks_for(size))

    def free(self, addr: int, count: int = 1) -> None:
        """Free ``count`` chunks starting at ``addr``."""
        offset = addr - self.base
        if offset % self.chunk_size != 0:
            raise AllocationError(f"{hex(addr)} is not chunk-aligned")
        first = offset // self.chunk_size
        for index in range(first, first + count):
            if index not in self._allocated:
                raise AllocationError(
                    f"double free or bad address: chunk {index}")
            self._allocated.remove(index)
            insort(self._free, index)

    def chunks_for(self, size: int) -> int:
        """How many chunks a transfer of ``size`` bytes needs."""
        if size <= 0:
            raise AllocationError(f"size must be positive: {size}")
        return -(-size // self.chunk_size)


class Bump:
    """A bump allocator for control structures (never freed)."""

    def __init__(self, base: int, size: int, name: str = "control memory"):
        self.base = base
        self.end = base + size
        self.name = name          # for the exhaustion error
        self._next = base

    @property
    def used(self) -> int:
        """Bytes consumed so far, alignment padding included."""
        return self._next - self.base

    def take(self, size: int, align: int = 64) -> int:
        """Allocate ``size`` bytes aligned to ``align``."""
        addr = self._next + (-self._next % align)
        if addr + size > self.end:
            raise AllocationError(f"{self.name} exhausted")
        self._next = addr + size
        return addr
