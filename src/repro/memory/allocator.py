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

from repro.errors import AllocationError


class ChunkAllocator:
    """Allocates fixed-size chunks out of an address window.

    One byte per chunk, non-zero while the chunk is allocated.  Every
    allocation takes the lowest free run (first fit), so the addresses
    handed out depend only on the sequence of calls.
    """

    def __init__(self, base: int, size: int, chunk_size: int):
        if chunk_size <= 0:
            raise AllocationError(f"chunk size must be positive: {chunk_size}")
        if size < chunk_size:
            raise AllocationError(
                f"window of {size} bytes cannot hold one {chunk_size}-byte chunk")
        self.base = base
        self.chunk_size = chunk_size
        self.total_chunks = size // chunk_size
        self._map = bytearray(self.total_chunks)
        self.allocated_chunks = 0

    @property
    def free_chunks(self) -> int:
        """Number of chunks currently free."""
        return self.total_chunks - self.allocated_chunks

    def free_indices(self) -> list[int]:
        """The free chunk indices, lowest first."""
        return [index for index, used in enumerate(self._map) if not used]

    def alloc(self) -> int:
        """Allocate one chunk; returns its base address."""
        return self.alloc_contiguous(1)

    def alloc_contiguous(self, count: int) -> int:
        """Allocate ``count`` physically contiguous chunks.

        Needed when a transfer larger than one chunk must land in
        contiguous space (e.g. gathering split packets for an SSD write).
        Returns the base address of the run.
        """
        if count <= 0:
            raise AllocationError(f"count must be positive: {count}")
        index = self._map.find(bytes(count))
        if index < 0:
            raise AllocationError(f"no free run of {count} chunk(s) "
                                  f"({self.free_chunks} free)")
        self._map[index:index + count] = b"\x01" * count
        self.allocated_chunks += count
        return self.base + index * self.chunk_size

    def alloc_bytes(self, size: int) -> int:
        """Allocate the contiguous chunks ``size`` bytes need; returns
        the base address of the run (one chunk is :meth:`alloc`'s)."""
        return self.alloc_contiguous(self.chunks_for(size))

    def free_bytes(self, addr: int, size: int) -> None:
        """Free a run allocated by :meth:`alloc_bytes`."""
        self.free(addr, self.chunks_for(size))

    def free(self, addr: int, count: int = 1) -> None:
        """Free ``count`` chunks starting at ``addr``; nothing is freed
        if any of them is not allocated."""
        offset = addr - self.base
        if offset % self.chunk_size != 0:
            raise AllocationError(f"{hex(addr)} is not chunk-aligned")
        first = offset // self.chunk_size
        end = first + count
        if first < 0 or end > self.total_chunks:
            raise AllocationError(
                f"double free or bad address: chunks [{first}, {end}) "
                f"outside the window of {self.total_chunks}")
        bad = self._map.find(0, first, end)
        if bad >= 0:
            raise AllocationError(f"double free or bad address: chunk {bad}")
        self._map[first:end] = bytes(count)
        self.allocated_chunks -= count

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
