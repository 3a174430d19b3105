"""The engine's 1 GB DDR3 intermediate-buffer manager.

Paper §IV-C: "we utilize on-board 1GB DDR3 DRAMs as intermediate
buffers for intermediate processing and packet recv buffers for NIC
devices.  To easily manage large memory space, the intermediate buffers
and packet recv buffers are chunked into multiple fixed-size blocks
(64KB)."
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.memory.allocator import ChunkAllocator
from repro.units import GIB, KIB

CHUNK_SIZE = 64 * KIB
DDR3_SIZE = 1 * GIB


class EngineBuffers:
    """Chunked allocation over the engine's DDR3 window."""

    def __init__(self, ddr_base: int, size: int = DDR3_SIZE,
                 recv_pool_chunks: int = 512):
        self._alloc = ChunkAllocator(ddr_base, size, CHUNK_SIZE)
        # A dedicated pool of packet receive chunks, carved up front so
        # bursty intermediate-buffer use can't starve the NIC.
        self._recv_pool = [self._alloc.alloc()
                           for _ in range(recv_pool_chunks)]
        self.recv_pool_size = recv_pool_chunks

    # -- intermediate buffers ---------------------------------------------

    def alloc_intermediate(self, size: int) -> int:
        """A contiguous intermediate buffer of at least ``size`` bytes."""
        return self._alloc.alloc_bytes(size)

    def free_intermediate(self, addr: int, size: int) -> None:
        self._alloc.free_bytes(addr, size)

    # -- packet receive chunks ------------------------------------------------

    def take_recv_chunk(self) -> int:
        """One 64 KiB packet receive chunk (staging for inbound frames)."""
        if not self._recv_pool:
            raise AllocationError("packet recv chunk pool exhausted")
        return self._recv_pool.pop()

    def return_recv_chunk(self, addr: int) -> None:
        self._recv_pool.append(addr)

    @property
    def free_chunks(self) -> int:
        return self._alloc.free_chunks

    @property
    def bytes_in_use(self) -> int:
        """Allocated DDR3 bytes (the engine.ddr3_bytes_in_use metric)."""
        return self._alloc.allocated_chunks * CHUNK_SIZE

    @property
    def chunk_size(self) -> int:
        return CHUNK_SIZE
