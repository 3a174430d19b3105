"""Byte-backed memory regions and sparse backing storage."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AddressError


class SparseBytes:
    """A lazily allocated, zero-filled byte store.

    Large simulated memories (a 400 GB flash array, 1 GB of FPGA DDR3)
    would be absurd to allocate eagerly; this class stores only the
    pages actually touched.
    """

    PAGE = 4096

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._pages: Dict[int, bytearray] = {}

    def _outside(self, offset: int, length: int) -> AddressError:
        return AddressError(f"access [{offset}, {offset + length}) outside "
                            f"store of size {self.size}")

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (zeroes if never written)."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise self._outside(offset, length)
        page_no, page_off = divmod(offset, self.PAGE)
        end = page_off + length
        pages = self._pages
        if end <= self.PAGE:
            page = pages.get(page_no)
            if page is None:
                return bytes(length)
            return bytes(memoryview(page)[page_off:end])
        # Several pages: join the pages (zeroes for pages never
        # written), the two ends through views, so every byte is copied
        # once.
        parts = [pages.get(n, _ZERO_PAGE)
                 for n in range(page_no, page_no + (end - 1) // self.PAGE + 1)]
        parts[0] = memoryview(parts[0])[page_off:]
        parts[-1] = memoryview(parts[-1])[:(end - 1) % self.PAGE + 1]
        return b"".join(parts)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``."""
        length = len(data)
        if offset < 0 or offset + length > self.size:
            raise self._outside(offset, length)
        page_no, page_off = divmod(offset, self.PAGE)
        end = page_off + length
        pages = self._pages
        if end <= self.PAGE:
            page = pages.get(page_no)
            if page is None:
                if not length:
                    return  # an empty write allocates nothing
                page = pages[page_no] = bytearray(self.PAGE)
            page[page_off:end] = data
            return
        # Several pages: the partial first page, whole pages replaced
        # by a copy of their bytes, then the partial last page.
        src = memoryview(data)
        head = self.PAGE - page_off
        page = pages.get(page_no)
        if page is None:
            page = pages[page_no] = bytearray(self.PAGE)
        page[page_off:] = src[:head]
        pos = head
        page_no += 1
        while length - pos >= self.PAGE:
            pages[page_no] = bytearray(src[pos:pos + self.PAGE])
            pos += self.PAGE
            page_no += 1
        if pos < length:
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = bytearray(self.PAGE)
            page[:length - pos] = src[pos:]

    @property
    def resident_bytes(self) -> int:
        """Bytes of real memory currently backing the store."""
        return len(self._pages) * self.PAGE


# What a never-written page reads as.
_ZERO_PAGE = bytes(SparseBytes.PAGE)

MmioWriteHook = Callable[[int, bytes], None]
WriteWatcher = Callable[[], None]


class MemoryRegion:
    """A contiguous window of the simulated physical address space.

    A region belongs to exactly one fabric *port* (the device whose
    memory it is); the PCIe layer uses that to route DMA.  Regions may
    be plain storage (DRAM, BRAM) or MMIO register windows: setting
    :attr:`on_mmio_write` turns writes into device callbacks (doorbells).
    """

    def __init__(self, name: str, base: int, size: int, port: str,
                 sparse: bool = False, access_latency: int = 0):
        if base < 0 or size <= 0:
            raise AddressError(f"bad region geometry: base={base} size={size}")
        self.name = name
        self.base = base
        self.size = size
        self.port = port
        # First-access latency behind the target's port: DRAM row access
        # and (for host memory) root-complex traversal.  On-chip BRAM
        # windows keep the default 0.
        self.access_latency = access_latency
        self._backing = SparseBytes(size) if sparse else bytearray(size)
        self._sparse = sparse
        self.on_mmio_write: Optional[MmioWriteHook] = None
        self._watchers: List[Tuple[int, int, WriteWatcher]] = []

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        """True if [addr, addr+length) falls inside the region."""
        return self.base <= addr and addr + length <= self.end

    def _outside(self, addr: int, length: int) -> AddressError:
        return AddressError(
            f"access [{hex(addr)}, {hex(addr + length)}) outside region "
            f"{self.name} [{hex(self.base)}, {hex(self.end)})")

    def _offset(self, addr: int, length: int) -> int:
        # contains(addr, length), restated on the offset.
        off = addr - self.base
        if off < 0 or off + length > self.size:
            raise self._outside(addr, length)
        return off

    def watch(self, addr: int, length: int, callback: WriteWatcher) -> None:
        """Call ``callback()`` after every storage write that overlaps
        [addr, addr+length).  The bytes land first, so the callback
        reads the new contents."""
        start = self._offset(addr, length)
        self._watchers.append((start, start + length, callback))

    def read(self, addr: int, length: int) -> bytes:
        """Functional read of ``length`` bytes at absolute address ``addr``."""
        off = addr - self.base  # _offset, inlined on the DMA path
        if off < 0 or off + length > self.size:
            raise self._outside(addr, length)
        if self._sparse:
            return self._backing.read(off, length)
        return bytes(memoryview(self._backing)[off:off + length])

    def write(self, addr: int, data: bytes) -> None:
        """Functional write of ``data`` at absolute address ``addr``.

        MMIO hooks fire *instead of* storing when installed — register
        windows have device semantics, not memory semantics.  Watchers
        of the written range fire after the store.
        """
        off = addr - self.base  # _offset, inlined on the DMA path
        end = off + len(data)
        if off < 0 or end > self.size:
            raise self._outside(addr, len(data))
        if self.on_mmio_write is not None:
            self.on_mmio_write(off, bytes(data))
            return
        if self._sparse:
            self._backing.write(off, data)
        else:
            self._backing[off:end] = data
        if self._watchers:
            for start, stop, callback in self._watchers:
                if off < stop and start < end:
                    callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRegion({self.name!r}, base={hex(self.base)}, "
                f"size={self.size}, port={self.port!r})")
