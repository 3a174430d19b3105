"""Memory regions: windows of the address space, stored page-on-write."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AddressError

PAGE = 4096
# What a never-written page reads as.
_ZERO_PAGE = bytes(PAGE)

MmioWriteHook = Callable[[int, bytes], None]
WriteWatcher = Callable[[], None]


class MemoryRegion:
    """A contiguous window of the simulated physical address space.

    A region belongs to exactly one fabric *port* (the device whose
    memory it is); the PCIe layer uses that to route DMA.  Regions may
    be plain storage (DRAM, BRAM) or MMIO register windows: setting
    :attr:`on_mmio_write` turns writes into device callbacks (doorbells).

    Every region stores page-on-write: a 4 KiB page exists once a byte
    of it is written, and the rest reads as zeroes, so a 1 GB DDR3 and a
    register window cost only the pages their runs write.
    """

    PAGE = PAGE

    def __init__(self, name: str, base: int, size: int, port: str,
                 access_latency: int = 0):
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
        self._pages: Dict[int, bytearray] = {}
        self.on_mmio_write: Optional[MmioWriteHook] = None
        self._watchers: List[Tuple[int, int, WriteWatcher]] = []

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.base + self.size

    @property
    def resident_bytes(self) -> int:
        """Bytes of real memory currently backing the region."""
        return len(self._pages) * PAGE

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
        """Functional read of ``length`` bytes at absolute address ``addr``
        (zeroes where never written)."""
        off = addr - self.base  # _offset, inlined on the DMA path
        if off < 0 or off + length > self.size:
            raise self._outside(addr, length)
        page_no, page_off = divmod(off, PAGE)
        end = page_off + length
        pages = self._pages
        if end <= PAGE:
            page = pages.get(page_no)
            if page is None:
                return bytes(length)
            return bytes(memoryview(page)[page_off:end])
        # Several pages: join the pages (zeroes for pages never
        # written), the two ends through views, so every byte is copied
        # once.
        parts = [pages.get(n, _ZERO_PAGE)
                 for n in range(page_no, page_no + (end - 1) // PAGE + 1)]
        parts[0] = memoryview(parts[0])[page_off:]
        parts[-1] = memoryview(parts[-1])[:(end - 1) % PAGE + 1]
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        """Functional write of ``data`` at absolute address ``addr``.

        MMIO hooks fire *instead of* storing when installed — register
        windows have device semantics, not memory semantics.  Watchers
        of the written range fire after the store.
        """
        length = len(data)
        off = addr - self.base  # _offset, inlined on the DMA path
        end = off + length
        if off < 0 or end > self.size:
            raise self._outside(addr, length)
        if self.on_mmio_write is not None:
            self.on_mmio_write(off, bytes(data))
            return
        page_no, page_off = divmod(off, PAGE)
        if 0 < length <= PAGE - page_off:
            # One page: _put's first case, inlined on the DMA path.
            page = self._pages.get(page_no)
            if page is None:
                page = self._pages[page_no] = bytearray(PAGE)
            page[page_off:page_off + length] = data
        else:
            self._put(off, data)
        if self._watchers:
            for start, stop, callback in self._watchers:
                if off < stop and start < end:
                    callback()

    def store(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` beneath the MMIO hook: how a
        register window's device keeps bytes the bus wrote (a command
        queue in BAR memory).  Watchers do not fire."""
        self._put(self._offset(addr, len(data)), data)

    def _put(self, off: int, data: bytes) -> None:
        length = len(data)
        page_no, page_off = divmod(off, PAGE)
        pages = self._pages
        if page_off + length <= PAGE:
            if not length:
                return  # an empty write allocates nothing
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = bytearray(PAGE)
            page[page_off:page_off + length] = data
            return
        # Several pages: the partial first page, whole pages replaced
        # by a copy of their bytes, then the partial last page.
        src = memoryview(data)
        head = PAGE - page_off
        page = pages.get(page_no)
        if page is None:
            page = pages[page_no] = bytearray(PAGE)
        page[page_off:] = src[:head]
        pos = head
        page_no += 1
        while length - pos >= PAGE:
            pages[page_no] = bytearray(src[pos:pos + PAGE])
            pos += PAGE
            page_no += 1
        if pos < length:
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = bytearray(PAGE)
            page[:length - pos] = src[pos:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRegion({self.name!r}, base={hex(self.base)}, "
                f"size={self.size}, port={self.port!r})")


class SparseBytes(MemoryRegion):
    """A zero-based page-on-write store that no fabric maps: the SSD's
    flash array, 400 GB that would be absurd to allocate eagerly."""

    def __init__(self, size: int):
        super().__init__("store", base=0, size=size, port="")
