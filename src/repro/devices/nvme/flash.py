"""The SSD's backing flash array: functional store + access timing."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceError, MediaError
from repro.memory.region import SparseBytes
from repro.devices.nvme.commands import LBA_SIZE
from repro.units import Rate, gbps, usec


@dataclass(frozen=True)
class FlashTiming:
    """Media-side timing of the flash array behind the controller.

    ``read_rate``/``write_rate`` are the sustained internal array
    bandwidths; the paper quotes the Intel 750's 17.2 Gbps read and
    7.2 Gbps write (Table V).  Base latencies cover lookup, ECC and the
    NAND access itself for the first page.
    """

    read_base: int
    write_base: int
    read_rate: Rate
    write_rate: Rate


INTEL_750_TIMING = FlashTiming(
    read_base=usec(8),
    write_base=usec(13),
    read_rate=gbps(17.2),
    write_rate=gbps(7.2),
)


class FlashStore:
    """LBA-addressed functional storage (sparse, zero-filled)."""

    def __init__(self, capacity_bytes: int, lba_size: int = LBA_SIZE,
                 sim=None, owner: str = "flash"):
        if capacity_bytes % lba_size:
            raise DeviceError("capacity must be a multiple of the LBA size")
        self.lba_size = lba_size
        self.capacity_blocks = capacity_bytes // lba_size
        self._store = SparseBytes(capacity_bytes)
        # Fault-injection plumbing: when the owning SSD passes its sim,
        # reads consult the installed plan (one branch when none is).
        self.sim = sim
        self.owner = owner
        self.media_errors = 0

    def _check(self, slba: int, nblocks: int) -> None:
        if slba < 0 or nblocks <= 0 or slba + nblocks > self.capacity_blocks:
            raise DeviceError(
                f"LBA range [{slba}, {slba + nblocks}) outside device of "
                f"{self.capacity_blocks} blocks")

    def read_blocks(self, slba: int, nblocks: int) -> bytes:
        """Read ``nblocks`` logical blocks starting at ``slba``."""
        self._check(slba, nblocks)
        faults = None if self.sim is None else self.sim.faults
        if (faults is not None and "flash.read" in faults.armed_sites
                and faults.fires("flash.read", key=(self.owner, slba),
                                 owner=self.owner, slba=slba,
                                 nblocks=nblocks)):
            self.media_errors += 1
            raise MediaError(
                f"{self.owner}: uncorrectable media error reading "
                f"LBA {slba} (+{nblocks})")
        return self._store.read(slba * self.lba_size, nblocks * self.lba_size)

    def write_blocks(self, slba: int, data: bytes) -> None:
        """Write whole blocks starting at ``slba``."""
        if len(data) % self.lba_size:
            raise DeviceError(
                f"write of {len(data)} bytes is not block-aligned")
        self._check(slba, len(data) // self.lba_size)
        self._store.write(slba * self.lba_size, data)
