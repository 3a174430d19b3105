"""Base class for PCIe-attached device models."""

from __future__ import annotations

from functools import partial

from repro.memory.region import MemoryRegion
from repro.pcie.link import LinkConfig
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator


class PcieDevice:
    """A device attached to one fabric port.

    Subclasses register BAR windows with :meth:`add_region` and initiate
    traffic through the thin DMA wrappers, which fix the initiator to
    this device's port.  ``dma_read(addr, length)`` and
    ``dma_write(addr, data)`` are the fabric's own methods with the
    initiator bound (``functools.partial``), so a device DMA enters one
    Python frame before the transfer generator, not two.
    """

    def __init__(self, sim: Simulator, fabric: Fabric, name: str,
                 link: LinkConfig):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        fabric.add_port(name, link)
        # Timed DMA as this device; generators, drive with ``yield from``.
        self.dma_read = partial(fabric.dma_read, name)
        self.dma_write = partial(fabric.dma_write, name)

    def add_region(self, suffix: str, base: int,
                   size: int) -> MemoryRegion:
        """Register an addressable window owned by this device."""
        region = MemoryRegion(f"{self.name}-{suffix}", base=base, size=size,
                              port=self.name)
        return self.fabric.add_region(region)

    # -- MMIO and interrupt wrappers (generators; drive with ``yield from``)

    def mmio_write(self, addr: int, data: bytes):
        """Small register write as this device (timed)."""
        return self.fabric.mmio_write(self.name, addr, data)

    def msi(self, vector: int = 0):
        """Raise a message-signalled interrupt toward the host."""
        return self.fabric.msi(self.name, vector=vector)
