"""PCIe interconnect substrate.

Models the testbed fabric of the paper: a five-slot PCIe Gen2 switch
(Cyclone Microsystems PCIe2-2707-like) connecting the host root complex,
the NVMe SSD, the 10-GbE NIC, the GPU and the HDC Engine.  The fabric
routes by physical address through an :class:`AddressMap` of
:class:`~repro.memory.region.MemoryRegion` windows, so peer-to-peer DMA
(device→device without touching host DRAM) falls out naturally: the
route is decided by who owns the target address.

All transfers are *functional* (real bytes move) and *timed* (each link
direction is held by one transfer at a time, FIFO; serialization time
follows lane count, generation and TLP efficiency).
"""

from repro.pcie.address import AddressMap
from repro.pcie.link import (LINK_GEN2_X4, LINK_GEN2_X8, LINK_GEN2_X16,
                             LinkConfig, PcieLink)
from repro.pcie.switch import Fabric, PortStats
from repro.pcie.transaction import (DOORBELL_WRITE_NS, HOP_FORWARD_NS,
                                    MSI_LATENCY_NS, READ_REQUEST_NS,
                                    tlp_efficiency)

__all__ = [
    "AddressMap",
    "DOORBELL_WRITE_NS",
    "Fabric",
    "HOP_FORWARD_NS",
    "LINK_GEN2_X4",
    "LINK_GEN2_X8",
    "LINK_GEN2_X16",
    "LinkConfig",
    "MSI_LATENCY_NS",
    "PcieLink",
    "PortStats",
    "READ_REQUEST_NS",
    "tlp_efficiency",
]
