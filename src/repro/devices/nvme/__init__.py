"""NVMe SSD model: command structures, queue rings, flash store, device."""

from repro.devices.nvme.commands import (CQE_SIZE, OP_FLUSH, OP_READ, OP_WRITE,
                                         SQE_SIZE, Completion, NvmeCommand,
                                         prp_pages)
from repro.devices.nvme.queues import QueuePair
from repro.devices.nvme.flash import FlashStore, FlashTiming
from repro.devices.nvme.ssd import INTEL_750_400GB, NvmeSsd, SsdConfig

__all__ = [
    "CQE_SIZE",
    "Completion",
    "FlashStore",
    "FlashTiming",
    "INTEL_750_400GB",
    "NvmeCommand",
    "NvmeSsd",
    "OP_FLUSH",
    "OP_READ",
    "OP_WRITE",
    "QueuePair",
    "SQE_SIZE",
    "prp_pages",
]
