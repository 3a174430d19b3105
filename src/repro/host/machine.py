"""One simulated server node: fabric, devices, drivers, kernel, memory map.

:class:`Host` assembles everything a scheme needs on one machine.  The
physical address map mirrors the testbed in Table V / Fig 10:

====================  ===========================================
``0x0000_0000``        host DRAM (control structures + kernel buffers)
``0x8000_0000``        NVMe SSD BAR (doorbells)
``0x8100_0000``        NIC BAR (doorbells)
``0x9000_0000``        GPU memory BAR (GPUDirect window)
``0xB000_0000``        HDC Engine BRAM BAR (added by the DCS-ctrl scheme)
``0xC000_0000``        HDC Engine DDR3 (added by the DCS-ctrl scheme)
====================  ===========================================
"""

from __future__ import annotations

from typing import Optional

from repro.devices.gpu.gpu import Gpu
from repro.devices.nic.nic import Nic
from repro.devices.nvme.ssd import NvmeSsd
from repro.errors import AllocationError
from repro.host.cpu import CpuPool
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts
from repro.host.drivers.gpu_driver import HostGpuDriver
from repro.host.drivers.nic_driver import HostNicDriver
from repro.host.drivers.nvme_driver import HostNvmeDriver
from repro.host.kernel.filesystem import MultiVolumeFs
from repro.host.kernel.interrupts import InterruptController
from repro.host.kernel.kernel import HostKernel
from repro.host.kernel.page_cache import PageCache
from repro.memory.allocator import Bump, ChunkAllocator
from repro.memory.region import MemoryRegion
from repro.net.wire import Wire
from repro.pcie.link import LINK_GEN2_X8
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.units import KIB, MIB

HOST_DRAM_BASE = 0x0000_0000
HOST_DRAM_SIZE = 512 * MIB
CONTROL_BASE = 0x0010_0000
BUFFER_BASE = 0x1000_0000
BUFFER_SIZE = 256 * MIB
BUFFER_CHUNK = 64 * KIB

SSD_BAR = 0x8000_0000
NIC_BAR = 0x8100_0000
GPU_BAR = 0x9000_0000

# The Xeon of the paper's testbed (Table V) and of its Fig 13
# projection: "a single 6-core Intel Xeon CPU".
CORES = 6


class Host:
    """A complete single node (host + SSD + NIC + optional GPU)."""

    def __init__(self, sim: Simulator, name: str = "node0",
                 costs: SoftwareCosts = DEFAULT_COSTS,
                 with_gpu: bool = True, n_ssds: int = 1):
        self.sim = sim
        self.name = name
        self.costs = costs
        self.fabric = Fabric(sim, name=name)
        self.fabric.add_port("host", LINK_GEN2_X8)
        self.fabric.add_region(MemoryRegion(
            "host-dram", base=HOST_DRAM_BASE, size=HOST_DRAM_SIZE,
            port="host", access_latency=300))
        self.cpu = CpuPool(sim, cores=CORES, owner=name)
        self.control = Bump(CONTROL_BASE, BUFFER_BASE - CONTROL_BASE)
        self.buffers = ChunkAllocator(BUFFER_BASE, BUFFER_SIZE, BUFFER_CHUNK)

        if n_ssds < 1:
            raise AllocationError("need at least one SSD")
        # Fig 13's projection setup mounts six SSDs; every host supports
        # an array.  Volume 0 keeps the historical `host.ssd` alias.
        # BAR stride 128 KiB keeps every SSD window below the NIC BAR.
        self.ssds = [NvmeSsd(sim, self.fabric, f"ssd{i}" if i else "ssd",
                             bar_base=SSD_BAR + i * 0x0002_0000)
                     for i in range(n_ssds)]
        self.ssd = self.ssds[0]
        self.nic = Nic(sim, self.fabric, "nic", bar_base=NIC_BAR)
        self.gpu: Optional[Gpu] = (
            Gpu(sim, self.fabric, "gpu", bar_base=GPU_BAR)
            if with_gpu else None)
        # GPU memory offsets (not fabric addresses) for offload staging.
        self.gpu_mem: Optional[ChunkAllocator] = (
            ChunkAllocator(0, self.gpu.config.memory_bytes, BUFFER_CHUNK)
            if self.gpu is not None else None)

        self.irq = InterruptController(self.fabric)
        self.fs = MultiVolumeFs(self.ssds)
        self.page_cache = PageCache()

        self.nvme_drivers = [
            HostNvmeDriver(
                sim, self.fabric, self.cpu, costs, ssd, self.irq,
                sq_addr=self.control.take(64 * 256, align=4096),
                cq_addr=self.control.take(16 * 256, align=4096),
                prp_pool_addr=self.control.take(4096 * 256, align=4096))
            for ssd in self.ssds]
        self.nvme_driver = self.nvme_drivers[0]
        self.nic_driver = HostNicDriver(
            sim, self.cpu, costs, self.nic, self.irq,
            tx_ring_addr=self.control.take(32 * 256, align=4096),
            tx_status_addr=self.control.take(64, align=64),
            rx_desc_addr=self.control.take(32 * 256, align=4096),
            rx_cmpl_addr=self.control.take(32 * 256, align=4096),
            rx_status_addr=self.control.take(64, align=64),
            rx_buffer_base=self.control.take(2 * KIB * 256, align=4096),
            tx_hdr_area=self.control.take(64 * 256, align=64))
        self.gpu_driver: Optional[HostGpuDriver] = (
            HostGpuDriver(sim, self.cpu, costs, self.gpu)
            if self.gpu is not None else None)

        self.kernel = HostKernel(
            sim, self.fabric, self.cpu, costs, self.fs, self.nvme_drivers,
            self.nic_driver, self.gpu_driver)
        # 64 KiB nothing uses.  It stays because dropping it moves the HDC
        # completion ring allocated after it, which changes the golden
        # trace digests and fig11.jsonl (their `addr` fields only); that
        # waits for a deliberate golden update.
        self.control.take(64 * 1024, align=64)

    # -- wiring ---------------------------------------------------------------

    def connect_network(self, wire: Wire):
        """Attach the NIC to a wire and arm its receive ring.

        Returns the (already started) arming process; callers may run
        the simulator over it before traffic starts.
        """
        self.nic.connect(wire)
        return self.sim.process(self.nic_driver.start())

    # -- setup helpers ----------------------------------------------------------

    def install_file(self, name: str, data: bytes,
                     volume: Optional[int] = None) -> None:
        """Pre-load a file onto an SSD volume (functional, no timing)."""
        self.fs.install(name, data, volume=volume)

    def alloc_buffer(self, size: int) -> int:
        """Allocate a contiguous kernel data buffer; returns its address."""
        return self.buffers.alloc_bytes(size)

    def free_buffer(self, addr: int, size: int) -> None:
        """Free a buffer allocated by :meth:`alloc_buffer`."""
        self.buffers.free_bytes(addr, size)
