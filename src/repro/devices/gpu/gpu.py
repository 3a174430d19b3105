"""The GPU device model (Tesla K20m-class).

The baselines in the paper use the GPU exactly one way: as a bump in
the wire for intermediate processing — copy data in (or let a peer DMA
it in, GPUDirect-style), launch a checksum/encryption kernel, copy the
result out.  The model therefore provides a copy engine, a kernel
execution engine with launch overhead, and a fabric-addressable device
memory window (the GPUDirect/DirectGMA BAR) so that SSDs can P2P-DMA
into GPU memory in the software-controlled-P2P scheme.

Kernel *results* are computed functionally through the same digest
table the NDP units use (:data:`repro.algos.DIGESTS`, backed by
``hashlib`` / ``zlib``), so a GPU-computed MD5 and an NDP-computed MD5
agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.algos import DIGESTS
from repro.devices.base import PcieDevice
from repro.errors import DeviceError
from repro.pcie.link import LINK_GEN2_X16, LinkConfig
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes
from repro.units import MIB, Rate, gbps, usec


@dataclass(frozen=True)
class KernelSpec:
    """One offload kernel: functional result + streaming throughput."""

    name: str
    fn: Callable[[bytes], bytes]
    rate: Rate


# Throughputs are single-stream effective rates on a K20m-class part:
# hashing is latency-bound and far below peak FLOPs; CRC is table lookups.
_KERNELS: Dict[str, KernelSpec] = {
    "md5": KernelSpec("md5", DIGESTS["md5"], gbps(20)),
    "sha1": KernelSpec("sha1", DIGESTS["sha1"], gbps(18)),
    "sha256": KernelSpec("sha256", DIGESTS["sha256"], gbps(14)),
    "crc32": KernelSpec("crc32", DIGESTS["crc32"], gbps(45)),
}


@dataclass(frozen=True)
class GpuConfig:
    """Static GPU parameters."""

    model: str
    link: LinkConfig
    memory_bytes: int = 512 * MIB
    launch_overhead: int = usec(7)   # device-side pipeline setup per launch
    copy_engines: int = 2


TESLA_K20M = GpuConfig(model="NVIDIA Tesla K20m", link=LINK_GEN2_X16)


class Gpu(PcieDevice):
    """A GPU with exposed device memory and checksum kernels."""

    def __init__(self, sim: Simulator, fabric: Fabric, name: str,
                 bar_base: int, config: GpuConfig = TESLA_K20M):
        super().__init__(sim, fabric, name, config.link)
        self.config = config
        # The GPUDirect-exposed device memory window: peers may DMA here.
        self.dram = self.add_region("dram", bar_base, config.memory_bytes)
        self._copy_engines = Lanes(sim, config.copy_engines)
        self._exec_engine = Lanes(sim)
        self.kernels_launched = 0
        metrics = sim.metrics
        if metrics is None:
            self._m_copy = self._m_exec = None
        else:
            self._m_copy = metrics.timegauge(
                "gpu.copy_busy", node=fabric.name, dev=name)
            self._m_exec = metrics.timegauge(
                "gpu.exec_busy", node=fabric.name, dev=name)

    # -- memory helpers ------------------------------------------------------

    def mem_addr(self, offset: int) -> int:
        """Fabric address of ``offset`` within GPU memory."""
        if not 0 <= offset < self.config.memory_bytes:
            raise DeviceError(f"GPU memory offset {offset} out of range")
        return self.dram.base + offset

    # -- copy engine ----------------------------------------------------------

    def copy_in(self, src_addr: int, gpu_offset: int, size: int):
        """Process: H2D (or peer-to-device) copy via the GPU's DMA engine."""
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "gpu.copy", track=f"dev:{self.name}", name=f"copy-in {size}B",
            direction="in", size=size)
        yield from self._copy_engines.acquire()
        if self._m_copy is not None:
            self._m_copy.inc()
        try:
            data = yield from self.dma_read(src_addr, size)
            self.dram.write(self.mem_addr(gpu_offset), data)
        finally:
            if self._m_copy is not None:
                self._m_copy.dec()
            self._copy_engines.release()
        if span is not None:
            span.end()

    def copy_out(self, gpu_offset: int, dst_addr: int, size: int):
        """Process: D2H (or device-to-peer) copy via the GPU's DMA engine."""
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "gpu.copy", track=f"dev:{self.name}", name=f"copy-out {size}B",
            direction="out", size=size)
        yield from self._copy_engines.acquire()
        if self._m_copy is not None:
            self._m_copy.inc()
        try:
            data = self.dram.read(self.mem_addr(gpu_offset), size)
            yield from self.dma_write(dst_addr, data)
        finally:
            if self._m_copy is not None:
                self._m_copy.dec()
            self._copy_engines.release()
        if span is not None:
            span.end()

    # -- kernels ---------------------------------------------------------------

    @staticmethod
    def kernel_names() -> list[str]:
        """The offload kernels this model ships."""
        return sorted(_KERNELS)

    def launch(self, kernel: str, in_offset: int, size: int,
               out_offset: int):
        """Process: run ``kernel`` over GPU memory; returns the digest.

        The digest is also written into GPU memory at ``out_offset`` so
        baselines can D2H-copy it back the way real code does.
        """
        spec = _KERNELS.get(kernel)
        if spec is None:
            raise DeviceError(f"unknown GPU kernel {kernel!r}; "
                              f"have {self.kernel_names()}")
        if size <= 0:
            raise DeviceError(f"kernel input size must be positive: {size}")
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "gpu.exec", track=f"dev:{self.name}",
            name=f"{kernel} {size}B", kernel=kernel, size=size)
        yield from self._exec_engine.acquire()
        if self._m_exec is not None:
            self._m_exec.inc()
        try:
            yield self.sim.timeout(self.config.launch_overhead
                                   + spec.rate.duration(size))
            data = self.dram.read(self.mem_addr(in_offset), size)
            digest = spec.fn(data)
            self.dram.write(self.mem_addr(out_offset), digest)
        finally:
            if self._m_exec is not None:
                self._m_exec.dec()
            self._exec_engine.release()
        self.kernels_launched += 1
        if span is not None:
            span.end()
        return digest
