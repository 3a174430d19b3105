"""The host GPU driver: memcpy setup, kernel launch, synchronization.

Models the user-mode-driver + ioctl path of CUDA-era stacks: each copy
and each launch costs CPU time, and the synchronous waits the baselines
use keep a thread occupied until the device finishes.  Categories
follow the paper's Fig 11 legend: driver control time is
``gpu-control``, transfer time is ``gpu-data-copy``, and the kernel's
own execution lands in ``hash``.
"""

from __future__ import annotations

from repro.analysis.breakdown import current_trace
from repro.devices.gpu.gpu import Gpu
from repro.host.cpu import CpuPool
from repro.host.costs import CAT, SoftwareCosts
from repro.sim.kernel import Simulator


class HostGpuDriver:
    """Synchronous control of one GPU."""

    def __init__(self, sim: Simulator, cpu: CpuPool, costs: SoftwareCosts,
                 gpu: Gpu):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.gpu = gpu

    def copy_to_gpu(self, src_addr: int, gpu_offset: int, size: int):
        """Process: H2D copy (driver setup + DMA + sync)."""
        with current_trace(self.sim).span(CAT.GPU_COPY):
            yield from self.cpu.run(self.costs.gpu_memcpy_setup, CAT.GPU_COPY)
            yield from self.gpu.copy_in(src_addr, gpu_offset, size)
            yield from self.cpu.run(self.costs.gpu_sync, CAT.GPU_COPY)

    def copy_from_gpu(self, gpu_offset: int, dst_addr: int, size: int):
        """Process: D2H copy (driver setup + DMA + sync)."""
        with current_trace(self.sim).span(CAT.GPU_COPY):
            yield from self.cpu.run(self.costs.gpu_memcpy_setup, CAT.GPU_COPY)
            yield from self.gpu.copy_out(gpu_offset, dst_addr, size)
            yield from self.cpu.run(self.costs.gpu_sync, CAT.GPU_COPY)

    def checksum(self, kind: str, gpu_offset: int, size: int,
                 result_offset: int):
        """Process: launch a checksum kernel and wait; returns the digest."""
        trace = current_trace(self.sim)
        with trace.span(CAT.GPU_CONTROL):
            yield from self.cpu.run(self.costs.gpu_launch, CAT.GPU_CONTROL)
        with trace.span(CAT.HASH):
            digest = yield from self.gpu.launch(kind, gpu_offset, size,
                                                result_offset)
        with trace.span(CAT.GPU_CONTROL):
            yield from self.cpu.run(self.costs.gpu_sync, CAT.GPU_CONTROL)
        return digest
