"""The host kernel facade: timed storage, network and checksum services.

Schemes compose these calls into end-to-end pipelines.  Each service
charges CPU through the host's pool (utilization figures) and annotates
the running request's :class:`~repro.analysis.breakdown.LatencyTrace`
(latency figures), read through
:func:`~repro.analysis.breakdown.current_trace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.algos import DIGESTS
from repro.analysis.breakdown import current_trace
from repro.devices.nvme.commands import LBA_SIZE
from repro.errors import ConfigurationError
from repro.host.cpu import CpuPool
from repro.host.costs import CAT, SoftwareCosts
from repro.host.kernel.filesystem import MultiVolumeFs

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.host.drivers.gpu_driver import HostGpuDriver
    from repro.host.drivers.nic_driver import HostNicDriver
    from repro.host.drivers.nvme_driver import HostNvmeDriver
from repro.net.packet import HEADER_LEN, TCP_MSS
from repro.net.tcp import FlowTable, TcpFlow
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Signal
from repro.units import KIB, PAGE


class _RxStream:
    """Per-flow in-order receive stream assembled by the NAPI path."""

    def __init__(self, sim: Simulator):
        self.buffer = bytearray()
        self._wake = Signal(sim)

    def append(self, payload: bytes) -> None:
        self.buffer.extend(payload)
        self._wake.notify()

    def take(self, size: int):
        """Process: wait until ``size`` bytes are buffered, then pop them."""
        while len(self.buffer) < size:
            yield self._wake.wait()
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data


class HostKernel:
    """Composable kernel services for one host."""

    MAX_LSO = 64 * KIB

    def __init__(self, sim: Simulator, fabric: Fabric, cpu: CpuPool,
                 costs: SoftwareCosts, fs: "MultiVolumeFs",
                 nvme_drivers: list["HostNvmeDriver"],
                 nic: Optional["HostNicDriver"],
                 gpu: Optional["HostGpuDriver"]):
        self.sim = sim
        self.fabric = fabric
        self.cpu = cpu
        self.costs = costs
        self.fs = fs
        self.nvme_drivers = nvme_drivers
        self.nvme = nvme_drivers[0]
        self.nic = nic
        self.gpu = gpu
        self._flows = FlowTable()
        self._streams: Dict[int, _RxStream] = {}   # flow.uid -> stream
        if nic is not None:
            nic.deliver = self._deliver_frame

    # -- syscall boundary ------------------------------------------------------

    def syscall_enter(self):
        """Process: the user→kernel crossing."""
        with current_trace(self.sim).span(CAT.KERNEL_OTHER):
            yield from self.cpu.run(self.costs.syscall_entry,
                                    CAT.KERNEL_OTHER)

    def syscall_exit(self):
        """Process: the kernel→user crossing."""
        with current_trace(self.sim).span(CAT.KERNEL_OTHER):
            yield from self.cpu.run(self.costs.syscall_exit,
                                    CAT.KERNEL_OTHER)

    # -- storage ---------------------------------------------------------------

    def _resolve(self, name: str, offset: int, size: int):
        """Process: VFS + extent lookup; returns the extent list."""
        with current_trace(self.sim).span(CAT.FILESYSTEM):
            yield from self.cpu.run(
                self.costs.vfs_lookup + self.costs.extent_lookup,
                CAT.FILESYSTEM)
        return self.fs.extents_for(name, offset, _block_align(size))

    def _driver_for(self, name: str) -> "HostNvmeDriver":
        return self.nvme_drivers[self.fs.volume_of(name)]

    def file_read_direct(self, name: str, offset: int, size: int,
                         buf_addr: int):
        """Process: direct-I/O read (page cache bypassed) into ``buf_addr``.

        This is the optimized-software read path every measured design
        shares (paper §III-E); returns the number of bytes read.
        """
        extents = yield from self._resolve(name, offset, size)
        driver = self._driver_for(name)
        dest = buf_addr
        for extent in extents:
            yield from driver.read(extent.slba, extent.nbytes, dest)
            dest += extent.nbytes
        return size

    def file_write_direct(self, name: str, offset: int, size: int,
                          buf_addr: int):
        """Process: direct-I/O write from ``buf_addr``."""
        extents = yield from self._resolve(name, offset, size)
        driver = self._driver_for(name)
        src = buf_addr
        for extent in extents:
            yield from driver.write(extent.slba, extent.nbytes, src)
            src += extent.nbytes
        return size

    def file_read_buffered(self, name: str, offset: int, size: int,
                           buf_addr: int):
        """Process: the *unoptimized* buffered read path (Fig 8's "Linux").

        Pays page-cache lookup/insert per page and a kernel→user copy on
        top of the direct path.
        """
        trace = current_trace(self.sim)
        npages = -(-_block_align(size) // PAGE)
        with trace.span(CAT.FILESYSTEM):
            yield from self.cpu.run(
                self.costs.page_cache_check
                + npages * self.costs.page_cache_per_page,
                CAT.FILESYSTEM)
        yield from self.file_read_direct(name, offset, size, buf_addr)
        with trace.span(CAT.FILESYSTEM):
            yield from self.cpu.run(
                npages * self.costs.page_cache_per_page, CAT.FILESYSTEM)
        with trace.span(CAT.DATA_COPY):
            yield from self.cpu.run(self.costs.copy_cost(size), CAT.DATA_COPY)
        return size

    # -- network -----------------------------------------------------------------

    def register_flow(self, flow: TcpFlow) -> None:
        """Install an established connection into the socket layer."""
        self._flows.add(flow)
        self._streams[flow.uid] = _RxStream(self.sim)

    @property
    def frames_discarded(self) -> int:
        """Received frames the socket layer dropped (after a sequence
        gap, or for another address); NAPI stays alive for the rest."""
        return self._flows.discarded

    def _deliver_frame(self, frame: bytes) -> None:
        payload = frame[HEADER_LEN:]
        flow = self._flows.receive(frame, payload)
        if flow is not None and payload:
            self._streams[flow.uid].append(payload)

    def socket_send(self, flow: TcpFlow, payload_addr: int, size: int,
                    copy_from_user: bool = False):
        """Process: send ``size`` bytes already staged at ``payload_addr``.

        CPU costs: socket call + buffer management + per-segment TCP
        work (network), one descriptor per 64 KiB LSO batch (device
        control via the driver).  ``copy_from_user`` adds the classic
        user→kernel copy the optimized stacks avoid.
        """
        if self.nic is None:
            raise ConfigurationError("host has no NIC")
        trace = current_trace(self.sim)
        if copy_from_user:
            with trace.span(CAT.DATA_COPY):
                yield from self.cpu.run(self.costs.copy_cost(size),
                                        CAT.DATA_COPY)
        with trace.span(CAT.NETWORK):
            yield from self.cpu.run(
                self.costs.socket_call + self.costs.socket_buffer_mgmt,
                CAT.NETWORK)
        sent = 0
        while sent < size or (size == 0 and sent == 0):
            batch = min(self.MAX_LSO, size - sent)
            nsegs = max(1, -(-batch // TCP_MSS))
            with trace.span(CAT.NETWORK):
                yield from self.cpu.run(
                    self.costs.skb_alloc + nsegs * self.costs.tcp_per_segment,
                    CAT.NETWORK)
            yield from self.nic.send(flow.lso_header(batch),
                                     payload_addr + sent, batch)
            sent += batch
            if size == 0:
                break
        return size

    def socket_recv(self, flow: TcpFlow, size: int, gather_addr: int):
        """Process: receive exactly ``size`` bytes into ``gather_addr``.

        Waits for the NAPI path to assemble the stream, then pays the
        gather copy into contiguous memory (the "data gathering
        problem", paper §V-C2) and writes the bytes there.
        """
        stream = self._streams.get(flow.uid)
        if stream is None:
            raise ConfigurationError("flow not registered")
        trace = current_trace(self.sim)
        with trace.span(CAT.NETWORK):
            yield from self.cpu.run(
                self.costs.socket_call + self.costs.socket_buffer_mgmt,
                CAT.NETWORK)
        data = yield from stream.take(size)
        with trace.span(CAT.DATA_COPY):
            yield from self.cpu.run(self.costs.copy_cost(size),
                                    CAT.DATA_COPY)
        self.fabric.address_map.write(gather_addr, data)
        return data

    # -- CPU checksum ----------------------------------------------------------

    def cpu_checksum(self, kind: str, buf_addr: int, size: int):
        """Process: checksum ``size`` bytes on a CPU core; returns digest."""
        with current_trace(self.sim).span(CAT.HASH):
            yield from self.cpu.run(self.costs.cpu_hash_cost(kind, size),
                                    CAT.HASH)
        data = self.fabric.address_map.read(buf_addr, size)
        digest = DIGESTS.get(kind)
        if digest is None:
            raise ConfigurationError(f"unsupported CPU checksum {kind!r}")
        return digest(data)


def _block_align(size: int) -> int:
    return size + (-size % LBA_SIZE)
