"""HDC Driver: the thin kernel module between applications and engine.

Paper §IV-B: the driver "interacts with the existing kernel file system
and TCP/IP network stacks to find necessary metadata such as block
addresses and TCP/IP connection information", "generates and forwards
D2D commands, and handles interrupts from HDC Engine" — and, for
consistency, "identifies the address of latest data by interacting
with the kernel virtual file system (VFS)" before bypassing the page
cache.

CPU accounting: everything the driver does lands in
:data:`CAT.HDC_DRIVER` except completion handling (IRQ + wakeup), which
stays in :data:`CAT.COMPLETION` so Fig 11's components line up.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.breakdown import current_trace
from repro.core.command import (COMPLETION_SIZE, D2DCommand, D2DCompletion,
                                D2DKind, D2DStatus, D2D_COMMAND_SIZE,
                                FLAG_APPEND_DIGEST)
from repro.core.engine import HDCEngine
from repro.core.host_interface import COMMAND_QUEUE_DEPTH
from repro.core.ndp.registry import FUNC_NONE, func_id
from repro.devices.nvme.commands import LBA_SIZE
from repro.errors import ConfigurationError, DeviceError, DeviceTimeout
from repro.faults import D2D_WATCHDOG_POLICY, active_faults, watchdog
from repro.host.costs import CAT
from repro.host.machine import Host
from repro.net.tcp import TcpFlow
from repro.sim.resources import WaiterTable
from repro.units import KIB, PAGE


class HdcDriver:
    """Host-resident control of one HDC Engine."""

    def __init__(self, host: Host, engine: HDCEngine,
                 completion_ring_addr: int):
        self.sim = host.sim
        self.host = host
        self.engine = engine
        self.completion_ring_addr = completion_ring_addr
        self._next_d2d_id = 1
        self._cmd_tail = 0
        self._cpl_head = 0
        self._written: set[int] = set()
        self._announced = 0
        # Flow control (at most depth-1 D2D commands in flight) and the
        # d2d_id -> waiter table; a completion for a command whose
        # watchdog expired counts as stale.
        self.commands = WaiterTable(self.sim, COMMAND_QUEUE_DEPTH - 1)
        self._flow_ids: Dict[int, int] = {}  # flow.uid -> engine flow id
        self.watchdog_policy = D2D_WATCHDOG_POLICY
        host.irq.register(engine.port, vector=0, handler=self._on_irq)

    # -- construction ---------------------------------------------------------

    @classmethod
    def install(cls, host: Host,
                ndp_functions: Optional[list[str]] = None,
                in_order_completion: bool = True,
                nvme_rings_in_host: bool = False,
                bulk_transfer: bool = True,
                ndp_target_gbps: float = 10.0
                ) -> Tuple["HdcDriver", HDCEngine]:
        """Create an engine on ``host``'s fabric and bind a driver to it.

        ``nvme_rings_in_host`` and ``bulk_transfer`` are ablation hooks
        (DESIGN.md §5): queue pairs in host DRAM instead of engine BRAM,
        and single-block/one-packet commands instead of PRP-list + LSO
        bulk transfers.
        """
        ring = host.control.take(COMPLETION_SIZE * COMMAND_QUEUE_DEPTH,
                                 align=4096)
        rings_addr = (host.control.take(128 * KIB, align=4096)
                      if nvme_rings_in_host else None)
        engine = HDCEngine(host.sim, host.fabric, host.ssds, host.nic,
                           completion_ring_addr=ring,
                           ndp_functions=ndp_functions,
                           in_order_completion=in_order_completion,
                           nvme_rings_addr=rings_addr,
                           bulk_transfer=bulk_transfer,
                           ndp_target_gbps=ndp_target_gbps)
        return cls(host, engine, ring), engine

    def start(self):
        """Process: arm the engine's NIC receive path."""
        return self.engine.start()

    # -- connection offload ------------------------------------------------------

    def register_flow(self, flow: TcpFlow) -> int:
        """Offload a connection's data path to the engine."""
        flow_id = self.engine.register_flow(flow)
        self._flow_ids[flow.uid] = flow_id
        return flow_id

    def flow_id(self, flow: TcpFlow) -> int:
        try:
            return self._flow_ids[flow.uid]
        except KeyError:
            raise ConfigurationError(
                "flow not offloaded to the engine") from None

    # -- metadata -------------------------------------------------------------------

    def _file_slba(self, name: str, offset: int, size: int):
        """Process: resolve a file range to (volume, contiguous SLBA).

        Includes the page-cache consistency probe: dirty pages covering
        the range are flushed through the host NVMe driver first so the
        engine reads the latest data (paper §IV-B).
        """
        costs = self.host.costs
        with current_trace(self.sim).span(CAT.HDC_DRIVER):
            # Extent + connection metadata through the VFS, with the
            # dentry/extent results cached across requests (the driver
            # keeps per-fd state, §IV-A).
            yield from self.host.cpu.run(costs.hdc_metadata, CAT.HDC_DRIVER)
        volume = self.host.fs.volume_of(name)
        extents = self.host.fs.extents_for(name, offset, size)
        if len(extents) != 1:
            raise DeviceError(
                "HDC commands need one contiguous extent; got "
                f"{len(extents)}")
        first_page = offset // PAGE
        npages = -(-size // PAGE)
        dirty = self.host.page_cache.dirty_pages(name, first_page, npages)
        for page_index in dirty:
            data = self.host.page_cache.dirty_data(name, page_index)
            buf = self.host.alloc_buffer(PAGE)
            self.host.fabric.address_map.write(buf, data)
            page_extents = self.host.fs.extents_for(name, page_index * PAGE,
                                                    PAGE)
            yield from self.host.nvme_drivers[volume].write(
                page_extents[0].slba, PAGE, buf)
            self.host.page_cache.mark_clean(name, page_index)
            self.host.free_buffer(buf, PAGE)
        return volume, extents[0].slba

    # -- submission --------------------------------------------------------------------

    def submit(self, kind: D2DKind, src: int, dst: int, length: int,
               func: str = "none", append_digest: bool = False,
               aux: int = 0):
        """Process: build, submit and await one D2D command.

        Returns the :class:`D2DCompletion`; merges the engine's stage
        profile into the running request's trace.
        """
        costs = self.host.costs
        trace = current_trace(self.sim)
        # Full-queue submitters park until a completion hands them its
        # slot — no polling quantum.
        yield from self.commands.admit()
        d2d_id = self._next_d2d_id
        self._next_d2d_id += 1
        # Reserve the command slot *before* any yield — concurrent
        # ioctls must not race on the tail.
        slot_index = self._cmd_tail
        self._cmd_tail += 1
        fid = func_id(func) if func != "none" else FUNC_NONE
        flags = FLAG_APPEND_DIGEST if append_digest else 0
        command = D2DCommand(d2d_id=d2d_id, kind=kind, src=src, dst=dst,
                             length=length, func=fid, flags=flags, aux=aux)
        with trace.span(CAT.HDC_DRIVER):
            yield from self.host.cpu.run(costs.hdc_build_command,
                                         CAT.HDC_DRIVER)
            # Write the 64-byte command into the engine's BRAM queue,
            # then ring the doorbell (posted writes; PCIe preserves
            # their order from one root port).
            slot = self.engine.host_interface.command_slot_addr(slot_index)
            yield from self.host.fabric.mmio_write("host", slot,
                                                   command.pack())
            self._written.add(slot_index)
            # Announce only the contiguous frontier of written slots:
            # a doorbell must never cover a slot a concurrent ioctl has
            # reserved but not yet written.
            while self._announced in self._written:
                self._written.remove(self._announced)
                self._announced += 1
            yield from self.host.cpu.run(costs.hdc_submit, CAT.HDC_DRIVER)
            yield from self.host.fabric.mmio_write(
                "host", self.engine.host_interface.doorbell_addr,
                (self._announced & 0xFFFFFFFF).to_bytes(4, "little"))
        waiter = self.commands.expect(d2d_id)
        submit_done = self.sim.now
        # Watchdog (armed only when faults are injectable): a lost
        # MSI/completion surfaces as DeviceTimeout instead of
        # deadlocking sim.run() forever.
        if active_faults(self.sim) is not None:
            watchdog(self.sim, waiter,
                     self.watchdog_policy.deadline_for(length),
                     f"D2D command {d2d_id}", d2d_id=d2d_id)
        try:
            completion, irq_at = yield waiter
        except DeviceTimeout:
            # Abandon the command: its queue slot is freed now, and a
            # late completion for it counts as stale.
            self.commands.forget(d2d_id)
            self.engine.task_stats.pop(d2d_id, {})
            raise
        # Attribute the engine window using its stage profile.
        stats = self.engine.task_stats.pop(d2d_id, {})
        profiled = sum(stats.values())
        window = irq_at - submit_done
        for category, duration in stats.items():
            trace.add(category, duration)
        trace.add(CAT.SCOREBOARD, max(0, window - profiled))
        trace.add(CAT.COMPLETION, self.sim.now - irq_at)
        with trace.span(CAT.COMPLETION):
            # Directed wakeup of the blocked ioctl caller.
            yield from self.host.cpu.run(costs.wakeup_blocked,
                                         CAT.COMPLETION)
        if not completion.ok:
            raise DeviceError(
                f"D2D command {d2d_id} failed with status "
                f"{D2DStatus.describe(completion.status)}")
        return completion

    # -- completion path ----------------------------------------------------------------

    def _on_irq(self) -> None:
        self.sim.spawn(self._irq_handler(self.sim.now))

    def _irq_handler(self, irq_at: int):
        costs = self.host.costs
        yield from self.host.cpu.run(
            costs.interrupt_entry + costs.hdc_complete, CAT.COMPLETION)
        while True:
            slot = self._cpl_head % COMMAND_QUEUE_DEPTH
            addr = self.completion_ring_addr + slot * COMPLETION_SIZE
            raw = self.host.fabric.address_map.read(addr, COMPLETION_SIZE)
            completion = D2DCompletion.unpack(raw)
            if completion.d2d_id == 0:
                break
            self.host.fabric.address_map.write(addr, bytes(COMPLETION_SIZE))
            self._cpl_head += 1
            self.commands.deliver(completion.d2d_id, (completion, irq_at))

    # -- high-level operations -------------------------------------------------------------

    def sendfile(self, name: str, offset: int, size: int, flow: TcpFlow,
                 func: str = "none", append_digest: bool = False):
        """Process: SSD→(NDP)→NIC, the paper's flagship D2D path."""
        volume, slba = yield from self._file_slba(name, offset, size)
        return (yield from self.submit(
            D2DKind.SSD_TO_NIC, src=slba, dst=self.flow_id(flow),
            length=size, func=func, append_digest=append_digest,
            aux=volume))

    def recvfile(self, flow: TcpFlow, name: str, offset: int, size: int,
                 func: str = "none"):
        """Process: NIC→(NDP)→SSD (e.g. Swift PUT, HDFS receive)."""
        volume, slba = yield from self._file_slba(name, offset, size)
        return (yield from self.submit(
            D2DKind.NIC_TO_SSD, src=self.flow_id(flow), dst=slba,
            length=size, func=func, aux=volume << 8))

    def read_to_host(self, name: str, offset: int, size: int,
                     host_addr: int, func: str = "none"):
        """Process: SSD→(NDP)→host DRAM."""
        volume, slba = yield from self._file_slba(name, offset, size)
        return (yield from self.submit(
            D2DKind.SSD_TO_HOST, src=slba, dst=host_addr, length=size,
            func=func, aux=volume))

    def send_from_host(self, host_addr: int, size: int, flow: TcpFlow,
                       func: str = "none", append_digest: bool = False):
        """Process: host DRAM→(NDP)→NIC."""
        return (yield from self.submit(
            D2DKind.HOST_TO_NIC, src=host_addr, dst=self.flow_id(flow),
            length=size, func=func, append_digest=append_digest))

    def recv_to_host(self, flow: TcpFlow, size: int, host_addr: int,
                     func: str = "none"):
        """Process: NIC→(NDP)→host DRAM."""
        return (yield from self.submit(
            D2DKind.NIC_TO_HOST, src=self.flow_id(flow), dst=host_addr,
            length=size, func=func))

    def copyfile(self, src_name: str, src_offset: int, dst_name: str,
                 dst_offset: int, size: int, func: str = "none"):
        """Process: SSD→(NDP)→SSD — a local D2D copy (or transform:
        encrypt/compress at rest), possibly across volumes, that never
        touches the host."""
        src_vol, src_slba = yield from self._file_slba(src_name, src_offset,
                                                       size)
        dst_vol, dst_slba = yield from self._file_slba(dst_name, dst_offset,
                                                       size)
        return (yield from self.submit(
            D2DKind.SSD_TO_SSD, src=src_slba, dst=dst_slba, length=size,
            func=func, aux=src_vol | (dst_vol << 8)))
