"""The host NVMe driver: queue pairs in host DRAM, MSI completions.

This is the software control path the paper measures against: every
I/O pays command building and submission on a CPU (device control) and
an interrupt + completion handling + wakeup on a CPU (request
completion).  The driver attributes the in-between time — when only
the device is working — to :data:`CAT.READ` / :data:`CAT.WRITE` on the
running request's latency trace.
"""

from __future__ import annotations

from repro.analysis.breakdown import current_trace
from repro.devices.nvme.client import NvmeClient
from repro.devices.nvme.commands import LBA_SIZE, OP_READ, OP_WRITE
from repro.devices.nvme.ssd import NvmeSsd
from repro.errors import DeviceError, ProtocolError
from repro.faults import HOST_NVME_POLICY
from repro.host.cpu import CpuPool
from repro.host.costs import CAT, SoftwareCosts
from repro.host.kernel.interrupts import InterruptController
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.units import PAGE


class HostNvmeDriver:
    """Submitter + interrupt-driven completer for one NVMe SSD."""

    QUEUE_DEPTH = 256

    def __init__(self, sim: Simulator, fabric: Fabric, cpu: CpuPool,
                 costs: SoftwareCosts, ssd: NvmeSsd,
                 irq: InterruptController, sq_addr: int, cq_addr: int,
                 prp_pool_addr: int, qid: int = 1):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.ssd = ssd
        self.qp = ssd.create_io_queue(qid, sq_addr, cq_addr,
                                      self.QUEUE_DEPTH, interrupt=True)
        irq.register(ssd.name, vector=qid, handler=self._on_irq)
        self._irq_busy = False
        # One PRP-list page per command.
        self.client = NvmeClient(
            sim, self.qp, "host", prp_pool_addr, PAGE, HOST_NVME_POLICY,
            "host NVMe", owner=f"{fabric.name}:host-nvme:{ssd.name}")

    # -- submission ----------------------------------------------------------

    def submit_io(self, opcode: int, slba: int, nbytes: int, buf_addr: int):
        """Process: submit one I/O and wait for its completion.

        Returns the CQE.  CPU costs: block+NVMe submission (device
        control); IRQ + CQ handling + wakeup (request completion).
        """
        if nbytes % LBA_SIZE:
            raise ProtocolError(f"I/O of {nbytes} bytes is not block-sized")
        trace = current_trace(self.sim)

        def issue():
            cid = yield from self.client.admit()
            with trace.span(CAT.DEVICE_CONTROL):
                yield from self.cpu.run(
                    self.costs.block_submit + self.costs.nvme_submit,
                    CAT.DEVICE_CONTROL)
                waiter = yield from self.client.issue(
                    cid, opcode, slba, nbytes, buf_addr)
            return cid, waiter

        def settle(cqe, submitted, irq_at):
            device_cat = CAT.READ if opcode == OP_READ else CAT.WRITE
            trace.add(device_cat, irq_at - submitted)
            trace.add(CAT.COMPLETION, self.sim.now - irq_at)
            with trace.span(CAT.COMPLETION):
                # The waiting context reschedules after the IRQ wakeup.
                yield from self.cpu.run(self.costs.context_switch,
                                        CAT.COMPLETION)
            if not cqe.ok:
                raise DeviceError(
                    f"NVMe I/O failed with status {cqe.status} "
                    f"(opcode {opcode}, slba {slba}, {nbytes} bytes)")
            return cqe

        return (yield from self.client.command(issue, slba, nbytes, settle))

    def _split_io(self, opcode: int, slba: int, nbytes: int, buf_addr: int):
        """Process: split an I/O at the device's MDTS and pipeline the
        pieces (the block layer splits bios the same way); the pieces
        inherit the request trace of the process that spawns them."""
        mdts = self.ssd.config.max_transfer
        if nbytes <= mdts:
            return (yield from self.submit_io(opcode, slba, nbytes,
                                              buf_addr))
        parts = [self.sim.process(self.submit_io(
            opcode, slba + offset // LBA_SIZE, min(mdts, nbytes - offset),
            buf_addr + offset)) for offset in range(0, nbytes, mdts)]
        for part in parts:
            last = yield part
        return last

    def read(self, slba: int, nbytes: int, buf_addr: int):
        """Process: read blocks into ``buf_addr``; returns the last CQE."""
        return self._split_io(OP_READ, slba, nbytes, buf_addr)

    def write(self, slba: int, nbytes: int, buf_addr: int):
        """Process: write blocks from ``buf_addr``; returns the last CQE."""
        return self._split_io(OP_WRITE, slba, nbytes, buf_addr)

    # -- completion ------------------------------------------------------------

    def _on_irq(self) -> None:
        if self._irq_busy:
            return  # handler already draining; it will pick the CQE up
        self._irq_busy = True
        self.sim.spawn(self._irq_handler(self.sim.now))

    def _irq_handler(self, irq_at: int):
        yield from self.cpu.run(self.costs.interrupt_entry, CAT.COMPLETION)
        while (cqe := self.qp.poll_completion()) is not None:
            yield from self.cpu.run(self.costs.nvme_complete, CAT.COMPLETION)
            yield from self.client.complete(cqe, irq_at)
        self._irq_busy = False
