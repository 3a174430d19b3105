"""The NVMe SSD device model.

Faithful to the parts of NVMe the paper exercises:

* I/O queue pairs whose rings live in *any* fabric-addressable memory —
  host DRAM (normal driver) or HDC Engine BRAM (the paper's §IV-B
  "dedicate device queue pairs ... in HDC Engine");
* SQE fetch by DMA from ring memory, PRP walking (including PRP lists
  for multi-page transfers, §IV-C), data DMA straight to the PRP
  addresses — which is what makes SSD→engine P2P work unchanged;
* CQE posting with phase bits, CQ head doorbells, optional MSI.

Admin-queue bring-up is folded into :meth:`create_io_queue` (a
functional shortcut; queue creation is in none of the paper's
measurements).

The device never allows peers to address its internal buffers — the
paper notes the Intel 750 exposes no controller memory buffer, which is
why SSD↔NIC needs either host staging or the engine's DDR3.  We model
that by simply not mapping any SSD data window into the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.devices.base import PcieDevice
from repro.devices.nvme.commands import (CQE_SIZE, SQE_SIZE, Completion,
                                         NvmeCommand, OP_FLUSH, OP_READ,
                                         OP_WRITE, prp_pages, unpack_prp_list)
from repro.devices.nvme.flash import (FlashStore, FlashTiming,
                                      INTEL_750_TIMING)
from repro.devices.nvme.queues import QueuePair
from repro.errors import DeviceError, ProtocolError
from repro.pcie.link import LINK_GEN2_X4, LinkConfig
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes, Signal
from repro.units import KIB, PAGE, gib, usec


@dataclass(frozen=True)
class SsdConfig:
    """Static parameters of an SSD model."""

    model: str
    capacity_bytes: int
    timing: FlashTiming
    link: LinkConfig
    channels: int = 8            # concurrent flash operations
    max_transfer: int = 128 * KIB
    command_overhead: int = usec(1)  # controller firmware per command


INTEL_750_400GB = SsdConfig(
    model="Intel SSD 750 400GB",
    capacity_bytes=gib(400),
    timing=INTEL_750_TIMING,
    link=LINK_GEN2_X4,
)

_DOORBELL_BASE = 0x1000
_DOORBELL_STRIDE = 4


@dataclass
class _QueueState:
    """Device-side state of one I/O queue."""

    qid: int
    sq_addr: int
    cq_addr: int
    depth: int
    interrupt: bool
    sq_head: int = 0
    sq_tail: int = 0            # latest tail written through the doorbell
    cq_head: int = 0            # latest CQ head doorbell from the consumer
    cq_tail: int = 0
    cq_phase: int = 1
    wake: Optional[Signal] = None  # notified when the doorbell moves
    inflight: int = 0
    completed: int = 0
    post_lock: Optional[Lanes] = None
    # Metric instruments; None unless a MetricsSession is installed.
    m_sq: Optional[object] = None
    m_cq: Optional[object] = None
    m_inflight: Optional[object] = None

    def sq_depth(self) -> int:
        return (self.sq_tail - self.sq_head) % self.depth

    def cq_depth(self) -> int:
        return (self.cq_tail - self.cq_head) % self.depth


class NvmeSsd(PcieDevice):
    """An NVMe SSD attached to the fabric."""

    def __init__(self, sim: Simulator, fabric: Fabric, name: str,
                 bar_base: int, config: SsdConfig = INTEL_750_400GB):
        super().__init__(sim, fabric, name, config.link)
        self.config = config
        self.flash = FlashStore(config.capacity_bytes, sim=sim, owner=name)
        self._regs = self.add_region("regs", bar_base, 64 * KIB)
        self._regs.on_mmio_write = self._on_doorbell
        self._queues: Dict[int, _QueueState] = {}
        self._channels = Lanes(sim, config.channels)
        # Media bandwidth is shared: access latencies overlap across
        # channels, but the array's aggregate transfer rate (the
        # datasheet's 17.2/7.2 Gbps) is one pipe.
        self._media = Lanes(sim)
        self.commands_processed = 0
        self.cqes_dropped = 0
        metrics = sim.metrics
        if metrics is not None:
            labels = dict(node=fabric.name, dev=name)
            metrics.polled("nvme.commands",
                           lambda: self.commands_processed, **labels)
            metrics.polled("nvme.cqes_dropped",
                           lambda: self.cqes_dropped, **labels)

    # -- setup -------------------------------------------------------------

    def create_io_queue(self, qid: int, sq_addr: int, cq_addr: int,
                        depth: int, interrupt: bool = False) -> QueuePair:
        """Create an I/O queue pair (admin bring-up, functional).

        ``sq_addr``/``cq_addr`` may live in any mapped memory — host
        DRAM or engine BRAM.  Returns the submitter-side
        :class:`QueuePair` view.  With ``interrupt=False`` the device
        posts CQEs silently for a polling consumer (the engine).
        """
        if qid in self._queues:
            raise DeviceError(f"queue {qid} already exists on {self.name}")
        if qid <= 0:
            raise DeviceError("I/O queue ids start at 1")
        state = _QueueState(qid=qid, sq_addr=sq_addr, cq_addr=cq_addr,
                            depth=depth, interrupt=interrupt)
        state.post_lock = Lanes(self.sim)
        state.wake = Signal(self.sim)
        metrics = self.sim.metrics
        if metrics is not None:
            labels = dict(node=self.fabric.name, dev=self.name, qid=qid)
            state.m_sq = metrics.timegauge("nvme.sq_depth", **labels)
            state.m_cq = metrics.timegauge("nvme.cq_depth", **labels)
            state.m_inflight = metrics.timegauge("nvme.inflight", **labels)
        self._queues[qid] = state
        self.sim.spawn(self._queue_loop(state))
        return QueuePair(
            self.fabric, owner_port=self.name, qid=qid,
            sq_addr=sq_addr, cq_addr=cq_addr, depth=depth,
            sq_doorbell=self._sq_doorbell_addr(qid),
            cq_doorbell=self._cq_doorbell_addr(qid))

    def _sq_doorbell_addr(self, qid: int) -> int:
        return (self._regs.base + _DOORBELL_BASE
                + (2 * qid) * _DOORBELL_STRIDE)

    def _cq_doorbell_addr(self, qid: int) -> int:
        return (self._regs.base + _DOORBELL_BASE
                + (2 * qid + 1) * _DOORBELL_STRIDE)

    # -- doorbells ---------------------------------------------------------

    def _on_doorbell(self, offset: int, data: bytes) -> None:
        if offset < _DOORBELL_BASE:
            return  # controller configuration registers: ignored
        index = (offset - _DOORBELL_BASE) // _DOORBELL_STRIDE
        qid, is_cq = divmod(index, 2)
        state = self._queues.get(qid)
        if state is None:
            raise ProtocolError(f"doorbell for unknown queue {qid}")
        value = int.from_bytes(data[:4], "little")
        if value >= state.depth:
            raise ProtocolError(
                f"doorbell value {value} out of range for depth {state.depth}")
        if is_cq:
            # CQ overrun is not modeled, but the head doorbell still
            # feeds the nvme.cq_depth occupancy metric.
            state.cq_head = value
            if state.m_cq is not None:
                state.m_cq.set(state.cq_depth())
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("nvme.doorbell", track=f"dev:{self.name}",
                           name=f"sq{qid} tail={value}", qid=qid,
                           tail=value)
        state.sq_tail = value
        if state.m_sq is not None:
            state.m_sq.set(state.sq_depth())
        state.wake.notify()

    # -- command processing --------------------------------------------------

    def _queue_loop(self, state: _QueueState):
        while True:
            if state.sq_head == state.sq_tail:
                yield state.wake.wait()
                continue
            slot = state.sq_head
            state.sq_head = (state.sq_head + 1) % state.depth
            if state.m_sq is not None:
                state.m_sq.set(state.sq_depth())
            try:
                raw = yield from self.dma_read(
                    state.sq_addr + slot * SQE_SIZE, SQE_SIZE)
            except DeviceError:
                # SQE fetch lost to a link fault: the command is gone;
                # the submitter's deadline recovers it.  Keep fetching.
                continue
            command = NvmeCommand.unpack(raw)
            state.inflight += 1
            if state.m_inflight is not None:
                state.m_inflight.set(state.inflight)
            self.sim.spawn(self._execute(state, command))

    _OPCODE_NAMES = {OP_READ: "read", OP_WRITE: "write", OP_FLUSH: "flush"}

    def _execute(self, state: _QueueState, command: NvmeCommand):
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "nvme.command", track=f"dev:{self.name}",
            name=f"{self._OPCODE_NAMES.get(command.opcode, 'op')} "
                 f"{command.byte_length}B",
            qid=state.qid, cid=command.cid, opcode=command.opcode,
            slba=command.slba, size=command.byte_length)
        yield from self._channels.acquire()
        try:
            yield self.sim.timeout(self.config.command_overhead)
            status = 0
            try:
                if command.opcode == OP_READ:
                    yield from self._do_read(command)
                elif command.opcode == OP_WRITE:
                    yield from self._do_write(command)
                elif command.opcode == OP_FLUSH:
                    yield self.sim.timeout(self.config.timing.write_base)
                else:
                    status = 1  # invalid opcode
            except (DeviceError, ProtocolError):
                status = 2  # internal error surfaced as failed status
        finally:
            self._channels.release()
        yield from self._post_completion(state, command, status)
        if span is not None:
            span.end(status=status)

    def _transfer_addresses(self, command: NvmeCommand):
        """Process: resolve the command's PRPs into (addr, length) spans."""
        length = command.byte_length
        if length > self.config.max_transfer:
            raise ProtocolError(
                f"transfer of {length} exceeds MDTS {self.config.max_transfer}")
        pages = prp_pages(command.prp1, length)
        if len(pages) <= 2:
            addrs = pages if len(pages) == 1 else [command.prp1, command.prp2]
        else:
            # PRP list: fetch it from wherever the submitter built it.
            list_len = (len(pages) - 1) * 8
            raw = yield from self.dma_read(command.prp2, list_len)
            addrs = [command.prp1] + unpack_prp_list(raw)
            if len(addrs) != len(pages):
                raise ProtocolError(
                    f"PRP list has {len(addrs) - 1} entries, need "
                    f"{len(pages) - 1}")
        spans = []
        remaining = length
        for i, addr in enumerate(addrs):
            span = (PAGE - addr % PAGE) if i == 0 else PAGE
            span = min(span, remaining)
            # The DMA engine coalesces physically contiguous PRP
            # entries into one burst (every real controller does).
            if spans and spans[-1][0] + spans[-1][1] == addr:
                spans[-1] = (spans[-1][0], spans[-1][1] + span)
            else:
                spans.append((addr, span))
            remaining -= span
        return spans

    def _media_transfer(self, duration: int):
        yield from self._media.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self._media.release()

    def _do_read(self, command: NvmeCommand):
        spans = yield from self._transfer_addresses(command)
        yield self.sim.timeout(self.config.timing.read_base)
        yield from self._media_transfer(
            self.config.timing.read_rate.duration(command.byte_length))
        data = self.flash.read_blocks(command.slba, command.nlb + 1)
        offset = 0
        for addr, span in spans:
            yield from self.dma_write(addr, data[offset:offset + span])
            offset += span

    def _do_write(self, command: NvmeCommand):
        spans = yield from self._transfer_addresses(command)
        chunks = []
        for addr, span in spans:
            chunk = yield from self.dma_read(addr, span)
            chunks.append(chunk)
        data = b"".join(chunks)
        yield self.sim.timeout(self.config.timing.write_base)
        yield from self._media_transfer(
            self.config.timing.write_rate.duration(command.byte_length))
        self.flash.write_blocks(command.slba, data)

    def _post_completion(self, state: _QueueState, command: NvmeCommand,
                         status: int):
        # The completion message can be lost on its way out — injected
        # (nvme.cqe_drop) or because a link fault ate the CQE write.
        # Either way the data moved but no CQE/MSI reaches the
        # submitter, whose watchdog must act.
        faults = self.sim.faults
        dropped = (faults is not None
                   and "nvme.cqe_drop" in faults.armed_sites
                   and faults.fires("nvme.cqe_drop", device=self.name,
                                    qid=state.qid, cid=command.cid))
        if not dropped:
            # CQE posting serializes per queue to keep tail/phase
            # coherent.
            yield from state.post_lock.acquire()
            try:
                cqe = Completion(cid=command.cid, sq_head=state.sq_head,
                                 status=status, phase=state.cq_phase,
                                 sq_id=state.qid)
                tail, phase = state.cq_tail, state.cq_phase
                addr = state.cq_addr + tail * CQE_SIZE
                state.cq_tail += 1
                if state.cq_tail == state.depth:
                    state.cq_tail = 0
                    state.cq_phase ^= 1
                if state.m_cq is not None:
                    state.m_cq.set(state.cq_depth())
                try:
                    yield from self.dma_write(addr, cqe.pack())
                except DeviceError:
                    # The CQE never landed: give its slot back, so the
                    # consumer's in-order reap does not stop there.
                    state.cq_tail, state.cq_phase = tail, phase
                    if state.m_cq is not None:
                        state.m_cq.set(state.cq_depth())
                    dropped = True
            finally:
                state.post_lock.release()
        if not dropped:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant("nvme.cqe", track=f"dev:{self.name}",
                               name=f"cqe q{state.qid} cid={command.cid}",
                               qid=state.qid, cid=command.cid, status=status)
        state.inflight -= 1
        if state.m_inflight is not None:
            state.m_inflight.set(state.inflight)
        state.completed += 1
        self.commands_processed += 1
        if dropped:
            self.cqes_dropped += 1
            return
        if state.interrupt:
            try:
                yield from self.msi(vector=state.qid)
            except DeviceError:
                pass  # lost interrupt: the host driver's deadline recovers
