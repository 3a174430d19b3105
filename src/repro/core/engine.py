"""HDC Engine: the FPGA device orchestrator, assembled.

Wires together the host interface (command queue, parser, interrupt
generator), the scoreboard, the standard NVMe/NIC device controllers,
the host-DMA mover, the NDP bank and the DDR3 buffer manager, onto one
fabric port — exactly the block diagram of the paper's Figure 9.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.buffers import EngineBuffers
from repro.core.command import (D2DCommand, D2DCompletion, D2DKind,
                                D2DStatus, DeviceCommand,
                                FLAG_APPEND_DIGEST)
from repro.core.controllers.dma_ctrl import EngineDmaController
from repro.core.controllers.ndp_exec import NdpExecutor
from repro.core.controllers.nic_ctrl import EngineNicController
from repro.core.controllers.nvme_ctrl import EngineNvmeController
from repro.core.host_interface import HostInterface
from repro.core.ndp.unit import NdpBank, NdpResult
from repro.core.scoreboard import Scoreboard
from repro.devices.nic.nic import Nic
from repro.devices.nvme.ssd import NvmeSsd
from repro.errors import AllocationError, ConfigurationError
from repro.host.costs import CAT
from repro.memory.allocator import Bump
from repro.memory.region import MemoryRegion
from repro.net.tcp import TcpFlow
from repro.pcie.link import LINK_GEN2_X8
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.units import GIB, KIB, nsec

ENGINE_BAR_BASE = 0xB000_0000
ENGINE_BRAM_BASE = 0xB010_0000
ENGINE_DDR_BASE = 0xC000_0000

# Splitting one D2D command into scoreboard entries (hardware FSM).
SPLIT_TIME = nsec(80)

from repro.core.controllers.nvme_ctrl import PRP_SLOT as _PRP_SLOT


class _GatherTable:
    """Executor view of the NIC controller's receive gather table."""

    slots = 64

    def __init__(self, nic_ctrl):
        self._nic_ctrl = nic_ctrl

    def execute(self, entry):
        return self._nic_ctrl.execute(entry)


class HDCEngine:
    """The independent FPGA-based device orchestrator."""

    def __init__(self, sim: Simulator, fabric: Fabric,
                 ssd: NvmeSsd | List[NvmeSsd],
                 nic: Nic, completion_ring_addr: int,
                 port: str = "engine",
                 ndp_functions: Optional[List[str]] = None,
                 in_order_completion: bool = True,
                 nvme_rings_addr: Optional[int] = None,
                 bulk_transfer: bool = True,
                 ndp_target_gbps: float = 10.0):
        self.sim = sim
        self.fabric = fabric
        self.port = port
        fabric.add_port(port, LINK_GEN2_X8)
        self.bar = fabric.add_region(MemoryRegion(
            f"{port}-bar", base=ENGINE_BAR_BASE, size=64 * KIB, port=port))
        self.bram = fabric.add_region(MemoryRegion(
            f"{port}-bram", base=ENGINE_BRAM_BASE, size=512 * KIB, port=port))
        fabric.add_region(MemoryRegion(
            f"{port}-ddr3", base=ENGINE_DDR_BASE, size=1 * GIB, port=port,
            access_latency=120))
        self.buffers = EngineBuffers(ENGINE_DDR_BASE)

        bump = Bump(ENGINE_BRAM_BASE, 512 * KIB, "engine BRAM")
        engine_id = f"{fabric.name}:{port}"
        self.scoreboard = Scoreboard(sim,
                                     in_order_completion=in_order_completion,
                                     owner=engine_id)
        # One standard controller per SSD volume (the flexibility story:
        # adding an off-the-shelf SSD costs one more controller block).
        ssds = ssd if isinstance(ssd, list) else [ssd]
        # Ablation hook: the paper places queue pairs in engine BRAM
        # "to enable fast access of the peripheral devices" (§IV-C);
        # pass a host-DRAM base to quantify what that buys (applied to
        # every controller).
        if nvme_rings_addr is None:
            ring_bump = bump
        else:
            ring_bump = Bump(nvme_rings_addr,
                             len(ssds) * (64 * KIB + _PRP_SLOT * 64),
                             "NVMe ring area")
        self.nvme_ctrls = [
            EngineNvmeController(
                sim, fabric, vol_ssd, port,
                sq_addr=ring_bump.take(64 * 64, align=4096),
                cq_addr=ring_bump.take(16 * 64, align=4096),
                prp_area=ring_bump.take(_PRP_SLOT * 64, align=4096),
                max_chunk=None if bulk_transfer else 4096)
            for vol_ssd in ssds]
        self.nvme_ctrl = self.nvme_ctrls[0]
        self.nic_ctrl = EngineNicController(
            sim, fabric, nic, port, self.buffers, self.bram,
            tx_ring_addr=bump.take(32 * 256, align=4096),
            tx_status_addr=bump.take(64, align=64),
            rx_desc_addr=bump.take(32 * 256, align=4096),
            rx_cmpl_addr=bump.take(32 * 256, align=4096),
            rx_status_addr=bump.take(64, align=64),
            rx_hdr_area=bump.take(64 * 256, align=64),
            tx_hdr_area=bump.take(64 * 64, align=64),
            max_batch=(64 * KIB) if bulk_transfer else 1460)
        self.dma_ctrl = EngineDmaController(sim, fabric, port)
        self.ndp = NdpBank(sim, ndp_functions, target_gbps=ndp_target_gbps)
        self.ndp_exec = NdpExecutor(sim, fabric, self.ndp)

        for index, ctrl in enumerate(self.nvme_ctrls):
            self.scoreboard.register_executor(f"nvme{index}", ctrl)
        self.scoreboard.register_executor("nic", self.nic_ctrl)
        # Receives park in the controller's gather table (64 entries),
        # not in the TX execution pipe — a parked receive must never
        # block a transmit, or cross-node request cycles deadlock.
        self.scoreboard.register_executor("nic-rx",
                                          _GatherTable(self.nic_ctrl))
        self.scoreboard.register_executor("dma", self.dma_ctrl)
        self.scoreboard.register_executor("ndp", self.ndp_exec)

        self.host_interface = HostInterface(
            sim, self.bar, completion_ring_addr, port, fabric,
            self._on_command)
        sim.spawn(self._completion_pump())
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.task_stats: dict[int, dict[str, int]] = {}
        self._task_started: dict[int, int] = {}
        metrics = sim.metrics
        if metrics is None:
            self._m_d2d = None
        else:
            metrics.polled("engine.ddr3_bytes_in_use",
                           lambda: self.buffers.bytes_in_use,
                           engine=engine_id)
            metrics.polled("engine.bram_bytes_in_use",
                           lambda: bump.used, engine=engine_id)
            metrics.polled("faults.aborts", lambda: self.tasks_failed,
                           engine=engine_id)
            self._m_d2d = metrics.histogram("engine.d2d_latency_ns",
                                            engine=engine_id)

    # -- bring-up ------------------------------------------------------------

    def start(self):
        """Process: arm the NIC controller's receive path."""
        return self.nic_ctrl.start()

    def register_flow(self, flow: TcpFlow) -> int:
        """Offload an established TCP connection to the engine."""
        return self.nic_ctrl.register_flow(flow)

    # -- command handling --------------------------------------------------------

    def _on_command(self, command: D2DCommand) -> None:
        self.sim.spawn(self._handle(command))

    def _handle(self, command: D2DCommand):
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "engine.split", track=f"engine:{self.port}",
            name=f"split d2d#{command.d2d_id}", d2d_id=command.d2d_id,
            kind=int(command.kind), length=command.length)
        yield self.sim.timeout(SPLIT_TIME)
        if span is not None:
            span.end()
        try:
            entries, finalize, abort = self._plan(command)
        except (ConfigurationError, AllocationError):
            # A malformed command (bad volume, unsupported kind, no
            # buffer space) must fail its completion, not hang the
            # submitter.
            self.host_interface.post_completion(
                D2DCompletion(d2d_id=command.d2d_id,
                              status=int(D2DStatus.BAD_COMMAND)))
            return
        self._task_started[command.d2d_id] = self.sim.now
        yield from self.scoreboard.admit(command.d2d_id, entries, finalize,
                                         abort)

    @staticmethod
    def _stage_category(entry: DeviceCommand) -> str:
        """Profiling category for one device-command stage."""
        if entry.dev.startswith("nvme"):
            return CAT.READ if entry.rw == "r" else CAT.WRITE
        if entry.dev in ("nic", "nic-rx"):
            return CAT.WIRE
        if entry.dev == "ndp":
            return CAT.NDP
        return CAT.DATA_COPY  # dma

    def _record_stats(self, d2d_id: int, entries: List[DeviceCommand]) -> None:
        stats: dict[str, int] = {}
        covered = 0
        tracer = self.sim.tracer
        for entry in entries:
            category = self._stage_category(entry)
            duration = max(0, entry.done_at - entry.issued_at)
            stats[category] = stats.get(category, 0) + duration
            covered += duration
            if tracer is not None:
                tracer.complete(
                    "engine.stage", track=f"engine:{self.port}",
                    start=entry.issued_at, duration=duration,
                    name=f"{entry.dev}:{entry.rw} d2d#{d2d_id}",
                    d2d_id=d2d_id, dev=entry.dev, rw=entry.rw,
                    category=category, length=entry.length)
        window = self.sim.now - self._task_started.pop(d2d_id)
        stats[CAT.SCOREBOARD] = max(0, window - covered)
        if self._m_d2d is not None:
            self._m_d2d.observe(window)
        self.task_stats[d2d_id] = stats

    def _plan(self, cmd: D2DCommand
              ) -> Tuple[List[DeviceCommand], object, object]:
        append = bool(cmd.flags & FLAG_APPEND_DIGEST)
        buf_size = cmd.length + (16 if append else 0)
        # GZIP may expand slightly on incompressible input.
        buf_size += 64 * KIB

        # Validate everything *before* allocating the intermediate
        # buffer — a rejected command must not leak DDR3 chunks.
        # SSD endpoints carry their volume index in the aux field
        # (low byte = source volume, next byte = destination volume).
        src_vol = cmd.aux & 0xFF
        dst_vol = (cmd.aux >> 8) & 0xFF
        for vol in (src_vol, dst_vol):
            if vol >= len(self.nvme_ctrls):
                raise ConfigurationError(
                    f"no SSD volume {vol} behind this engine")
        if cmd.kind not in (D2DKind.SSD_TO_NIC, D2DKind.SSD_TO_HOST,
                            D2DKind.SSD_TO_SSD, D2DKind.NIC_TO_SSD,
                            D2DKind.NIC_TO_HOST, D2DKind.HOST_TO_NIC):
            raise ConfigurationError(f"unsupported D2D kind {cmd.kind}")

        buf = self.buffers.alloc_intermediate(buf_size)
        entries: List[DeviceCommand] = []

        # Stage 1: produce data into the intermediate buffer.
        if cmd.kind in (D2DKind.SSD_TO_NIC, D2DKind.SSD_TO_HOST,
                        D2DKind.SSD_TO_SSD):
            prev = DeviceCommand(dev=f"nvme{src_vol}", rw="r", src=cmd.src,
                                 dst=buf, length=cmd.length)
        elif cmd.kind in (D2DKind.NIC_TO_SSD, D2DKind.NIC_TO_HOST):
            prev = DeviceCommand(dev="nic-rx", rw="r", src=cmd.src, dst=buf,
                                 length=cmd.length)
        elif cmd.kind == D2DKind.HOST_TO_NIC:
            prev = DeviceCommand(dev="dma", rw="r", src=cmd.src, dst=buf,
                                 length=cmd.length)
        else:
            raise ConfigurationError(f"unsupported D2D kind {cmd.kind}")
        entries.append(prev)

        # Stage 2 (optional): intermediate processing on an NDP unit.
        ndp_entry: Optional[DeviceCommand] = None
        if cmd.func:
            ndp_entry = DeviceCommand(dev="ndp", rw="x", src=buf, dst=buf,
                                      length=cmd.length, aux=cmd.func,
                                      depends_on=prev)
            entries.append(ndp_entry)
            prev = ndp_entry

        # Stage 3: consume the buffer.
        if cmd.kind in (D2DKind.SSD_TO_NIC, D2DKind.HOST_TO_NIC):
            out = DeviceCommand(dev="nic", rw="w", src=buf, dst=cmd.dst,
                                length=cmd.length, depends_on=prev)
        elif cmd.kind in (D2DKind.NIC_TO_SSD, D2DKind.SSD_TO_SSD):
            out = DeviceCommand(dev=f"nvme{dst_vol}", rw="w", src=buf,
                                dst=cmd.dst, length=cmd.length,
                                depends_on=prev)
        else:  # *_TO_HOST
            out = DeviceCommand(dev="dma", rw="w", src=buf, dst=cmd.dst,
                                length=cmd.length, depends_on=prev)
        entries.append(out)

        if ndp_entry is not None:
            ndp_entry.after = self._make_ndp_hook(ndp_entry, out, buf, append)

        def finalize(task) -> D2DCompletion:
            self.buffers.free_intermediate(buf, buf_size)
            self.tasks_completed += 1
            self._record_stats(cmd.d2d_id, entries)
            digest = b""
            result_length = out.length
            if ndp_entry is not None and isinstance(ndp_entry.result,
                                                    NdpResult):
                digest = ndp_entry.result.digest
            return D2DCompletion(d2d_id=cmd.d2d_id,
                                 status=int(D2DStatus.OK), digest=digest,
                                 result_length=result_length)

        def abort(task) -> None:
            # The failure path of finalize: release what _plan
            # allocated so an aborted chain leaks nothing.
            self.buffers.free_intermediate(buf, buf_size)
            self.tasks_failed += 1
            self._task_started.pop(cmd.d2d_id, None)

        return entries, finalize, abort

    def _make_ndp_hook(self, ndp_entry: DeviceCommand, out: DeviceCommand,
                       buf: int, append: bool):
        def hook() -> None:
            result = ndp_entry.result
            if not isinstance(result, NdpResult):
                return  # the entry failed; finalize reports the error
            out.length = result.output_length
            if append and result.digest:
                self.fabric.address_map.write(
                    buf + result.output_length, result.digest)
                out.length += len(result.digest)
        return hook

    # -- completion pump -----------------------------------------------------------

    def _completion_pump(self):
        while True:
            completion = yield self.scoreboard.completions.get()
            self.host_interface.post_completion(completion)
