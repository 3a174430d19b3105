"""The engine's NVMe SSD controller (paper Fig 7a).

"The NVMe SSD controller allocates HDC Engine memory for a submission
and completion queue pair, and it implements hardware logic to build
NVMe commands and to handle completion messages from the devices.  In
addition, it rings doorbell registers located in NVMe SSD devices."

The controller is a scoreboard :class:`Executor`: it takes scoreboard
entries ``dev="nvme"`` whose ``src``/``dst`` are an SLBA and an engine
DDR3 address (direction by ``rw``), splits them into ≤MDTS NVMe
commands with BRAM-resident PRP lists (the bulk-transfer optimization
of §IV-C), pipelines the commands, and completes them by *polling* its
CQ (in BRAM; in host DRAM under the ring-placement ablation) — no
interrupts anywhere on this path.

Write-driven, phase-exact CQ polling: the completion FSM polls on a
fixed 200 ns phase, but schedules only the polls that can see
something.  After an empty poll at ``t0`` it sleeps until the CQ ring
is written (a watch on its memory region) or the watchdog forgets the
last outstanding command, then resumes at the first tick
``t0 + k * POLL_INTERVAL`` strictly after that wake.  That is exactly
the tick on which an every-tick poller would first see the change:
both events that can change what a poll sees — a CQE write landing
after its last link-release timeout, and the watchdog's fail relay —
are queued less than ``POLL_INTERVAL`` before they run, so a poll due
on the wake's own tick was queued first and saw the old state.
Command issue does not wake a sleeping FSM: it changes nothing a poll
sees.
"""

from __future__ import annotations

from repro.core.command import DeviceCommand
from repro.core.scoreboard import Executor
from repro.devices.nvme.client import NvmeClient
from repro.devices.nvme.commands import (CQE_SIZE, LBA_SIZE, OP_READ,
                                         OP_WRITE)
from repro.devices.nvme.ssd import NvmeSsd
from repro.errors import DeviceError
from repro.faults import ENGINE_NVME_POLICY
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Signal
from repro.units import nsec

# Hardware SQE + PRP build: a pipelined FSM at the engine clock.
COMMAND_BUILD = nsec(150)
# CQ polling cadence of the completion FSM.
POLL_INTERVAL = nsec(200)

QUEUE_DEPTH = 64
# BRAM bytes per in-flight command's PRP list: a 128 KiB transfer needs
# 31 entries x 8 B, so 512 B per slot is ample.
PRP_SLOT = 512


class EngineNvmeController(Executor):
    """FPGA hardware that drives one NVMe SSD."""

    slots = 4  # concurrent scoreboard entries (each pipelines internally)

    def __init__(self, sim: Simulator, fabric: Fabric, ssd: NvmeSsd,
                 engine_port: str, sq_addr: int, cq_addr: int,
                 prp_area: int, qid: int = 2,
                 max_chunk: int | None = None):
        self.sim = sim
        # Bulk-transfer ablation: None = use PRP lists up to the MDTS
        # (the paper's §IV-C optimization); 4096 = one block per command.
        self.max_chunk = max_chunk or ssd.config.max_transfer
        self.qp = ssd.create_io_queue(qid, sq_addr, cq_addr, QUEUE_DEPTH,
                                      interrupt=False)
        # The FSM parks on _issued with no command outstanding, and on
        # _cq_changed after an empty poll.
        self._issued = Signal(sim)
        self._cq_changed = Signal(sim)
        cq_bytes = QUEUE_DEPTH * CQE_SIZE
        fabric.address_map.resolve(cq_addr, cq_bytes).watch(
            cq_addr, cq_bytes, self._cq_changed.notify)
        self.client = NvmeClient(
            sim, self.qp, engine_port, prp_area, PRP_SLOT,
            ENGINE_NVME_POLICY, "engine NVMe",
            owner=f"{fabric.name}:{engine_port}:nvme:{ssd.name}",
            on_drain=self._cq_changed.notify)
        sim.spawn(self._completion_fsm())

    # -- executor interface ------------------------------------------------

    def execute(self, entry: DeviceCommand):
        """Process: run one read/write scoreboard entry."""
        if entry.rw == "r":
            opcode, slba, buf = OP_READ, entry.src, entry.dst
        elif entry.rw == "w":
            opcode, slba, buf = OP_WRITE, entry.dst, entry.src
        else:
            raise DeviceError(f"bad NVMe entry direction {entry.rw!r}")
        nbytes = entry.length + (-entry.length % LBA_SIZE)
        step = self.max_chunk
        chunks = [(slba + offset // LBA_SIZE, min(step, nbytes - offset),
                   buf + offset) for offset in range(0, nbytes, step)]
        waits = []
        for chunk in chunks:
            waits.append((yield from self._issue(opcode, *chunk)))
        for chunk, issued in zip(chunks, waits):
            yield from self.client.command(
                lambda chunk=chunk: self._issue(opcode, *chunk),
                chunk[0], chunk[1], issued=issued)

    def _issue(self, opcode: int, slba: int, nbytes: int, buf: int):
        """Process: build and submit one NVMe command; returns its
        ``(cid, waiter)`` pair."""
        yield self.sim.timeout(COMMAND_BUILD)
        cid = yield from self.client.admit()
        waiter = yield from self.client.issue(cid, opcode, slba, nbytes, buf)
        self._issued.notify()
        return cid, waiter

    # -- completion polling FSM ----------------------------------------------

    def _completion_fsm(self):
        sim = self.sim
        while True:
            if not self.client.waiters:
                yield self._issued.wait()
                continue
            cqe = self.qp.poll_completion()
            if cqe is None:
                polled_at = sim.now
                yield self._cq_changed.wait()
                lag = (sim.now - polled_at) % POLL_INTERVAL
                yield sim.timeout(POLL_INTERVAL - lag)
                continue
            yield from self.client.complete(cqe, sim.now)
