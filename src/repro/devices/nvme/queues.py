"""Submission/completion queue rings as seen by a *submitter*.

A :class:`QueuePair` is the submitter-side view of one NVMe I/O queue
pair: it writes SQEs into the SQ ring memory (wherever that memory is —
host DRAM for the kernel driver, engine BRAM for the HDC NVMe
controller), rings the SQ tail doorbell, and consumes CQEs by phase
bit.  The SSD device model holds its own independent head/tail state;
the two sides only communicate through ring memory and doorbells,
exactly like real hardware.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.devices.nvme.commands import (CQE_SIZE, SQE_SIZE, Completion,
                                         NvmeCommand)
from repro.pcie.switch import Fabric


class QueuePair:
    """Submitter-side state of one NVMe I/O queue pair."""

    def __init__(self, fabric: Fabric, owner_port: str, qid: int,
                 sq_addr: int, cq_addr: int, depth: int,
                 sq_doorbell: int, cq_doorbell: int):
        if depth < 2:
            raise ProtocolError(f"queue depth must be >= 2, got {depth}")
        self.fabric = fabric
        self.owner_port = owner_port
        self.qid = qid
        self.sq_addr = sq_addr
        self.cq_addr = cq_addr
        self.depth = depth
        self.sq_doorbell = sq_doorbell
        self.cq_doorbell = cq_doorbell
        self.sq_tail = 0
        self.sq_head = 0          # last head the device reported via CQEs
        self.cq_head = 0
        self.cq_phase = 1         # expected phase of the next valid CQE
        self._next_cid = 0

    # -- submission -------------------------------------------------------

    def slots_free(self) -> int:
        """SQ slots available (one slot is sacrificed to full/empty telling)."""
        used = (self.sq_tail - self.sq_head) % self.depth
        return self.depth - 1 - used

    def allocate_cid(self) -> int:
        """A fresh command identifier."""
        cid = self._next_cid
        self._next_cid = (self._next_cid + 1) & 0xFFFF
        return cid

    def push(self, command: NvmeCommand) -> None:
        """Write one SQE into ring memory (functional; CPU cost is the
        submitter's business)."""
        if self.slots_free() == 0:
            raise ProtocolError(f"submission queue {self.qid} full")
        slot_addr = self.sq_addr + self.sq_tail * SQE_SIZE
        self.fabric.address_map.write(slot_addr, command.pack())
        self.sq_tail = (self.sq_tail + 1) % self.depth

    def ring_sq(self, initiator: str):
        """Process: ring the SQ tail doorbell as ``initiator``."""
        data = self.sq_tail.to_bytes(4, "little")
        return self.fabric.mmio_write(initiator, self.sq_doorbell, data)

    # -- completion -------------------------------------------------------

    def poll_completion(self) -> Optional[Completion]:
        """Check ring memory for the next CQE (no timing).

        Returns the completion and advances the head, or None if the
        phase bit says the slot is stale.
        """
        slot_addr = self.cq_addr + self.cq_head * CQE_SIZE
        raw = self.fabric.address_map.read(slot_addr, CQE_SIZE)
        cqe = Completion.unpack(raw)
        if cqe.phase != self.cq_phase:
            return None
        self.cq_head += 1
        if self.cq_head == self.depth:
            self.cq_head = 0
            self.cq_phase ^= 1
        self.sq_head = cqe.sq_head
        return cqe

    def ring_cq(self, initiator: str):
        """Process: acknowledge consumed CQEs via the CQ head doorbell."""
        data = self.cq_head.to_bytes(4, "little")
        return self.fabric.mmio_write(initiator, self.cq_doorbell, data)
