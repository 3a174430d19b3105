"""Submitter-side views of the NIC's descriptor rings.

Both the host NIC driver and the HDC Engine's NIC controller drive the
device through these: write descriptors into ring memory (theirs to
place — host DRAM or engine BRAM), ring a doorbell, and watch a
NIC-written status block for progress.  Status indices are free-running
32-bit counters, so no phase bits are needed.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.nic.descriptors import (RECV_CMPL_SIZE, RECV_DESC_SIZE,
                                           SEND_DESC_SIZE, RecvCompletion,
                                           RecvDescriptor, SendDescriptor)
from repro.errors import ProtocolError
from repro.pcie.switch import Fabric


def unwrap32(previous: int, low32: int) -> int:
    """Recover a free-running counter from its 32-bit on-wire value,
    given the last value recovered (the counter only moves forward)."""
    value = (previous & ~0xFFFFFFFF) | low32
    if value < previous:
        value += 1 << 32
    return value


class SendRing:
    """Submitter-side transmit ring."""

    def __init__(self, fabric: Fabric, ring_addr: int, depth: int,
                 status_addr: int, doorbell: int, channel: int = 0):
        self.fabric = fabric
        self.ring_addr = ring_addr
        self.depth = depth
        self.status_addr = status_addr
        self.doorbell = doorbell
        self.channel = channel
        self.tail = 0            # producer index (free-running)
        self._consumed_seen = 0

    def slots_free(self) -> int:
        consumer = self.consumer_index()
        return self.depth - (self.tail - consumer)

    def push(self, desc: SendDescriptor) -> int:
        """Write one descriptor into ring memory; returns its index."""
        if self.slots_free() == 0:
            raise ProtocolError("send ring full")
        slot = self.tail % self.depth
        self.fabric.address_map.write(
            self.ring_addr + slot * SEND_DESC_SIZE, desc.pack())
        index = self.tail
        self.tail += 1
        return index

    def ring(self, initiator: str):
        """Process: ring the send doorbell with the new tail."""
        return self.fabric.mmio_write(
            initiator, self.doorbell,
            (self.tail & 0xFFFFFFFF).to_bytes(4, "little"))

    def consumer_index(self) -> int:
        """The NIC's progress counter from the status block (functional)."""
        raw = self.fabric.address_map.read(self.status_addr, 4)
        self._consumed_seen = unwrap32(self._consumed_seen,
                                       int.from_bytes(raw, "little"))
        return self._consumed_seen


class RecvRing:
    """Submitter-side receive ring + completion ring."""

    def __init__(self, fabric: Fabric, desc_addr: int, cmpl_addr: int,
                 depth: int, status_addr: int, doorbell: int,
                 channel: int = 0):
        self.fabric = fabric
        self.channel = channel
        self.desc_addr = desc_addr
        self.cmpl_addr = cmpl_addr
        self.depth = depth
        self.status_addr = status_addr
        self.doorbell = doorbell
        self.tail = 0            # producer index of posted buffers
        self.cmpl_head = 0       # next completion we will consume
        self._produced_seen = 0

    def slots_free(self) -> int:
        return self.depth - (self.tail - self.cmpl_head)

    def post(self, desc: RecvDescriptor) -> int:
        """Post one receive buffer; returns its index."""
        if self.slots_free() == 0:
            raise ProtocolError("recv ring full")
        slot = self.tail % self.depth
        self.fabric.address_map.write(
            self.desc_addr + slot * RECV_DESC_SIZE, desc.pack())
        index = self.tail
        self.tail += 1
        return index

    def ring(self, initiator: str):
        """Process: tell the NIC about newly posted buffers."""
        return self.fabric.mmio_write(
            initiator, self.doorbell,
            (self.tail & 0xFFFFFFFF).to_bytes(4, "little"))

    def producer_index(self) -> int:
        """How many completions the NIC has written (functional read)."""
        raw = self.fabric.address_map.read(self.status_addr, 4)
        self._produced_seen = unwrap32(self._produced_seen,
                                       int.from_bytes(raw, "little"))
        return self._produced_seen

    def poll_completion(self) -> Optional[RecvCompletion]:
        """Consume the next completion if the NIC has produced one."""
        if self.cmpl_head >= self.producer_index():
            return None
        slot = self.cmpl_head % self.depth
        raw = self.fabric.address_map.read(
            self.cmpl_addr + slot * RECV_CMPL_SIZE, RECV_CMPL_SIZE)
        self.cmpl_head += 1
        return RecvCompletion.unpack(raw)
