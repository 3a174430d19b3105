"""The engine's 10-GbE NIC controller (paper Fig 7b).

Transmit: "the NIC controller generates TCP/IP packet headers and
stores them in the header buffer.  It also builds NIC commands, puts
them in a send queue, and rings the registers allocated in the network
device."  Receive: "it parses the received packet headers and messages
to identify a target connection and destination location", and the
packet-gathering logic "removes the packet headers and put the split
data into the continuous memory space" (§IV-C).

Mechanics here: send/recv rings live in engine BRAM; receive uses the
NIC's header-split into BRAM header slots + DDR3 staging slots; a pump
FSM (woken by the NIC's status-block writes into watched BRAM)
decodes each header the NIC already checked (no second validation),
tracks per-connection sequence state, and gathers payloads into the
destination buffers of pending scoreboard entries.
The ring protocol is the host driver's, in one
:class:`~repro.devices.nic.client.NicClient`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.core.buffers import EngineBuffers
from repro.core.command import DeviceCommand
from repro.core.scoreboard import Executor
from repro.devices.nic.client import NicClient
from repro.devices.nic.descriptors import RecvDescriptor
from repro.devices.nic.nic import Nic
from repro.errors import DeviceError, DeviceTimeout
from repro.faults import (ENGINE_NIC_RECV_POLICY, ENGINE_NIC_SEND_POLICY,
                          active_faults, watchdog)
from repro.memory.dram import FPGA_DDR3
from repro.memory.region import MemoryRegion
from repro.net.packet import HEADER_LEN
from repro.net.tcp import FlowTable, TcpFlow
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes
from repro.units import KIB, nsec

HEADER_GEN = nsec(100)     # TCP/IP header generation FSM, per batch
HEADER_PARSE = nsec(120)   # header parse + flow lookup, per frame
RING_DEPTH = 256
RECV_SLOT = 2 * KIB        # per-frame payload staging slot in DDR3
MAX_LSO = 64 * KIB


@dataclass
class _PendingRecv:
    """One scoreboard receive entry being gathered."""

    target: int
    length: int
    copied: int = 0
    waiter: object = None


@dataclass
class _FlowState:
    flow: TcpFlow
    send_lock: object = None   # per-flow Lanes: sends serialize
    pending: Deque[_PendingRecv] = field(default_factory=deque)
    backlog: bytearray = field(default_factory=bytearray)


class EngineNicController(Executor):
    """FPGA hardware that drives one off-the-shelf NIC."""

    slots = 4

    def __init__(self, sim: Simulator, fabric: Fabric, nic: Nic,
                 engine_port: str, buffers: EngineBuffers,
                 bram: MemoryRegion, tx_ring_addr: int, tx_status_addr: int,
                 rx_desc_addr: int, rx_cmpl_addr: int, rx_status_addr: int,
                 rx_hdr_area: int, tx_hdr_area: int,
                 max_batch: int = MAX_LSO):
        self.sim = sim
        # Bulk-transfer ablation: MAX_LSO uses large-send offload
        # (§IV-C); TCP_MSS means one descriptor per packet.
        self.max_batch = max_batch
        self.fabric = fabric
        self.buffers = buffers
        self.nic = nic
        # 64 BRAM header slots: the in-flight count (slots x window)
        # stays far below that.  Reposts ring the doorbell once per 32;
        # the ring holds hundreds of posted buffers of slack.
        self.client = NicClient(
            nic, engine_port, RING_DEPTH, tx_ring_addr, tx_status_addr,
            rx_desc_addr, rx_cmpl_addr, rx_status_addr, tx_hdr_area,
            hdr_slots=64, ring_every=32, interrupt=False)
        self._rx_hdr_area = rx_hdr_area
        self._flows_by_id: Dict[int, _FlowState] = {}
        self._flow_table = FlowTable()
        self._flow_state_of: Dict[int, _FlowState] = {}  # flow.uid -> state
        self._next_flow_id = 1
        self._tx_waiters: Dict[int, object] = {}   # send index -> Event
        # Deadlines for the send-status and receive-gather waits; only
        # armed while a fault plan is active.
        self.send_policy = ENGINE_NIC_SEND_POLICY
        self.recv_policy = ENGINE_NIC_RECV_POLICY
        # Hardware wake-ups: NIC status writes into watched BRAM.
        bram.watch(tx_status_addr, 4, self._on_tx_status)
        bram.watch(rx_status_addr, 4, self._on_rx_status)

    # -- bring-up ------------------------------------------------------------

    def start(self):
        """Process: post DDR3 staging slots, each with a BRAM header slot
        (both taken from the top down), and arm the receive ring."""
        chunks = [self.buffers.take_recv_chunk()
                  for _ in range(RING_DEPTH // (64 * KIB // RECV_SLOT) + 1)]
        slots = [chunk + off for chunk in chunks
                 for off in range(0, 64 * KIB, RECV_SLOT)]
        for i in range(1, RING_DEPTH):
            self.client.post(RecvDescriptor(
                payload_addr=slots[-i], buf_len=RECV_SLOT,
                hdr_addr=self._rx_hdr_area + (RING_DEPTH - i) * 64))
        yield from self.client.recv_ring.ring(self.client.initiator)

    # -- connection offload ---------------------------------------------------

    def register_flow(self, flow: TcpFlow) -> int:
        """Offload an established connection; returns its flow id.

        Also programs the NIC's flow-steering table so the connection's
        inbound frames land on the engine's RX channel, not the host's.
        """
        self.nic.steer_flow(flow.remote.ip, flow.remote.port,
                            flow.local.port, self.client.recv_ring.channel)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        state = _FlowState(flow=flow, send_lock=Lanes(self.sim))
        self._flows_by_id[flow_id] = state
        self._flow_table.add(flow)
        self._flow_state_of[flow.uid] = state
        return flow_id

    @property
    def frames_discarded(self) -> int:
        """Received frames dropped after a sequence gap (or for another
        address); the recv deadline surfaces the stalled entry."""
        return self._flow_table.discarded

    def _state_for(self, flow_id: int) -> _FlowState:
        state = self._flows_by_id.get(flow_id)
        if state is None:
            raise DeviceError(f"unknown engine flow id {flow_id}")
        return state

    # -- executor interface ------------------------------------------------------

    def execute(self, entry: DeviceCommand):
        """Process: run one transmit ("w") or receive ("r") entry."""
        if entry.rw == "w":
            return (yield from self._do_send(entry))
        if entry.rw == "r":
            return (yield from self._do_recv(entry))
        raise DeviceError(f"bad NIC entry direction {entry.rw!r}")

    # -- transmit path -------------------------------------------------------------

    # Outstanding descriptors per send entry: enough to keep the NIC's
    # fetch engine busy across the doorbell/status round trips.
    SEND_WINDOW = 4

    def _do_send(self, entry: DeviceCommand):
        state = self._state_for(entry.dst)
        # Sends on one connection serialize (TCP stream order), but the
        # batches *within* a send pipeline through a small descriptor
        # window.  Each in-flight descriptor owns its header slot in the
        # client, so templates are never overwritten before fetch.
        yield from state.send_lock.acquire()
        try:
            sent = 0
            inflight = deque()
            while sent < entry.length or inflight:
                if sent < entry.length and len(inflight) < self.SEND_WINDOW:
                    batch = min(self.max_batch, entry.length - sent)
                    yield self.sim.timeout(HEADER_GEN)
                    index = yield from self.client.send(
                        state.flow.lso_header(batch), entry.src + sent,
                        batch)
                    waiter = self.sim.event()
                    self._tx_waiters[index] = waiter
                    # The status write may have landed while the doorbell
                    # ring was in flight — re-check before parking.
                    if (index < self.client.send_ring.consumer_index()
                            and index in self._tx_waiters):
                        self._tx_waiters.pop(index).succeed()
                    inflight.append(waiter)
                    sent += batch
                else:
                    waiter = inflight.popleft()
                    if active_faults(self.sim) is not None:
                        watchdog(self.sim, waiter,
                                 self.send_policy.deadline_for(entry.length),
                                 f"NIC send flow {entry.dst}",
                                 flow_id=entry.dst)
                    try:
                        yield waiter
                    except DeviceTimeout:
                        # Drop bookkeeping for every descriptor of this
                        # send; a late status write must not fire them.
                        for index, parked in list(self._tx_waiters.items()):
                            if parked is waiter or parked in inflight:
                                self._tx_waiters.pop(index)
                        raise
        finally:
            state.send_lock.release()
        return None

    def _on_tx_status(self) -> None:
        consumed = self.client.send_ring.consumer_index()
        ready = [i for i in self._tx_waiters if i < consumed]
        for index in ready:
            waiter = self._tx_waiters.pop(index)
            if not waiter.triggered:
                waiter.succeed()

    # -- receive path ----------------------------------------------------------------

    def _do_recv(self, entry: DeviceCommand):
        state = self._state_for(entry.src)
        pending = _PendingRecv(target=entry.dst, length=entry.length,
                               waiter=self.sim.event())
        state.pending.append(pending)
        # Drain any backlog that arrived before this entry was issued.
        yield from self._drain_backlog(state)
        if active_faults(self.sim) is not None:
            watchdog(self.sim, pending.waiter,
                     self.recv_policy.deadline_for(entry.length),
                     f"NIC recv flow {entry.src}", flow_id=entry.src,
                     length=entry.length)
        try:
            yield pending.waiter
        except DeviceTimeout:
            # Stop gathering into a buffer the scoreboard will reclaim.
            if pending in state.pending:
                state.pending.remove(pending)
            raise
        return None

    def _on_rx_status(self) -> None:
        self.client.start_drain(self._rx_pump)

    def _rx_pump(self):
        yield from self.client.drain(self._gather)

    def _gather(self, cmpl, desc: RecvDescriptor):
        """Process: decode one received frame's split header and steer
        its payload to its connection."""
        yield self.sim.timeout(HEADER_PARSE)
        if cmpl.dropped:
            return
        memory = self.fabric.address_map
        header = memory.read(desc.hdr_addr, HEADER_LEN)
        payload = memory.read(desc.payload_addr, cmpl.payload_len)
        flow = self._flow_table.receive(header, payload)
        if flow is not None and payload:
            yield from self._steer(self._flow_state_of[flow.uid], payload)

    def _steer(self, state: _FlowState, data: bytes):
        """Process: gather ``data`` into the pending entry or backlog."""
        while data:
            if not state.pending:
                state.backlog.extend(data)
                return
            pending = state.pending[0]
            take = min(len(data), pending.length - pending.copied)
            # Packet-gather copy: staging slot -> contiguous target.
            yield self.sim.timeout(2 * FPGA_DDR3.duration(take))
            self.fabric.address_map.write(pending.target + pending.copied,
                                          data[:take])
            pending.copied += take
            data = data[take:]
            if pending.copied == pending.length:
                state.pending.popleft()
                if not pending.waiter.triggered:
                    pending.waiter.succeed()

    def _drain_backlog(self, state: _FlowState):
        if not state.backlog:
            return
        data = bytes(state.backlog)
        state.backlog.clear()
        yield from self._steer(state, data)

