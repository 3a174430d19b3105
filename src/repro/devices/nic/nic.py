"""The 10-GbE NIC device model (multi-queue, LSO, header-split).

Transmit: fetch descriptor → DMA header template + payload from
wherever they live (host DRAM for the kernel path, engine DDR3 for
DCS-ctrl's P2P path) → LSO segmentation with per-segment header fix-up
→ serialize onto the wire.  Receive: steer the frame to a channel
(flow-steering table), take that channel's next posted buffer,
optionally split headers from payload, DMA both out, write a
completion, bump the status block, optionally interrupt.

Multi-queue matters here: the paper "extend[s] existing Linux generic
NVMe and Broadcom NIC device drivers to dedicate device queue pairs in
HDC Engine" (§IV-B) — the host driver and the engine's NIC controller
each own their own TX/RX channel of the same off-the-shelf device, and
offloaded connections are steered to the engine's channel.

The NIC itself exposes no bulk memory window (the BCM57711 does not let
peers DMA into its packet buffers [41]) — the other half of why direct
SSD↔NIC needs staging memory somewhere else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.devices.base import PcieDevice
from repro.devices.nic.descriptors import (RECV_CMPL_SIZE, RECV_DESC_SIZE,
                                           SEND_DESC_SIZE, RecvCompletion,
                                           RecvDescriptor, SendDescriptor)
from repro.devices.nic.rings import RecvRing, SendRing, unwrap32
from repro.errors import DeviceError, DeviceTimeout, ProtocolError
from repro.net.packet import (HEADER_LEN, MTU, RX_FIELDS, RX_FIELDS_OFFSET,
                              FlowKey, build_frame, check_frame, flow_key,
                              segment_payload)
from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
from repro.net.wire import Wire
from repro.pcie.link import LINK_GEN2_X8, LinkConfig
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Signal, Store
from repro.sim.stats import Meter
from repro.units import KIB, nsec


@dataclass(frozen=True)
class NicConfig:
    """Static NIC parameters."""

    model: str
    link: LinkConfig
    max_lso: int = 64 * KIB           # largest single send descriptor
    max_channels: int = 4             # TX/RX queue pairs
    desc_overhead: int = nsec(400)    # descriptor fetch/decode engine time
    frame_overhead: int = nsec(250)   # per-frame receive engine time


BCM57711 = NicConfig(model="Broadcom NetXtreme II BCM57711",
                     link=LINK_GEN2_X8)

# Doorbell layout: one 16-byte stride per channel.
_CHANNEL_STRIDE = 0x10
_SEND_DB = 0x00
_RECV_DB = 0x08

# A receive-ring DMA (descriptor fetch, completion write) that times out
# moved no bytes, so it is safely done again -- at most this many times.
_RING_DMA_RETRIES = 3


@dataclass
class _TxChannel:
    ring_addr: int
    depth: int
    status_addr: int
    interrupt: bool
    head: int = 0       # next descriptor the NIC will fetch (free-running)
    tail: int = 0       # latest doorbell value (free-running, recovered)
    consumed: int = 0
    wake: Optional[Signal] = None
    m_occ: Optional[object] = None  # nic.tx_ring_occupancy instrument


@dataclass
class _RxChannel:
    desc_addr: int
    cmpl_addr: int
    depth: int
    status_addr: int
    interrupt: bool
    fetched: int = 0    # descriptors fetched from ring memory
    tail: int = 0       # latest doorbell value
    produced: int = 0   # completions written
    fetch_busy: bool = False
    buffers: Deque[Tuple[int, RecvDescriptor]] = field(default_factory=deque)
    buffer_wake: Optional[Signal] = None
    prev_done: object = None   # ordering chain for completion posting
    m_buf: Optional[object] = None  # nic.rx_buffers instrument


class Nic(PcieDevice):
    """A multi-queue descriptor-ring NIC attached to fabric and wire."""

    def __init__(self, sim: Simulator, fabric: Fabric, name: str,
                 bar_base: int, config: NicConfig = BCM57711):
        super().__init__(sim, fabric, name, config.link)
        self.config = config
        self._regs = self.add_region("regs", bar_base, 4 * KIB)
        self._regs.on_mmio_write = self._on_doorbell
        self._tx_channels: List[_TxChannel] = []
        self._rx_channels: List[_RxChannel] = []
        self._steering: Dict[FlowKey, int] = {}
        self._wire: Optional[Wire] = None
        # MAC egress FIFO: descriptors are "consumed" once their frames
        # are handed to the MAC; serialization continues from here.
        self._egress = Store(sim, capacity=32)
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped = 0
        self.frames_lost = 0       # injected wire losses (nic.wire_drop)
        self.tx_faults = 0         # descriptors abandoned on link faults
        self.tx_processes: List[object] = []
        self.rx_process = None
        # Wire-byte accounting reads through the metrics registry when a
        # session is installed (Meter.register is a no-op otherwise).
        self.wire_meter = Meter(sim).register(
            "nic.wire_tx_bytes", node=fabric.name, dev=name)
        metrics = sim.metrics
        if metrics is not None:
            metrics.polled("nic.frames_lost", lambda: self.frames_lost,
                           node=fabric.name, dev=name)
        sim.spawn(self._egress_loop())

    # -- wiring ------------------------------------------------------------

    def connect(self, wire: Wire) -> None:
        """Attach to a wire and start receiving."""
        if self._wire is not None:
            raise DeviceError(f"{self.name} already connected")
        self._wire = wire
        # Endpoint keys must be unique per wire even when two nodes use
        # the same local device name ("nic" on node0 and node1); the
        # fabric (host) name disambiguates and, unlike id(), is stable
        # across runs.
        self._wire_key = f"{self.fabric.name}/{self.name}"
        ingress = wire.attach(self._wire_key)
        self.rx_process = self.sim.process(self._rx_loop(ingress))

    # -- configuration -------------------------------------------------------

    def configure_tx(self, ring_addr: int, depth: int, status_addr: int,
                     interrupt: bool = False) -> SendRing:
        """Set up one transmit channel; returns the submitter-side view."""
        if len(self._tx_channels) >= self.config.max_channels:
            raise DeviceError(f"{self.name} is out of TX channels")
        channel = _TxChannel(ring_addr=ring_addr, depth=depth,
                             status_addr=status_addr, interrupt=interrupt,
                             wake=Signal(self.sim))
        self._tx_channels.append(channel)
        index = len(self._tx_channels) - 1
        metrics = self.sim.metrics
        if metrics is not None:
            channel.m_occ = metrics.timegauge(
                "nic.tx_ring_occupancy", node=self.fabric.name,
                dev=self.name, channel=index)
        self.tx_processes.append(self.sim.process(self._tx_loop(channel,
                                                                index)))
        doorbell = self._regs.base + index * _CHANNEL_STRIDE + _SEND_DB
        return SendRing(self.fabric, ring_addr, depth, status_addr,
                        doorbell=doorbell, channel=index)

    def configure_rx(self, desc_addr: int, cmpl_addr: int, depth: int,
                     status_addr: int, interrupt: bool = False) -> RecvRing:
        """Set up one receive channel; returns the submitter-side view."""
        if len(self._rx_channels) >= self.config.max_channels:
            raise DeviceError(f"{self.name} is out of RX channels")
        channel = _RxChannel(desc_addr=desc_addr, cmpl_addr=cmpl_addr,
                             depth=depth, status_addr=status_addr,
                             interrupt=interrupt,
                             buffer_wake=Signal(self.sim))
        self._rx_channels.append(channel)
        index = len(self._rx_channels) - 1
        metrics = self.sim.metrics
        if metrics is not None:
            channel.m_buf = metrics.timegauge(
                "nic.rx_buffers", node=self.fabric.name,
                dev=self.name, channel=index)
        doorbell = self._regs.base + index * _CHANNEL_STRIDE + _RECV_DB
        return RecvRing(self.fabric, desc_addr, cmpl_addr, depth,
                        status_addr, doorbell=doorbell, channel=index)

    def steer_flow(self, src_ip: str, src_port: int, dst_port: int,
                   rx_channel: int) -> None:
        """Program the flow-steering table: matching frames go to
        ``rx_channel`` instead of channel 0."""
        if not 0 <= rx_channel < len(self._rx_channels):
            raise DeviceError(f"no RX channel {rx_channel}")
        self._steering[flow_key(src_ip, src_port, dst_port)] = rx_channel

    # -- doorbells ---------------------------------------------------------

    def _on_doorbell(self, offset: int, data: bytes) -> None:
        value = int.from_bytes(data[:4], "little")
        index, reg = divmod(offset, _CHANNEL_STRIDE)
        tracer = self.sim.tracer
        if tracer is not None and reg in (_SEND_DB, _RECV_DB):
            kind = "tx" if reg == _SEND_DB else "rx"
            tracer.instant("nic.doorbell", track=f"dev:{self.name}",
                           name=f"{kind}{index} tail={value}",
                           channel=index, kind=kind, tail=value)
        if reg == _SEND_DB:
            if index >= len(self._tx_channels):
                raise ProtocolError(f"send doorbell for channel {index} "
                                    "before TX configuration")
            channel = self._tx_channels[index]
            channel.tail = unwrap32(channel.tail, value)
            if channel.m_occ is not None:
                channel.m_occ.set(channel.tail - channel.consumed)
            channel.wake.notify()
        elif reg == _RECV_DB:
            if index >= len(self._rx_channels):
                raise ProtocolError(f"recv doorbell for channel {index} "
                                    "before RX configuration")
            channel = self._rx_channels[index]
            channel.tail = unwrap32(channel.tail, value)
            if not channel.fetch_busy:
                channel.fetch_busy = True
                self.sim.spawn(self._fetch_rx_descriptors(channel))
        # other registers: configuration writes, ignored

    # -- transmit ------------------------------------------------------------

    def _tx_loop(self, tx: _TxChannel, index: int):
        while True:
            if tx.head == tx.tail:
                yield tx.wake.wait()
                continue
            slot = tx.head % tx.depth
            tx.head += 1
            try:
                raw = yield from self.dma_read(
                    tx.ring_addr + slot * SEND_DESC_SIZE, SEND_DESC_SIZE)
            except DeviceError:
                # Descriptor fetch lost to a link fault: as with a lost
                # header template, the descriptor is consumed with
                # nothing sent, so its ring slot still comes back.
                self.tx_faults += 1
            else:
                desc = SendDescriptor.unpack(raw)
                tracer = self.sim.tracer
                span = None if tracer is None else tracer.begin(
                    "nic.tx", track=f"dev:{self.name}",
                    name=f"tx{index} {desc.payload_len}B", channel=index,
                    size=desc.payload_len, lso=bool(desc.lso))
                yield from self._transmit(desc)
                if span is not None:
                    span.end()
            tx.consumed += 1
            if tx.m_occ is not None:
                tx.m_occ.set(tx.tail - tx.consumed)
            try:
                yield from self.dma_write(
                    tx.status_addr,
                    (tx.consumed & 0xFFFFFFFF).to_bytes(4, "little"))
                if tx.interrupt:
                    yield from self.msi(vector=2 * index)
            except DeviceError:
                # Lost status/interrupt write: the next one carries the
                # cumulative count; meanwhile deadlines cover the gap.
                self.tx_faults += 1

    _FETCH_CHUNK = 8 * KIB  # payload DMA granularity of the TX engine

    def _transmit(self, desc: SendDescriptor):
        """Stream one descriptor onto the wire.

        Payload DMA is pipelined with transmission the way real TX
        engines work: an internal fetch process pulls ~8 KiB chunks
        from source memory while earlier segments are already being
        serialized, so a 64 KiB LSO send is not gated on fetching all
        64 KiB first.
        """
        if self._wire is None:
            raise DeviceError(f"{self.name} has no wire attached")
        if desc.payload_len > self.config.max_lso:
            raise ProtocolError(
                f"descriptor payload {desc.payload_len} exceeds max LSO "
                f"{self.config.max_lso}")
        if not desc.lso and desc.payload_len > MTU - 40:
            raise ProtocolError(
                f"non-LSO payload of {desc.payload_len} exceeds MTU")
        yield self.sim.timeout(self.config.desc_overhead)
        try:
            header = yield from self.dma_read(desc.hdr_addr, desc.hdr_len)
        except DeviceError:
            # Header template lost to a link fault: no frame can be
            # built, so the descriptor is consumed with nothing sent
            # (a TCP sequence gap the receiver sees).
            self.tx_faults += 1
            return
        if len(header) != HEADER_LEN:
            raise ProtocolError(
                f"header template must be {HEADER_LEN} bytes, "
                f"got {len(header)}")
        eth = EthernetHeader.unpack(header)
        ip = Ipv4Header.unpack(header[14:])
        tcp = TcpHeader.unpack(header[34:])
        mss = desc.mss if desc.lso else MTU - 40
        if desc.payload_len == 0:
            frame = segment_payload(eth, ip.src_ip, ip.dst_ip, tcp, b"")[0]
            yield self._egress.put(frame)
            return
        chunks = Store(self.sim, capacity=4)
        self.sim.spawn(self._fetch_payload(desc, chunks))
        buffer = bytearray()
        sent = 0
        while sent < desc.payload_len:
            need = min(mss, desc.payload_len - sent)
            while len(buffer) < need:
                chunk = yield chunks.get()
                buffer.extend(chunk)
            segment = bytes(buffer[:need])
            del buffer[:need]
            seg_tcp = TcpHeader(tcp.src_port, tcp.dst_port, tcp.seq + sent,
                                tcp.ack, tcp.flags, tcp.window)
            frame = build_frame(eth, ip.src_ip, ip.dst_ip, seg_tcp, segment)
            # Hand the frame to the MAC egress FIFO; the descriptor is
            # consumed once everything is fetched, while serialization
            # continues in the background (real TX-reclaim semantics).
            yield self._egress.put(frame)
            sent += need

    def _fetch_payload(self, desc: SendDescriptor, chunks):
        offset = 0
        while offset < desc.payload_len:
            take = min(self._FETCH_CHUNK, desc.payload_len - offset)
            try:
                data = yield from self.dma_read(desc.payload_addr + offset,
                                                take)
            except DeviceError:
                # Fetch faulted mid-stream: pad with zeros so the TX
                # engine can drain the descriptor instead of hanging on
                # an empty chunk store; deadlines catch the damage.
                data = bytes(take)
            yield chunks.put(data)
            offset += take

    def _egress_loop(self):
        """Serialize MAC-FIFO frames onto the wire, strictly in order."""
        while True:
            frame = yield self._egress.get()
            faults = self.sim.faults
            if (faults is not None and "nic.wire_drop" in faults.armed_sites
                    and faults.fires("nic.wire_drop", device=self.name,
                                     size=len(frame))):
                # The frame dies on the wire (FCS corruption en route):
                # serialization time was already paid by the MAC model,
                # the receiver simply never sees it.
                self.frames_lost += 1
                continue
            yield from self._wire.transmit(self._wire_key, frame)
            self.frames_sent += 1
            self.wire_meter.add(len(frame))

    # -- receive -------------------------------------------------------------

    def _fetch_rx_descriptors(self, rx: _RxChannel):
        """DMA newly posted receive descriptors into device-local state.

        At most one fetch process per channel (doorbells that land while
        it runs are covered by re-checking the tail each pass).  A fetch
        that times out is done again (``fetched`` has not advanced), up
        to ``_RING_DMA_RETRIES`` times in a row; past that the fetch
        ends and the next doorbell starts it again.
        """
        try:
            timeouts = 0
            while rx.fetched < rx.tail:
                slot = rx.fetched % rx.depth
                try:
                    raw = yield from self.dma_read(
                        rx.desc_addr + slot * RECV_DESC_SIZE, RECV_DESC_SIZE)
                except DeviceTimeout:
                    timeouts += 1
                    if timeouts > _RING_DMA_RETRIES:
                        return
                    continue
                timeouts = 0
                rx.buffers.append((rx.fetched, RecvDescriptor.unpack(raw)))
                rx.fetched += 1
                if rx.m_buf is not None:
                    rx.m_buf.set(len(rx.buffers))
                rx.buffer_wake.notify()
        finally:
            rx.fetch_busy = False

    def _steer(self, raw_frame: bytes) -> int:
        """Pick the RX channel for a frame (flow-steering table)."""
        # The steering engine looks only at the fixed header fields and
        # checks nothing: a frame too short or too damaged to match goes
        # to channel 0, whose MAC validation drops it.
        if len(raw_frame) < HEADER_LEN:
            return 0
        src, _dst, src_port, dst_port, _seq = RX_FIELDS.unpack_from(
            raw_frame, RX_FIELDS_OFFSET)
        return self._steering.get((src, src_port, dst_port), 0)

    def _rx_loop(self, ingress):
        # Per-frame DMA pipelines with wire reception: each frame's
        # processing runs as its own process, chained per channel so
        # completions are posted strictly in arrival order.
        while True:
            raw_frame = yield ingress.get()
            if not self._rx_channels:
                raise ProtocolError(f"{self.name} received a frame before "
                                    "RX configuration")
            rx = self._rx_channels[self._steer(raw_frame)]
            while not rx.buffers:
                yield rx.buffer_wake.wait()
            index, desc = rx.buffers.popleft()
            if rx.m_buf is not None:
                rx.m_buf.set(len(rx.buffers))
            done = self.sim.event()
            self.sim.spawn(self._receive(rx, raw_frame, index, desc,
                                           rx.prev_done, done))
            rx.prev_done = done

    def _receive(self, rx: _RxChannel, raw_frame: bytes, index: int,
                 desc: RecvDescriptor, prev_done, done):
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "nic.rx", track=f"dev:{self.name}",
            name=f"rx frame {len(raw_frame)}B", size=len(raw_frame),
            desc_index=index)
        yield self.sim.timeout(self.config.frame_overhead)
        cmpl = None
        try:
            # MAC validation and RX checksum offload: the one check a
            # received frame gets; its receivers only decode it.
            check_frame(raw_frame)
        except ProtocolError:
            pass  # real NICs drop bad-FCS/bad-checksum frames and count them
        else:
            try:
                if desc.hdr_addr:
                    header = raw_frame[:HEADER_LEN]
                    payload = raw_frame[HEADER_LEN:]
                    if len(payload) > desc.buf_len:
                        raise ProtocolError(
                            f"payload of {len(payload)} overruns posted "
                            f"buffer of {desc.buf_len}")
                    yield from self.dma_write(desc.hdr_addr, header)
                    if payload:
                        yield from self.dma_write(desc.payload_addr, payload)
                    cmpl = RecvCompletion(hdr_len=HEADER_LEN,
                                          payload_len=len(payload),
                                          desc_index=index % rx.depth)
                else:
                    if len(raw_frame) > desc.buf_len:
                        raise ProtocolError(
                            f"frame of {len(raw_frame)} overruns posted "
                            f"buffer of {desc.buf_len}")
                    yield from self.dma_write(desc.payload_addr, raw_frame)
                    cmpl = RecvCompletion(hdr_len=0,
                                          payload_len=len(raw_frame),
                                          desc_index=index % rx.depth)
            except DeviceError:
                pass  # buffer DMA lost to a link fault: drop the frame
        if cmpl is None:
            # The descriptor still completes, in the order taken: its
            # owner recycles the buffer and delivers nothing, and no
            # completion leaves ring order.
            cmpl = RecvCompletion.dropped_frame(index % rx.depth)
        if prev_done is not None and not prev_done.processed:
            yield prev_done  # keep completion order == arrival order
        slot = rx.produced % rx.depth
        landed = False
        for _ in range(1 + _RING_DMA_RETRIES):
            try:
                yield from self.dma_write(
                    rx.cmpl_addr + slot * RECV_CMPL_SIZE, cmpl.pack())
            except DeviceTimeout:
                continue  # no bytes landed: write the completion again
            landed = True
            rx.produced += 1
            try:
                yield from self.dma_write(
                    rx.status_addr,
                    (rx.produced & 0xFFFFFFFF).to_bytes(4, "little"))
            except DeviceError:
                # Status write lost; the consumer's deadline (or the next
                # frame's cumulative status write) recovers it.
                pass
            break
        # A completion that never landed loses the frame and, with it,
        # the buffer: its owner's deadline reports the stalled receive.
        if landed and not cmpl.dropped:
            self.frames_received += 1
            if span is not None:
                span.end()
        else:
            self.frames_dropped += 1
            if span is not None:
                span.end(dropped=True)
        done.succeed()
        if rx.interrupt:
            channel_index = self._rx_channels.index(rx)
            try:
                yield from self.msi(vector=2 * channel_index + 1)
            except DeviceError:
                pass  # lost interrupt: the host driver's deadline recovers