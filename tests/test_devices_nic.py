"""Tests for the NIC model: descriptors, rings, LSO, header-split receive."""

import pytest

from repro.devices.nic import (RECV_CMPL_SIZE, RECV_DESC_SIZE, Nic,
                               NicClient, RecvCompletion, RecvDescriptor,
                               SendDescriptor)
from repro.devices.nic.rings import unwrap32
from repro.errors import DeviceError, ProtocolError
from repro.net import (HEADER_LEN, TCP_MSS, TcpEndpoint, TcpFlow, Wire,
                       parse_frame)
from repro.units import KIB, SEC, gbps

from tests.conftest import NIC_BAR, NIC2_BAR

TX_RING = 0x30_0000
TX_STATUS = 0x31_0000
RX_DESC = 0x32_0000
RX_CMPL = 0x33_0000
RX_STATUS = 0x34_0000
HDR_BUF = 0x40_0000
PAYLOAD_BUF = 0x41_0000
RX_HDR_BUF = 0x50_0000
RX_PAYLOAD_BUF = 0x51_0000
DEPTH = 128

LEFT = TcpEndpoint(mac="02:00:00:00:00:01", ip="10.0.0.1", port=5000)
RIGHT = TcpEndpoint(mac="02:00:00:00:00:02", ip="10.0.0.2", port=6000)


class TestDescriptorFormats:
    def test_send_roundtrip(self):
        desc = SendDescriptor(hdr_addr=0x1000, hdr_len=54,
                              payload_addr=0x2000, payload_len=4096,
                              lso=True, mss=1460)
        assert SendDescriptor.unpack(desc.pack()) == desc

    def test_recv_roundtrip(self):
        desc = RecvDescriptor(payload_addr=0x3000, buf_len=65536,
                              hdr_addr=0x4000)
        assert RecvDescriptor.unpack(desc.pack()) == desc

    def test_cmpl_roundtrip(self):
        cmpl = RecvCompletion(hdr_len=54, payload_len=1460, desc_index=7)
        assert RecvCompletion.unpack(cmpl.pack()) == cmpl

    def test_dropped_frame_encoding(self):
        dropped = RecvCompletion.unpack(
            RecvCompletion.dropped_frame(7).pack())
        assert dropped.dropped and dropped.desc_index == 7
        # A header-split pure ACK and a non-split frame each have one
        # zero length; neither reads as dropped.
        assert not RecvCompletion(HEADER_LEN, 0, 7).dropped
        assert not RecvCompletion(0, HEADER_LEN, 7).dropped

    def test_bad_sizes_rejected(self):
        with pytest.raises(ProtocolError):
            SendDescriptor.unpack(b"\x00" * 31)
        with pytest.raises(ProtocolError):
            RecvDescriptor.unpack(b"\x00" * 31)
        with pytest.raises(ProtocolError):
            RecvCompletion.unpack(b"\x00" * 31)


@pytest.fixture
def pair(sim, fabric):
    """Two NICs on one fabric connected by a wire, rings in host DRAM."""
    left = Nic(sim, fabric, "nic-left", bar_base=NIC_BAR)
    right = Nic(sim, fabric, "nic-right", bar_base=NIC2_BAR)
    wire = Wire(sim)
    left.connect(wire)
    right.connect(wire)
    tx = left.configure_tx(TX_RING, DEPTH, TX_STATUS)
    rx = right.configure_rx(RX_DESC, RX_CMPL, DEPTH, RX_STATUS)
    return left, right, tx, rx


def _post_recv_buffers(rx, count, split=True, buf_len=64 * KIB):
    for i in range(count):
        rx.post(RecvDescriptor(
            payload_addr=RX_PAYLOAD_BUF + i * buf_len,
            buf_len=buf_len,
            hdr_addr=(RX_HDR_BUF + i * 64) if split else 0))


def _send(fabric, tx, flow, payload, lso=True):
    """Stage header+payload in memory and push one send descriptor."""
    fabric.poke(HDR_BUF, flow.lso_header(len(payload)))
    if payload:
        fabric.poke(PAYLOAD_BUF, payload)
    tx.push(SendDescriptor(hdr_addr=HDR_BUF, hdr_len=HEADER_LEN,
                           payload_addr=PAYLOAD_BUF,
                           payload_len=len(payload), lso=lso))


class TestTransmitReceive:
    def _run_transfer(self, sim, fabric, pair, payload, split=True):
        left, right, tx, rx = pair
        flow = TcpFlow(local=LEFT, remote=RIGHT)
        _post_recv_buffers(rx, 64, split=split)

        def body(sim):
            yield from rx.ring("host")
            _send(fabric, tx, flow, payload)
            yield from tx.ring("host")
            # Wait until all payload bytes have been received.
            expected = -(-len(payload) // TCP_MSS) if payload else 1
            while rx.producer_index() < expected:
                yield sim.timeout(1000)

        sim.run(until=sim.process(body(sim)))
        return rx

    def test_single_frame_end_to_end(self, sim, fabric, pair):
        payload = b"hello, remote node!"
        rx = self._run_transfer(sim, fabric, pair, payload)
        cmpl = rx.poll_completion()
        assert cmpl.payload_len == len(payload)
        assert cmpl.hdr_len == HEADER_LEN
        assert fabric.peek(RX_PAYLOAD_BUF, len(payload)) == payload

    def test_lso_segments_large_payload(self, sim, fabric, pair):
        left, right, tx, rx = pair
        payload = bytes(range(256)) * 64  # 16 KiB
        self._run_transfer(sim, fabric, pair, payload)
        n_frames = -(-len(payload) // TCP_MSS)
        assert left.frames_sent == n_frames
        assert right.frames_received == n_frames
        # Reassemble from per-frame completions.
        got = bytearray()
        while (cmpl := rx.poll_completion()) is not None:
            index = cmpl.desc_index
            got += fabric.peek(RX_PAYLOAD_BUF + index * 64 * KIB,
                               cmpl.payload_len)
        assert bytes(got) == payload

    def test_header_split_separates_headers(self, sim, fabric, pair):
        payload = b"split me"
        rx = self._run_transfer(sim, fabric, pair, payload, split=True)
        cmpl = rx.poll_completion()
        header = fabric.peek(RX_HDR_BUF + cmpl.desc_index * 64, HEADER_LEN)
        # The header bytes parse as a real frame header for this flow.
        frame = parse_frame(header + fabric.peek(
            RX_PAYLOAD_BUF + cmpl.desc_index * 64 * KIB, cmpl.payload_len))
        assert frame.ip.src_ip == LEFT.ip
        assert frame.payload == payload

    def test_no_split_stores_whole_frame(self, sim, fabric, pair):
        payload = b"whole frame please"
        rx = self._run_transfer(sim, fabric, pair, payload, split=False)
        cmpl = rx.poll_completion()
        assert cmpl.hdr_len == 0
        raw = fabric.peek(RX_PAYLOAD_BUF + cmpl.desc_index * 64 * KIB,
                          cmpl.payload_len)
        assert parse_frame(raw).payload == payload

    def test_full_mtu_stream_hits_9gbps(self, sim, fabric, pair):
        left, right, tx, rx = pair
        flow = TcpFlow(local=LEFT, remote=RIGHT)
        _post_recv_buffers(rx, 120, split=True, buf_len=2 * KIB)
        total = 64 * KIB

        def body(sim):
            yield from rx.ring("host")
            start = sim.now
            _send(fabric, tx, flow, bytes(total))
            yield from tx.ring("host")
            frames = -(-total // TCP_MSS)
            while rx.producer_index() < frames:
                yield sim.timeout(1000)
            return sim.now - start

        elapsed = sim.run(until=sim.process(body(sim)))
        goodput_gbps = total * 8 / (elapsed / SEC) / 1e9
        assert 7.0 < goodput_gbps < 9.6

    def test_tx_status_block_advances(self, sim, fabric, pair):
        left, right, tx, rx = pair
        flow = TcpFlow(local=LEFT, remote=RIGHT)
        _post_recv_buffers(rx, 8)
        assert tx.consumer_index() == 0

        def body(sim):
            yield from rx.ring("host")
            _send(fabric, tx, flow, b"abc")
            yield from tx.ring("host")
            while tx.consumer_index() < 1:
                yield sim.timeout(1000)

        sim.run(until=sim.process(body(sim)))
        assert tx.consumer_index() == 1

    def test_oversized_non_lso_fails(self, sim, fabric, pair):
        left, right, tx, rx = pair
        flow = TcpFlow(local=LEFT, remote=RIGHT)
        _post_recv_buffers(rx, 8)

        def body(sim):
            yield from rx.ring("host")
            _send(fabric, tx, flow, bytes(8 * KIB), lso=False)
            yield from tx.ring("host")
            yield sim.timeout(1_000_000)

        sim.process(body(sim))
        sim.run()
        # The TX engine dies on the protocol violation; nothing was sent.
        assert not left.tx_processes[0].ok
        assert left.frames_sent == 0
        with pytest.raises(ProtocolError, match="MTU"):
            _ = left.tx_processes[0].value

    def test_double_connect_rejected(self, sim, fabric):
        nic = Nic(sim, fabric, "nic-x", bar_base=0x8300_0000)
        wire = Wire(sim)
        nic.connect(wire)
        with pytest.raises(DeviceError):
            nic.connect(Wire(sim))

    def test_channel_exhaustion_rejected(self, sim, fabric, pair):
        left, right, tx, rx = pair
        for _ in range(left.config.max_channels - 1):
            left.configure_tx(TX_RING, DEPTH, TX_STATUS)
        with pytest.raises(DeviceError):
            left.configure_tx(TX_RING, DEPTH, TX_STATUS)

    def test_second_channel_gets_distinct_doorbell(self, sim, fabric, pair):
        left, right, tx, rx = pair
        tx2 = left.configure_tx(TX_RING + 0x8000, DEPTH, TX_STATUS + 0x40)
        assert tx2.channel == 1
        assert tx2.doorbell != tx.doorbell

    def test_steering_requires_existing_channel(self, sim, fabric, pair):
        left, right, tx, rx = pair
        with pytest.raises(DeviceError):
            right.steer_flow("10.0.0.1", 5000, 6000, rx_channel=3)

    def test_send_ring_full_detected(self, sim, fabric, pair):
        left, right, tx, rx = pair
        desc = SendDescriptor(hdr_addr=HDR_BUF, hdr_len=HEADER_LEN,
                              payload_addr=PAYLOAD_BUF, payload_len=0)
        for _ in range(DEPTH):
            tx.push(desc)
        with pytest.raises(ProtocolError, match="full"):
            tx.push(desc)


class TestUnwrap32:
    """The one 32-bit counter unwrap the NIC and both ring views use."""

    def test_counter_survives_the_32_bit_wrap(self):
        assert unwrap32(5, 7) == 7
        assert unwrap32(0xFFFF_FFFE, 1) == (1 << 32) + 1
        assert unwrap32((1 << 32) + 3, 3) == (1 << 32) + 3

    def test_status_block_reads_unwrap(self, sim, fabric, pair):
        left, right, tx, rx = pair
        for status, read in ((TX_STATUS, tx.consumer_index),
                             (RX_STATUS, rx.producer_index)):
            for low in (0xFFFF_FFF0, 0x10):
                fabric.poke(status, low.to_bytes(4, "little"))
                value = read()
            assert value == (1 << 32) + 0x10


class TestNicClient:
    """The submitter side both NIC owners share: completions are faked
    by writing the completion ring and status block directly."""

    BUF = 2 * KIB

    @pytest.fixture
    def client(self, sim, fabric):
        nic = Nic(sim, fabric, "nic-c", bar_base=NIC_BAR)
        client = NicClient(nic, "host", DEPTH, TX_RING, TX_STATUS, RX_DESC,
                           RX_CMPL, RX_STATUS, HDR_BUF, hdr_slots=DEPTH,
                           ring_every=3, interrupt=False)
        for i in range(DEPTH - 1):
            client.post(RecvDescriptor(payload_addr=RX_PAYLOAD_BUF
                                       + i * self.BUF, buf_len=self.BUF))
        return client

    @staticmethod
    def _land(fabric, completions):
        """The NIC wrote these completions, in ring order from slot 0."""
        for slot, cmpl in enumerate(completions):
            fabric.poke(RX_CMPL + slot * RECV_CMPL_SIZE, cmpl.pack())
        fabric.poke(RX_STATUS, len(completions).to_bytes(4, "little"))

    @staticmethod
    def _drain(sim, client, handle):
        client.draining = True
        process = sim.process(client.drain(handle))
        sim.run()
        return process

    def test_dropped_completion_reposts_the_same_buffer(self, sim, fabric,
                                                         client):
        first = client.posted[0]
        self._land(fabric, [RecvCompletion.dropped_frame(0)])
        seen = []

        def handle(cmpl, desc):
            seen.append((cmpl.dropped, desc))
            yield sim.timeout(10)

        assert self._drain(sim, client, handle).ok
        assert seen == [(True, first)]
        assert 0 not in client.posted
        assert client.posted[DEPTH - 1] == first
        assert len(client.posted) == DEPTH - 1
        assert RecvDescriptor.unpack(fabric.peek(
            RX_DESC + (DEPTH - 1) * RECV_DESC_SIZE, RECV_DESC_SIZE)) == first

    def test_doorbell_every_ring_every_reposts_plus_a_trailing_one(
            self, sim, fabric, client):
        self._land(fabric, [RecvCompletion(0, 100, slot)
                            for slot in range(7)])
        tails = []
        ring = client.recv_ring.ring

        def counting_ring(initiator):
            tails.append(client.recv_ring.tail)
            return ring(initiator)

        client.recv_ring.ring = counting_ring

        def handle(cmpl, desc):
            yield sim.timeout(10)

        assert self._drain(sim, client, handle).ok
        base = DEPTH - 1
        assert tails == [base + 3, base + 6, base + 7]
        assert not client.draining

    def test_draining_clears_when_the_handler_raises(self, sim, fabric,
                                                     client):
        self._land(fabric, [RecvCompletion(0, 100, 0)])

        def handle(cmpl, desc):
            yield sim.timeout(10)
            raise ProtocolError("bad frame")

        process = self._drain(sim, client, handle)
        assert not process.ok
        with pytest.raises(ProtocolError, match="bad frame"):
            _ = process.value
        assert not client.draining

    def test_start_drain_is_single_flight(self, sim, fabric, client):
        self._land(fabric, [RecvCompletion(0, 100, 0)])
        pumps = []

        def handle(cmpl, desc):
            yield sim.timeout(10)

        def pump():
            pumps.append(sim.now)
            yield from client.drain(handle)

        client.start_drain(pump)
        client.start_drain(pump)   # a drain is running: it sees this too
        sim.run()
        assert pumps == [0] and not client.draining
        client.start_drain(pump)
        sim.run()
        assert len(pumps) == 2
