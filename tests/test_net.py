"""Tests for headers, frames, LSO segmentation, flows and the wire."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.command import D2DCommand, D2DCompletion, D2DKind
from repro.devices.nic.descriptors import (RecvCompletion, RecvDescriptor,
                                           SendDescriptor)
from repro.devices.nvme.commands import Completion, NvmeCommand
from repro.errors import ProtocolError, SimulationError
from repro.net import headers
from repro.net import (Frame, FlowTable, HEADER_LEN, MTU, TCP_MSS,
                       EthernetHeader, Ipv4Header, TcpEndpoint, TcpFlow,
                       TcpHeader, Wire, build_frame, check_frame, checksum16,
                       parse_frame, segment_payload, wire_bytes)
from repro.net.packet import RX_FIELDS, RX_FIELDS_OFFSET, flow_key
from repro.sim import Simulator
from repro.units import SEC, gbps

ETH = EthernetHeader(dst_mac="02:00:00:00:00:02", src_mac="02:00:00:00:00:01")
A = TcpEndpoint(mac="02:00:00:00:00:01", ip="10.0.0.1", port=5000)
B = TcpEndpoint(mac="02:00:00:00:00:02", ip="10.0.0.2", port=6000)


def make_frame(payload=b"hello", seq=1):
    tcp = TcpHeader(src_port=A.port, dst_port=B.port, seq=seq)
    return build_frame(ETH, A.ip, B.ip, tcp, payload)


def reference_checksum16(data: bytes) -> int:
    """RFC 1071 checksum summed word by word with end-around carry."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _zero_sum_words(words):
    """``words`` plus one word that makes their sum 0 mod 0xFFFF."""
    words = list(words)
    words.append(-sum(words) % 0xFFFF)
    return struct.pack(f"!{len(words)}H", *words)


CHECKSUM_EDGES = [
    b"",
    b"\x00",
    b"\xff",
    b"\x00" * 2,
    b"\x00" * 7,
    b"\x00" * 1500,
    b"\xff" * 2,
    b"\xff" * 3,
    b"\xff" * 1501,
    b"\x80\x00\x7f\xff",           # words sum to exactly 0xFFFF
    b"\xff\xfe\x00\x01",           # likewise, through a carry-free sum
    b"\xff\xff" * 2 + b"\x00\x00",  # 2 * 0xFFFF
    b"\x00\x01\xff\xfe\x00",       # odd length, sum 0xFFFF
    b"\xff\xfe\x01",               # odd byte padded to 0x0100
    _zero_sum_words(range(1, 200, 3)),
]


class TestChecksum:
    @pytest.mark.parametrize("data", CHECKSUM_EDGES,
                             ids=range(len(CHECKSUM_EDGES)))
    def test_matches_word_loop_on_edges(self, data):
        assert checksum16(data) == reference_checksum16(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=3000))
    def test_matches_word_loop_property(self, data):
        assert checksum16(data) == reference_checksum16(data)

    @settings(max_examples=100, deadline=None)
    @given(words=st.lists(st.integers(0, 0xFFFF), max_size=200),
           odd_byte=st.one_of(st.none(), st.integers(0, 255)))
    def test_matches_word_loop_on_zero_sums(self, words, odd_byte):
        data = _zero_sum_words(words)
        if odd_byte is not None:
            data += bytes([odd_byte])
        assert checksum16(data) == reference_checksum16(data)

    @settings(max_examples=50, deadline=None)
    @given(fill=st.sampled_from([0x00, 0xFF]), length=st.integers(0, 3000))
    def test_matches_word_loop_on_uniform_runs(self, fill, length):
        data = bytes([fill]) * length
        assert checksum16(data) == reference_checksum16(data)

    def test_known_vector(self):
        # RFC 1071 example: checksum of this sequence is 0xddf2.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert checksum16(data) == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)

    def test_checksum_of_data_plus_checksum_is_zero(self):
        data = b"some header bytes!"
        csum = checksum16(data)
        assert checksum16(data + struct.pack("!H", csum)) == 0

    def test_odd_length_padded(self):
        assert checksum16(b"\xff") == checksum16(b"\xff\x00")


class TestHeaders:
    def test_eth_roundtrip(self):
        packed = ETH.pack()
        assert len(packed) == 14
        assert EthernetHeader.unpack(packed) == ETH

    def test_ipv4_roundtrip(self):
        header = Ipv4Header(src_ip="192.168.1.10", dst_ip="10.0.0.2",
                            total_length=1500, ident=7)
        packed = header.pack()
        assert len(packed) == 20
        parsed = Ipv4Header.unpack(packed)
        assert parsed.src_ip == "192.168.1.10"
        assert parsed.dst_ip == "10.0.0.2"
        assert parsed.total_length == 1500

    def test_ipv4_checksum_detected(self):
        packed = bytearray(Ipv4Header("1.2.3.4", "5.6.7.8", 100).pack())
        packed[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(ProtocolError, match="checksum"):
            Ipv4Header.unpack(bytes(packed))

    def test_tcp_roundtrip(self):
        tcp = TcpHeader(src_port=80, dst_port=443, seq=12345, ack=999)
        packed = tcp.pack("1.1.1.1", "2.2.2.2", b"payload")
        parsed = TcpHeader.unpack(packed)
        assert (parsed.src_port, parsed.dst_port) == (80, 443)
        assert (parsed.seq, parsed.ack) == (12345, 999)

    def test_tcp_checksum_covers_payload(self):
        tcp = TcpHeader(src_port=80, dst_port=443, seq=1)
        packed = tcp.pack("1.1.1.1", "2.2.2.2", b"payload")
        assert TcpHeader.verify_checksum("1.1.1.1", "2.2.2.2",
                                         packed + b"payload")
        assert not TcpHeader.verify_checksum("1.1.1.1", "2.2.2.2",
                                             packed + b"tampered")

    def test_bad_mac_rejected(self):
        with pytest.raises(ProtocolError):
            EthernetHeader(dst_mac="nonsense", src_mac="02:00:00:00:00:01").pack()



MACS = st.binary(min_size=6, max_size=6).map(
    lambda raw: ":".join(f"{b:02x}" for b in raw))
IPS = st.binary(min_size=4, max_size=4).map(
    lambda raw: ".".join(str(b) for b in raw))


def roundtrip_addresses(dst_mac, src_mac, src_ip, dst_ip, payload=b"x"):
    eth = EthernetHeader(dst_mac=dst_mac, src_mac=src_mac)
    tcp = TcpHeader(src_port=1, dst_port=2, seq=3)
    frame = parse_frame(build_frame(eth, src_ip, dst_ip, tcp, payload))
    assert frame.eth == eth
    assert (frame.ip.src_ip, frame.ip.dst_ip) == (src_ip, dst_ip)
    assert frame.payload == payload


class TestHeaderCaches:
    """The MAC/IP text<->bytes helpers are memoized (1024 entries each);
    results must not depend on what is or was cached."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(MACS, MACS, IPS, IPS),
                          min_size=20, max_size=60))
    def test_roundtrip_across_many_addresses(self, pairs):
        # 60 examples x 20+ pairs x 2 of each: well past 1024 entries.
        for dst_mac, src_mac, src_ip, dst_ip in pairs:
            roundtrip_addresses(dst_mac, src_mac, src_ip, dst_ip)

    def test_roundtrip_survives_eviction(self):
        def addresses(i):
            return (f"02:00:00:00:{i >> 8:02x}:{i & 0xFF:02x}",
                    f"06:00:00:00:{i >> 8:02x}:{i & 0xFF:02x}",
                    f"10.1.{i >> 8}.{i & 0xFF}", f"10.2.{i >> 8}.{i & 0xFF}")

        distinct = 3 * 1024
        for i in range(distinct):
            roundtrip_addresses(*addresses(i))
        for helper in (headers._mac_bytes, headers._mac_str,
                       headers._ip_bytes, headers._ip_str):
            assert helper.cache_info().currsize == 1024, helper.__name__
        for i in (0, 1, distinct // 2, distinct - 1):  # evicted, then live
            roundtrip_addresses(*addresses(i))

    def test_parse_accepts_any_buffer_type(self):
        raw = make_frame(b"buffer")
        for data in (raw, bytearray(raw), memoryview(raw)):
            frame = parse_frame(data)
            assert frame.eth == ETH
            assert bytes(frame.payload) == b"buffer"

    @pytest.mark.parametrize("mac", ["nonsense", "02:00:00:00:00",
                                     "02:00:00:00:00:01:02", ""])
    def test_malformed_mac_raises_every_time(self, mac):
        for _ in range(3):
            with pytest.raises(ProtocolError, match="bad MAC"):
                EthernetHeader(dst_mac=mac, src_mac=A.mac).pack()

    @pytest.mark.parametrize("ip", ["10.0.0", "10.0.0.1.2", "nonsense", ""])
    def test_malformed_ip_raises_every_time(self, ip):
        for _ in range(3):
            with pytest.raises(ProtocolError, match="bad IPv4"):
                Ipv4Header(src_ip=ip, dst_ip=B.ip, total_length=40).pack()
            with pytest.raises(ProtocolError, match="bad IPv4"):
                build_frame(ETH, A.ip, ip, TcpHeader(1, 2, 3), b"")


class TestFrames:
    def test_build_parse_roundtrip(self):
        frame = parse_frame(make_frame(b"hello world"))
        assert frame.payload == b"hello world"
        assert frame.ip.src_ip == A.ip
        assert frame.tcp.dst_port == B.port

    def test_corrupt_payload_detected(self):
        raw = bytearray(make_frame(b"hello world"))
        raw[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            parse_frame(bytes(raw))

    def test_header_len_is_54(self):
        assert HEADER_LEN == 54
        assert len(make_frame(b"")) == 54

    def test_wire_bytes_adds_overhead(self):
        assert wire_bytes(1514) == 1538
        assert wire_bytes(10) == 60 + 24  # runt padding

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=3000))
    def test_roundtrip_property(self, payload):
        tcp = TcpHeader(src_port=A.port, dst_port=B.port, seq=77)
        if len(payload) > TCP_MSS:
            frames = segment_payload(ETH, A.ip, B.ip, tcp, payload)
            got = b"".join(parse_frame(f).payload for f in frames)
        else:
            got = parse_frame(build_frame(ETH, A.ip, B.ip, tcp, payload)).payload
        assert got == payload


def uint(bits):
    return st.integers(0, (1 << bits) - 1)


TCP_HEADERS = st.builds(TcpHeader, uint(16), uint(16), uint(32), uint(32),
                        uint(8), uint(16))


@st.composite
def frames(draw):
    """A frame as parse_frame returns it: the IPv4 fields build_frame
    does not take are its defaults."""
    payload = draw(st.binary(max_size=TCP_MSS))
    ip = Ipv4Header(draw(IPS), draw(IPS), total_length=40 + len(payload))
    return Frame(EthernetHeader(draw(MACS), draw(MACS)), ip,
                 draw(TCP_HEADERS), payload)


def pack_frame(frame):
    return build_frame(frame.eth, frame.ip.src_ip, frame.ip.dst_ip,
                       frame.tcp, frame.payload)


# The eleven wire-format records: (values, encoder, decoder).
RECORDS = {
    EthernetHeader: (st.builds(EthernetHeader, MACS, MACS, uint(16)),
                     EthernetHeader.pack, EthernetHeader.unpack),
    Ipv4Header: (st.builds(Ipv4Header, IPS, IPS, uint(16), uint(16),
                           uint(8), uint(8)),
                 Ipv4Header.pack, Ipv4Header.unpack),
    TcpHeader: (TCP_HEADERS, lambda tcp: tcp.pack(A.ip, B.ip, b""),
                TcpHeader.unpack),
    Frame: (frames(), pack_frame, parse_frame),
    SendDescriptor: (st.builds(SendDescriptor, uint(64), uint(16), uint(64),
                               uint(32), st.booleans(), uint(16)),
                     SendDescriptor.pack, SendDescriptor.unpack),
    RecvDescriptor: (st.builds(RecvDescriptor, uint(64), uint(32), uint(64)),
                     RecvDescriptor.pack, RecvDescriptor.unpack),
    RecvCompletion: (st.builds(RecvCompletion, uint(16), uint(32), uint(16)),
                     RecvCompletion.pack, RecvCompletion.unpack),
    NvmeCommand: (st.builds(NvmeCommand, uint(8), uint(16), uint(32),
                            uint(64), uint(64), uint(64), uint(16)),
                  NvmeCommand.pack, NvmeCommand.unpack),
    Completion: (st.builds(Completion, uint(16), uint(16), uint(15), uint(1),
                           uint(32), uint(16)),
                 Completion.pack, Completion.unpack),
    D2DCommand: (st.builds(D2DCommand, uint(32), st.sampled_from(D2DKind),
                           uint(64), uint(64), st.integers(1, (1 << 32) - 1),
                           uint(8), uint(8), uint(64)),
                 D2DCommand.pack, D2DCommand.unpack),
    D2DCompletion: (st.builds(D2DCompletion, uint(32), uint(16),
                              st.binary(max_size=32), uint(64)),
                    D2DCompletion.pack, D2DCompletion.unpack),
}


def protocol_error(check, data):
    """The ProtocolError message ``check(data)`` raises, or None."""
    try:
        check(data)
    except ProtocolError as exc:
        return str(exc)
    return None


class TestCodecProperties:
    """Wire records are immutable tuples that round-trip bit-exactly,
    and the frame validator agrees with parse_frame on every input."""

    @pytest.mark.parametrize("record", list(RECORDS),
                             ids=lambda record: record.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_roundtrip_and_immutability(self, record, data):
        values, encode, decode = RECORDS[record]
        rec = data.draw(values)
        decoded = decode(encode(rec))
        assert decoded == rec
        assert type(decoded) is record
        # A tuple subclass: a frozen dataclass coming back fails here.
        assert issubclass(record, tuple)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))

    @settings(max_examples=300, deadline=None)
    @given(frame=frames(), data=st.data())
    def test_check_frame_raises_exactly_when_parse_frame_does(self, frame,
                                                               data):
        raw = bytearray(pack_frame(frame))
        if data.draw(st.booleans()):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
                st.integers(1, 255))
        raw = bytes(raw)
        assert (protocol_error(check_frame, raw)
                == protocol_error(parse_frame, raw))

    @pytest.mark.parametrize("flip, length, message", [
        (-1, None, "TCP checksum mismatch"),
        (12, None, "unexpected ethertype"),
        (14, None, "not IPv4"),
        (22, None, "IPv4 header checksum mismatch"),
        (None, 10, "ethernet header truncated"),
        (None, 30, "IPv4 header truncated: 16 bytes"),
        (None, HEADER_LEN + 6, "frame truncated"),
    ])
    def test_check_frame_names_the_failed_check(self, flip, length, message):
        raw = bytearray(make_frame(b"payload"))
        if flip is not None:
            raw[flip] ^= 0xFF
        raw = bytes(raw[:length])
        with pytest.raises(ProtocolError, match=message):
            check_frame(raw)
        assert protocol_error(parse_frame, raw) == protocol_error(
            check_frame, raw)


class TestSegmentation:
    def test_small_payload_single_frame(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=100)
        frames = segment_payload(ETH, A.ip, B.ip, tcp, b"x" * 100)
        assert len(frames) == 1

    def test_large_payload_splits_at_mss(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=100)
        payload = bytes(64 * 1024)
        frames = segment_payload(ETH, A.ip, B.ip, tcp, payload)
        assert len(frames) == -(-len(payload) // TCP_MSS)
        assert all(len(f) <= MTU + 14 for f in frames)

    def test_sequence_numbers_advance(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=100)
        frames = segment_payload(ETH, A.ip, B.ip, tcp, bytes(4000))
        seqs = [parse_frame(f).tcp.seq for f in frames]
        assert seqs == [100, 100 + TCP_MSS, 100 + 2 * TCP_MSS]

    def test_reassembly_preserves_content(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=0)
        payload = bytes(range(256)) * 40
        frames = segment_payload(ETH, A.ip, B.ip, tcp, payload)
        assert b"".join(parse_frame(f).payload for f in frames) == payload

    def test_empty_payload_yields_bare_ack(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=5)
        frames = segment_payload(ETH, A.ip, B.ip, tcp, b"")
        assert len(frames) == 1
        assert parse_frame(frames[0]).payload == b""

    def test_bad_mss_rejected(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=5)
        with pytest.raises(ProtocolError):
            segment_payload(ETH, A.ip, B.ip, tcp, b"x", mss=0)


def receive(table, frame):
    """``FlowTable.receive`` as the receivers call it: the frame's
    headers and its TCP payload."""
    return table.receive(frame, frame[HEADER_LEN:])


class TestTcpFlow:
    """TCP flows and the one receive-side check, ``FlowTable.receive``,
    fed the raw frames a NIC completes."""

    def test_send_receive_in_order(self):
        sender = TcpFlow(local=A, remote=B)
        receiver = sender.reverse()
        table = FlowTable()
        table.add(receiver)
        for chunk in (b"first", b"second", b"third"):
            tcp = sender.next_header(len(chunk))
            frame = build_frame(sender.eth_header(), A.ip, B.ip, tcp, chunk)
            expected = receiver.rcv_nxt + len(chunk)
            assert receive(table, frame) is receiver
            assert frame[HEADER_LEN:] == chunk
            assert receiver.rcv_nxt == expected
        assert table.discarded == 0

    def test_gap_detected(self):
        sender = TcpFlow(local=A, remote=B)
        receiver = sender.reverse()
        table = FlowTable()
        table.add(receiver)
        sender.next_header(10)  # segment lost
        tcp = sender.next_header(5)
        frame = build_frame(sender.eth_header(), A.ip, B.ip, tcp, b"xxxxx")
        rcv_nxt = receiver.rcv_nxt
        assert receive(table, frame) is None
        assert table.discarded == 1
        assert receiver.rcv_nxt == rcv_nxt   # every later frame discarded

    def test_wrong_flow_rejected(self):
        sender = TcpFlow(local=A, remote=B)
        other_local = TcpEndpoint(mac=B.mac, ip=B.ip, port=7777)
        table = FlowTable()
        table.add(TcpFlow(local=other_local, remote=A))
        tcp = sender.next_header(3)
        frame = build_frame(sender.eth_header(), A.ip, B.ip, tcp, b"abc")
        with pytest.raises(ProtocolError, match="unknown flow"):
            receive(table, frame)
        assert table.discarded == 0

    def test_wrong_destination_address_discarded(self):
        sender = TcpFlow(local=A, remote=B)
        receiver = sender.reverse()
        table = FlowTable()
        table.add(receiver)
        tcp = sender.next_header(3)
        frame = build_frame(sender.eth_header(), A.ip, "10.0.0.9", tcp,
                            b"abc")
        assert receive(table, frame) is None
        assert table.discarded == 1

    def test_flow_table_lookup(self):
        sender = TcpFlow(local=A, remote=B)
        receiver = sender.reverse()
        table = FlowTable()
        table.add(receiver)
        tcp = sender.next_header(2)
        frame = build_frame(sender.eth_header(), A.ip, B.ip, tcp, b"ok")
        assert receive(table, frame) is receiver
        table.remove(receiver)
        with pytest.raises(ProtocolError, match="unknown flow"):
            receive(table, frame)

    def test_split_header_and_payload(self):
        """The engine's header-split buffers: 54 header bytes and the
        payload apart give what the whole frame gives."""
        sender = TcpFlow(local=A, remote=B)
        receiver = sender.reverse()
        table = FlowTable()
        table.add(receiver)
        tcp = sender.next_header(4)
        frame = build_frame(sender.eth_header(), A.ip, B.ip, tcp, b"data")
        assert table.receive(frame[:HEADER_LEN], b"data") is receiver
        assert receiver.rcv_nxt == sender.snd_nxt

    def test_steering_key_is_the_decoded_key(self):
        """``flow_key`` and ``RX_FIELDS`` agree on a frame's flow."""
        frame = make_frame()
        src, dst, src_port, dst_port, seq = RX_FIELDS.unpack_from(
            frame, RX_FIELDS_OFFSET)
        parsed = parse_frame(frame)
        assert (src, src_port, dst_port) == flow_key(A.ip, A.port, B.port)
        assert (dst, seq) == (bytes([10, 0, 0, 2]), parsed.tcp.seq)


class TestWire:
    def test_delivery(self):
        sim = Simulator()
        wire = Wire(sim)
        wire.attach("left")
        right_in = wire.attach("right")
        frame = make_frame(b"over the wire")

        def sender(sim, wire):
            yield from wire.transmit("left", frame)

        def receiver(sim, queue):
            got = yield queue.get()
            return got

        sim.process(sender(sim, wire))
        proc = sim.process(receiver(sim, right_in))
        assert sim.run(until=proc) == frame

    def test_effective_rate_below_line_rate(self):
        """Full-MTU streaming lands near 9.4 Gbps on a 10 Gbps line."""
        sim = Simulator()
        wire = Wire(sim, rate=gbps(10))
        wire.attach("left")
        right_in = wire.attach("right")
        n_frames = 200
        payload = bytes(TCP_MSS)
        tcp = TcpHeader(src_port=1, dst_port=2, seq=0)
        frame = build_frame(ETH, A.ip, B.ip, tcp, payload)

        def sender(sim, wire):
            for _ in range(n_frames):
                yield from wire.transmit("left", frame)

        def receiver(sim, queue):
            for _ in range(n_frames):
                yield queue.get()

        sim.process(sender(sim, wire))
        proc = sim.process(receiver(sim, right_in))
        sim.run(until=proc)
        goodput = n_frames * TCP_MSS * 8 / (sim.now / SEC) / 1e9
        assert 9.0 < goodput < 9.6

    def test_in_order_delivery(self):
        sim = Simulator()
        wire = Wire(sim)
        wire.attach("left")
        right_in = wire.attach("right")
        got = []

        def sender(sim, wire):
            for i in range(10):
                yield from wire.transmit("left", make_frame(bytes([i]) * 10))

        def receiver(sim, queue):
            for _ in range(10):
                frame = yield queue.get()
                got.append(parse_frame(frame).payload[0])

        sim.process(sender(sim, wire))
        proc = sim.process(receiver(sim, right_in))
        sim.run(until=proc)
        assert got == list(range(10))

    def test_back_to_back_frames_arrive_after_serialization_and_propagation(
            self):
        sim = Simulator()
        wire = Wire(sim, rate=gbps(10), propagation=2_000)
        wire.attach("left")
        right_in = wire.attach("right")
        frames = [make_frame(bytes([i]) * (100 + 400 * i)) for i in range(4)]
        arrivals = []

        def sender():
            for frame in frames:
                yield from wire.transmit("left", frame)

        def receiver():
            for _ in frames:
                frame = yield right_in.get()
                arrivals.append((sim.now, parse_frame(frame).payload[0]))

        sim.process(sender())
        sim.run(until=sim.process(receiver()))
        expected, done = [], 0
        for i, frame in enumerate(frames):
            done += wire.rate.duration(wire_bytes(len(frame)))
            expected.append((done + 2_000, i))
        assert arrivals == expected

    def test_third_endpoint_rejected(self):
        sim = Simulator()
        wire = Wire(sim)
        wire.attach("a")
        wire.attach("b")
        with pytest.raises(SimulationError):
            wire.attach("c")

    def test_unattached_sender_rejected(self):
        sim = Simulator()
        wire = Wire(sim)
        wire.attach("a")
        wire.attach("b")

        def body(sim, wire):
            yield from wire.transmit("ghost", b"x" * 100)

        proc = sim.process(body(sim, wire))
        sim.run()
        assert not proc.ok
