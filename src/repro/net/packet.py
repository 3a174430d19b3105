"""Frame building, parsing and MTU segmentation.

A :class:`Frame` is a fully serialized Ethernet frame carrying one TCP
segment.  :func:`segment_payload` reproduces what the NIC's large-send
offload (LSO) does in hardware: split one big payload into MSS-sized
segments, replicating and fixing up the headers for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ProtocolError
from repro.net.headers import (ETH_HLEN, ETHERTYPE_IPV4, IP_HLEN, TCP_HLEN,
                               EthernetHeader, Ipv4Header, TcpHeader)

MTU = 1500
HEADER_LEN = ETH_HLEN + IP_HLEN + TCP_HLEN  # 54: bytes the NIC splits off
TCP_MSS = MTU - IP_HLEN - TCP_HLEN          # 1460

# Per-frame wire overhead beyond the frame bytes themselves:
# preamble+SFD (8) + FCS (4) + inter-frame gap (12).
FRAME_WIRE_OVERHEAD = 24


@dataclass(frozen=True)
class Frame:
    """A parsed Ethernet/IPv4/TCP frame."""

    eth: EthernetHeader
    ip: Ipv4Header
    tcp: TcpHeader
    payload: bytes


def wire_bytes(frame_len: int) -> int:
    """Bytes a frame of ``frame_len`` serialized bytes occupies on the wire.

    This is what makes the NIC's *effective* throughput ~9.4 Gbps on a
    10 Gbps line (the paper's footnote 3: "around 9 Gbps due to packet
    overheads").
    """
    return max(frame_len, 60) + FRAME_WIRE_OVERHEAD


def build_frame(eth: EthernetHeader, ip_src: str, ip_dst: str,
                tcp: TcpHeader, payload: bytes) -> bytes:
    """Serialize one frame with correct lengths and checksums."""
    ip = Ipv4Header(src_ip=ip_src, dst_ip=ip_dst,
                    total_length=IP_HLEN + TCP_HLEN + len(payload))
    return (eth.pack() + ip.pack()
            + tcp.pack(ip_src, ip_dst, payload) + payload)


def parse_frame(data: bytes) -> Frame:
    """Parse and validate a serialized frame."""
    eth = EthernetHeader.unpack(data)
    if eth.ethertype != ETHERTYPE_IPV4:
        raise ProtocolError(f"unexpected ethertype {hex(eth.ethertype)}")
    ip = Ipv4Header.unpack(data[ETH_HLEN:])
    segment = data[ETH_HLEN + IP_HLEN:ETH_HLEN + ip.total_length]
    if len(segment) != ip.total_length - IP_HLEN:
        raise ProtocolError(
            f"frame truncated: IP says {ip.total_length - IP_HLEN} bytes of "
            f"L4, got {len(segment)}")
    if not TcpHeader.verify_checksum(ip.src_ip, ip.dst_ip, segment):
        raise ProtocolError("TCP checksum mismatch")
    tcp = TcpHeader.unpack(segment)
    return Frame(eth=eth, ip=ip, tcp=tcp, payload=segment[TCP_HLEN:])


def segment_payload(eth: EthernetHeader, ip_src: str, ip_dst: str,
                    tcp: TcpHeader, payload: bytes,
                    mss: int = TCP_MSS) -> List[bytes]:
    """LSO: split ``payload`` into per-MSS frames with fixed-up headers.

    Sequence numbers advance per segment exactly as TSO hardware does.
    An empty payload still produces one frame (a bare ACK).
    """
    if mss <= 0:
        raise ProtocolError(f"MSS must be positive: {mss}")
    if not payload:
        return [build_frame(eth, ip_src, ip_dst, tcp, b"")]
    frames = []
    offset = 0
    while offset < len(payload):
        chunk = payload[offset:offset + mss]
        seg_tcp = TcpHeader(src_port=tcp.src_port, dst_port=tcp.dst_port,
                            seq=tcp.seq + offset, ack=tcp.ack,
                            flags=tcp.flags, window=tcp.window)
        frames.append(build_frame(eth, ip_src, ip_dst, seg_tcp, chunk))
        offset += len(chunk)
    return frames
