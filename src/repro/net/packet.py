"""Frame building, checking, decoding and MTU segmentation.

A :class:`Frame` is a fully serialized Ethernet frame carrying one TCP
segment.  :func:`segment_payload` reproduces what the NIC's large-send
offload (LSO) does in hardware: split one big payload into MSS-sized
segments, replicating and fixing up the headers for each.

On receive the NIC is the one validator (:func:`check_frame`, RX
checksum offload); everything after it only decodes, through
:data:`RX_FIELDS`.  :func:`parse_frame` is the public parser and the
tests' oracle, on no simulation path.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Tuple

from repro.errors import ProtocolError
from repro.net.headers import (ETH_HLEN, ETHERTYPE_IPV4, IP_HLEN, TCP_HLEN,
                               EthernetHeader, Ipv4Header, TcpHeader,
                               _ip_bytes, _ip_str, _mac_str, ipv4_fields,
                               pack_ipv4, tcp_checksum_ok)

MTU = 1500
HEADER_LEN = ETH_HLEN + IP_HLEN + TCP_HLEN  # 54: bytes the NIC splits off
TCP_MSS = MTU - IP_HLEN - TCP_HLEN          # 1460

# Per-frame wire overhead beyond the frame bytes themselves:
# preamble+SFD (8) + FCS (4) + inter-frame gap (12).
FRAME_WIRE_OVERHEAD = 24


class Frame(NamedTuple):
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
    return (eth.pack()
            + pack_ipv4(ip_src, ip_dst, IP_HLEN + TCP_HLEN + len(payload))
            + tcp.pack(ip_src, ip_dst, payload) + payload)


# The one decode a checked frame gets: (source address, destination
# address, source port, destination port, sequence), the addresses as
# raw 4 bytes, read from the IPv4 source address on.  NIC flow
# steering, the host stack and the HDC Engine's NIC controller all
# read received headers through it.
RX_FIELDS = struct.Struct("!4s4sHHI")
RX_FIELDS_OFFSET = ETH_HLEN + 12

# A flow-steering key: a received frame's (raw source address, source
# port, destination port), i.e. its flow's (remote address, remote
# port, local port).
FlowKey = Tuple[bytes, int, int]


def flow_key(remote_ip: str, remote_port: int, local_port: int) -> FlowKey:
    """The steering key of the frames a flow receives."""
    return (_ip_bytes(remote_ip), remote_port, local_port)


# Ethertype, then all three fixed headers of a checked frame at once.
_ETHERTYPE = struct.Struct("!H")
_HEADERS = struct.Struct("!6s6sH BBHHHBBH4s4s HHIIBBHHH")


def check_frame(data: bytes) -> None:
    """Validate a serialized frame, building no records.

    Every check a received frame gets lives here, and the receiving
    NIC runs it once per frame: ethertype, IPv4 header
    (:func:`~repro.net.headers.ipv4_fields`), L4 length and TCP
    checksum.  Raises :class:`ProtocolError` on the first that fails.
    """
    if len(data) < ETH_HLEN:
        raise ProtocolError(f"ethernet header truncated: {len(data)} bytes")
    (ethertype,) = _ETHERTYPE.unpack_from(data, ETH_HLEN - 2)
    if ethertype != ETHERTYPE_IPV4:
        raise ProtocolError(f"unexpected ethertype {hex(ethertype)}")
    ip = ipv4_fields(data, ETH_HLEN)
    total_length = ip[2]
    segment = data[ETH_HLEN + IP_HLEN:ETH_HLEN + total_length]
    if len(segment) != total_length - IP_HLEN:
        raise ProtocolError(
            f"frame truncated: IP says {total_length - IP_HLEN} bytes of "
            f"L4, got {len(segment)}")
    if not tcp_checksum_ok(ip[8], ip[9], segment):
        raise ProtocolError("TCP checksum mismatch")
    if len(segment) < TCP_HLEN:
        raise ProtocolError(f"TCP header truncated: {len(segment)} bytes")


def parse_frame(data: bytes) -> Frame:
    """Validate a serialized frame and build its records."""
    check_frame(data)
    (dst_mac, src_mac, ethertype, _version_ihl, _tos, total_length, ident,
     _frag, ttl, protocol, _ip_csum, src_ip, dst_ip, src_port, dst_port,
     seq, ack, _offset, flags, window, _tcp_csum,
     _urgent) = _HEADERS.unpack_from(data)
    return Frame(EthernetHeader(_mac_str(dst_mac), _mac_str(src_mac),
                                ethertype),
                 Ipv4Header(_ip_str(src_ip), _ip_str(dst_ip), total_length,
                            ident, ttl, protocol),
                 TcpHeader(src_port, dst_port, seq, ack, flags, window),
                 data[ETH_HLEN + IP_HLEN + TCP_HLEN:ETH_HLEN + total_length])


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
        seg_tcp = TcpHeader(tcp.src_port, tcp.dst_port, tcp.seq + offset,
                            tcp.ack, tcp.flags, tcp.window)
        frames.append(build_frame(eth, ip_src, ip_dst, seg_tcp, chunk))
        offset += len(chunk)
    return frames
