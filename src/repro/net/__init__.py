"""Network substrate: real packet headers, TCP framing, a two-node wire.

The NIC controller in the HDC Engine "generates TCP/IP packet headers
and stores them in the header buffer" and on receive "parses the
received packet headers ... to identify a target connection and
destination location" (paper §III-C).  To reproduce that faithfully,
packets here are real byte strings with real Ethernet/IPv4/TCP headers
and checksums — the engine's NIC controller and the host kernel both
build and parse the same bytes.
"""

from repro.net.headers import (ETH_HLEN, IP_HLEN, TCP_HLEN, EthernetHeader,
                               Ipv4Header, TcpHeader, checksum16)
from repro.net.packet import (FRAME_WIRE_OVERHEAD, HEADER_LEN, MTU,
                              TCP_MSS, Frame, build_frame, check_frame,
                              parse_frame, segment_payload, wire_bytes)
from repro.net.tcp import FlowTable, TcpEndpoint, TcpFlow
from repro.net.wire import Wire

__all__ = [
    "ETH_HLEN",
    "FRAME_WIRE_OVERHEAD",
    "Frame",
    "HEADER_LEN",
    "IP_HLEN",
    "MTU",
    "TCP_HLEN",
    "TCP_MSS",
    "EthernetHeader",
    "FlowTable",
    "Ipv4Header",
    "TcpEndpoint",
    "TcpFlow",
    "TcpHeader",
    "Wire",
    "build_frame",
    "check_frame",
    "checksum16",
    "parse_frame",
    "segment_payload",
    "wire_bytes",
]
