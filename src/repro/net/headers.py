"""Ethernet / IPv4 / TCP headers, packed and parsed bit-exactly.

Only the fields the reproduction needs are modelled behaviourally, but
the wire layouts are the real ones (RFC 791/793, IEEE 802.3) including
the IPv4 header checksum and the TCP checksum over the pseudo-header,
so header-generation hardware (the engine's NIC controller) and the
host kernel interoperate on actual bytes.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

from repro.errors import ProtocolError

ETH_HLEN = 14
IP_HLEN = 20
TCP_HLEN = 20

ETHERTYPE_IPV4 = 0x0800
IPPROTO_TCP = 6

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10


def checksum16(data: bytes) -> int:
    """RFC 1071 ones-complement 16-bit checksum.

    Read as one big-endian integer, the data is the sum of its 16-bit
    words times powers of 2**16, and 2**16 is 1 mod 0xFFFF, so the
    ones-complement word sum is that integer mod 0xFFFF.  Zero is the
    one exception: an end-around-carry sum is 0 only when every word is
    0; nonzero words summing to a multiple of 0xFFFF give 0xFFFF.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8                  # pad the odd byte with a zero
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return 0xFFFF - total


@functools.lru_cache(maxsize=1024)
def _mac_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise ProtocolError(f"bad MAC address {mac!r}")
    return bytes(int(p, 16) for p in parts)


@functools.lru_cache(maxsize=1024)
def _mac_str(data: bytes) -> str:
    return ":".join(f"{b:02x}" for b in data)


@functools.lru_cache(maxsize=1024)
def _ip_bytes(ip: str) -> bytes:
    parts = ip.split(".")
    if len(parts) != 4:
        raise ProtocolError(f"bad IPv4 address {ip!r}")
    return bytes(int(p) for p in parts)


@functools.lru_cache(maxsize=1024)
def _ip_str(data: bytes) -> str:
    return ".".join(str(b) for b in data)


# Wire layouts, compiled once.  Decoders use ``unpack_from`` so they
# read a header in place instead of slicing it out first.
_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_PSEUDO = struct.Struct("!4s4sBBH")   # TCP checksum pseudo-header


def pack_ipv4(src_ip: str, dst_ip: str, total_length: int, ident: int = 0,
              ttl: int = 64, protocol: int = IPPROTO_TCP) -> bytes:
    """Serialize an IPv4 header without options, checksum filled in."""
    src = _ip_bytes(src_ip)
    dst = _ip_bytes(dst_ip)
    version_ihl = (4 << 4) | 5        # version 4, IHL 5
    csum = checksum16(_IPV4.pack(version_ihl, 0, total_length, ident,
                                 0x4000,  # don't-fragment
                                 ttl, protocol, 0, src, dst))
    return _IPV4.pack(version_ihl, 0, total_length, ident, 0x4000, ttl,
                      protocol, csum, src, dst)


def ipv4_fields(data, offset: int = 0) -> tuple:
    """The raw ``_IPV4`` fields of the header at ``data[offset:]``.

    The one place an IPv4 header is checked: length, version and
    header checksum.  Builds no record, so a caller that only
    validates pays for none.
    """
    if len(data) - offset < IP_HLEN:
        raise ProtocolError(
            f"IPv4 header truncated: {len(data) - offset} bytes")
    fields = _IPV4.unpack_from(data, offset)
    version = fields[0] >> 4
    if version != 4:
        raise ProtocolError(f"not IPv4: version {version}")
    if checksum16(data[offset:offset + IP_HLEN]) != 0:
        raise ProtocolError("IPv4 header checksum mismatch")
    return fields


def tcp_checksum_ok(src: bytes, dst: bytes, segment) -> bool:
    """Whether a TCP header+payload segment checksums to zero over the
    pseudo-header of the raw 4-byte ``src``/``dst`` addresses."""
    pseudo = _PSEUDO.pack(src, dst, 0, IPPROTO_TCP, len(segment))
    return checksum16(pseudo + segment) == 0


class EthernetHeader(NamedTuple):
    """An Ethernet II header."""

    dst_mac: str
    src_mac: str
    ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        return _ETH.pack(_mac_bytes(self.dst_mac), _mac_bytes(self.src_mac),
                         self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < ETH_HLEN:
            raise ProtocolError(f"ethernet header truncated: {len(data)} bytes")
        # "6s" yields hashable bytes for the cached _mac_str, whatever
        # buffer type ``data`` is.
        dst, src, ethertype = _ETH.unpack_from(data)
        return cls(_mac_str(dst), _mac_str(src), ethertype)


class Ipv4Header(NamedTuple):
    """An IPv4 header without options."""

    src_ip: str
    dst_ip: str
    total_length: int
    ident: int = 0
    ttl: int = 64
    protocol: int = IPPROTO_TCP

    def pack(self) -> bytes:
        return pack_ipv4(*self)

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        fields = ipv4_fields(data)
        return cls(_ip_str(fields[8]), _ip_str(fields[9]), fields[2],
                   fields[3], fields[5], fields[6])


class TcpHeader(NamedTuple):
    """A TCP header without options."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = TCP_FLAG_ACK
    window: int = 65535

    def pack(self, src_ip: str, dst_ip: str, payload: bytes) -> bytes:
        """Pack with a valid checksum over the pseudo-header + payload."""
        src_port, dst_port, seq, ack, flags, window = self
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        offset = 5 << 4                  # data offset 5 words
        header = _TCP.pack(src_port, dst_port, seq, ack, offset, flags,
                           window, 0, 0)  # checksum, urgent pointer
        pseudo = _PSEUDO.pack(_ip_bytes(src_ip), _ip_bytes(dst_ip), 0,
                              IPPROTO_TCP, TCP_HLEN + len(payload))
        csum = checksum16(pseudo + header + payload)
        return _TCP.pack(src_port, dst_port, seq, ack, offset, flags,
                         window, csum, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        if len(data) < TCP_HLEN:
            raise ProtocolError(f"TCP header truncated: {len(data)} bytes")
        (src_port, dst_port, seq, ack, _offset, flags, window, _csum,
         _urgent) = _TCP.unpack_from(data)
        return cls(src_port, dst_port, seq, ack, flags, window)

    @staticmethod
    def verify_checksum(src_ip: str, dst_ip: str, segment: bytes) -> bool:
        """Validate the checksum of a TCP header+payload segment."""
        return tcp_checksum_ok(_ip_bytes(src_ip), _ip_bytes(dst_ip), segment)
