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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class EthernetHeader:
    """An Ethernet II header."""

    dst_mac: str
    src_mac: str
    ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        return (_mac_bytes(self.dst_mac) + _mac_bytes(self.src_mac)
                + struct.pack("!H", self.ethertype))

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < ETH_HLEN:
            raise ProtocolError(f"ethernet header truncated: {len(data)} bytes")
        # "6s" yields hashable bytes for the cached _mac_str, whatever
        # buffer type ``data`` is.
        dst, src, ethertype = struct.unpack("!6s6sH", data[:ETH_HLEN])
        return cls(dst_mac=_mac_str(dst), src_mac=_mac_str(src),
                   ethertype=ethertype)


@dataclass(frozen=True)
class Ipv4Header:
    """An IPv4 header without options."""

    src_ip: str
    dst_ip: str
    total_length: int
    ident: int = 0
    ttl: int = 64
    protocol: int = IPPROTO_TCP

    def pack(self) -> bytes:
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,            # version 4, IHL 5
            0,                       # DSCP/ECN
            self.total_length,
            self.ident,
            0x4000,                  # don't-fragment
            self.ttl,
            self.protocol,
            0,                       # checksum placeholder
            _ip_bytes(self.src_ip),
            _ip_bytes(self.dst_ip))
        csum = checksum16(header)
        return header[:10] + struct.pack("!H", csum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        if len(data) < IP_HLEN:
            raise ProtocolError(f"IPv4 header truncated: {len(data)} bytes")
        fields = struct.unpack("!BBHHHBBH4s4s", data[:IP_HLEN])
        version_ihl = fields[0]
        if version_ihl >> 4 != 4:
            raise ProtocolError(f"not IPv4: version {version_ihl >> 4}")
        if checksum16(data[:IP_HLEN]) != 0:
            raise ProtocolError("IPv4 header checksum mismatch")
        return cls(src_ip=_ip_str(fields[8]), dst_ip=_ip_str(fields[9]),
                   total_length=fields[2], ident=fields[3], ttl=fields[5],
                   protocol=fields[6])


@dataclass(frozen=True)
class TcpHeader:
    """A TCP header without options."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: int = TCP_FLAG_ACK
    window: int = 65535

    def pack(self, src_ip: str, dst_ip: str, payload: bytes) -> bytes:
        """Pack with a valid checksum over the pseudo-header + payload."""
        header = struct.pack(
            "!HHIIBBHHH",
            self.src_port, self.dst_port,
            self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
            5 << 4,                  # data offset 5 words
            self.flags, self.window,
            0,                       # checksum placeholder
            0)                       # urgent pointer
        pseudo = (_ip_bytes(src_ip) + _ip_bytes(dst_ip)
                  + struct.pack("!BBH", 0, IPPROTO_TCP,
                                TCP_HLEN + len(payload)))
        csum = checksum16(pseudo + header + payload)
        return header[:16] + struct.pack("!H", csum) + header[18:]

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        if len(data) < TCP_HLEN:
            raise ProtocolError(f"TCP header truncated: {len(data)} bytes")
        fields = struct.unpack("!HHIIBBHHH", data[:TCP_HLEN])
        return cls(src_port=fields[0], dst_port=fields[1], seq=fields[2],
                   ack=fields[3], flags=fields[5], window=fields[6])

    @staticmethod
    def verify_checksum(src_ip: str, dst_ip: str, segment: bytes) -> bool:
        """Validate the checksum of a TCP header+payload segment."""
        pseudo = (_ip_bytes(src_ip) + _ip_bytes(dst_ip)
                  + struct.pack("!BBH", 0, IPPROTO_TCP, len(segment)))
        return checksum16(pseudo + segment) == 0
