"""NIC descriptor wire formats.

A generic descriptor-ring protocol standing in for the Broadcom
BCM57711's proprietary firmware interface (see DESIGN.md §6): the
subset the paper's FPGA NIC controller exercises — send descriptors
with a separate header buffer, large-send offload (LSO) with an MSS,
and receive descriptors with optional header/payload split [39].
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import ProtocolError

SEND_DESC_SIZE = 32
RECV_DESC_SIZE = 32
RECV_CMPL_SIZE = 32

_SEND = struct.Struct("<HHQH2xQI4x")  # flags, mss, hdr_addr, hdr_len, payload_addr, payload_len
_RECV = struct.Struct("<QQI12x")       # hdr_addr, payload_addr, buf_len
_CMPL = struct.Struct("<HIH24x")       # hdr_len, payload_len, desc_index

FLAG_LSO = 0x0001


class SendDescriptor(NamedTuple):
    """One transmit request: a header template plus a payload buffer.

    ``hdr_addr`` points at a serialized 54-byte Ethernet/IPv4/TCP header
    template; the NIC replicates and fixes it up per segment when
    ``lso`` is set (sequence numbers, lengths, checksums).
    """

    hdr_addr: int
    hdr_len: int
    payload_addr: int
    payload_len: int
    lso: bool = False
    mss: int = 1460

    def pack(self) -> bytes:
        flags = FLAG_LSO if self.lso else 0
        return _SEND.pack(flags, self.mss, self.hdr_addr, self.hdr_len,
                          self.payload_addr, self.payload_len)

    @classmethod
    def unpack(cls, data: bytes) -> "SendDescriptor":
        if len(data) != SEND_DESC_SIZE:
            raise ProtocolError(
                f"send descriptor must be {SEND_DESC_SIZE} bytes, "
                f"got {len(data)}")
        flags, mss, hdr_addr, hdr_len, payload_addr, payload_len = (
            _SEND.unpack_from(data))
        return cls(hdr_addr, hdr_len, payload_addr, payload_len,
                   bool(flags & FLAG_LSO), mss)


class RecvDescriptor(NamedTuple):
    """One posted receive buffer.

    With ``hdr_addr != 0`` the NIC performs header-data split: the
    54-byte headers land at ``hdr_addr`` and only the payload at
    ``payload_addr`` — the feature that lets received data flow into
    contiguous engine memory without CPU repacking.
    """

    payload_addr: int
    buf_len: int
    hdr_addr: int = 0

    def pack(self) -> bytes:
        return _RECV.pack(self.hdr_addr, self.payload_addr, self.buf_len)

    @classmethod
    def unpack(cls, data: bytes) -> "RecvDescriptor":
        if len(data) != RECV_DESC_SIZE:
            raise ProtocolError(
                f"recv descriptor must be {RECV_DESC_SIZE} bytes, "
                f"got {len(data)}")
        hdr_addr, payload_addr, buf_len = _RECV.unpack_from(data)
        return cls(payload_addr, buf_len, hdr_addr)


class RecvCompletion(NamedTuple):
    """NIC-written record of one received frame.

    Every descriptor the NIC takes completes exactly once, in the order
    taken.  A frame the NIC dropped completes its descriptor with both
    lengths zero (:meth:`dropped_frame`); the owner tests
    :attr:`dropped`, recycles the buffer and delivers nothing.
    """

    hdr_len: int
    payload_len: int
    desc_index: int

    @classmethod
    def dropped_frame(cls, desc_index: int) -> "RecvCompletion":
        """The completion of a descriptor whose frame was dropped."""
        return cls(0, 0, desc_index)

    @property
    def dropped(self) -> bool:
        """True when the NIC dropped this descriptor's frame."""
        return self.hdr_len == 0 and self.payload_len == 0

    def pack(self) -> bytes:
        return _CMPL.pack(self.hdr_len, self.payload_len, self.desc_index)

    @classmethod
    def unpack(cls, data: bytes) -> "RecvCompletion":
        if len(data) != RECV_CMPL_SIZE:
            raise ProtocolError(
                f"recv completion must be {RECV_CMPL_SIZE} bytes, "
                f"got {len(data)}")
        return cls(*_CMPL.unpack_from(data))
