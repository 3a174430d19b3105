"""NVMe command and completion wire formats, and PRP arithmetic.

Layouts follow the NVM Express 1.2 specification [40] for the fields
this reproduction exercises: 64-byte submission entries with opcode,
command identifier, namespace, PRP1/PRP2, starting LBA and block count;
16-byte completion entries with the phase-tagged status word.  Whoever
builds these bytes — the host NVMe driver or the HDC Engine's NVMe
controller — the SSD model decodes the same format, which is precisely
what lets an FPGA drive an off-the-shelf SSD.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Tuple

from repro.errors import ProtocolError
from repro.units import PAGE

SQE_SIZE = 64
CQE_SIZE = 16

OP_FLUSH = 0x00
OP_WRITE = 0x01
OP_READ = 0x02

LBA_SIZE = 4096  # the 4 KiB-formatted namespace the paper uses

_SQE = struct.Struct("<BBH I 16x Q Q Q H 14x")  # opcode, fuse, cid, nsid, prp1, prp2, slba, nlb
_CQE = struct.Struct("<I 4x H H H H")           # result, sq_head, sq_id, cid, status|phase


class NvmeCommand(NamedTuple):
    """A decoded submission-queue entry."""

    opcode: int
    cid: int
    nsid: int
    prp1: int
    prp2: int
    slba: int
    nlb: int  # zero-based: 0 means one block

    @property
    def byte_length(self) -> int:
        """Transfer length implied by the block count."""
        return (self.nlb + 1) * LBA_SIZE

    def pack(self) -> bytes:
        """Serialize to the 64-byte SQE format."""
        if not 0 <= self.nlb <= 0xFFFF:
            raise ProtocolError(f"nlb out of range: {self.nlb}")
        return _SQE.pack(self.opcode, 0, self.cid, self.nsid, self.prp1,
                         self.prp2, self.slba, self.nlb)

    @classmethod
    def unpack(cls, data: bytes) -> "NvmeCommand":
        if len(data) != SQE_SIZE:
            raise ProtocolError(f"SQE must be {SQE_SIZE} bytes, got {len(data)}")
        opcode, _fuse, cid, nsid, prp1, prp2, slba, nlb = _SQE.unpack_from(
            data)
        return cls(opcode, cid, nsid, prp1, prp2, slba, nlb)


class Completion(NamedTuple):
    """A decoded completion-queue entry."""

    cid: int
    sq_head: int
    status: int
    phase: int
    result: int = 0
    sq_id: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 0

    def pack(self) -> bytes:
        """Serialize to the 16-byte CQE format (phase in status bit 0)."""
        status_field = (self.status << 1) | (self.phase & 1)
        return _CQE.pack(self.result, self.sq_head, self.sq_id, self.cid,
                         status_field)

    @classmethod
    def unpack(cls, data: bytes) -> "Completion":
        if len(data) != CQE_SIZE:
            raise ProtocolError(f"CQE must be {CQE_SIZE} bytes, got {len(data)}")
        result, sq_head, sq_id, cid, status_field = _CQE.unpack_from(data)
        return cls(cid, sq_head, status_field >> 1, status_field & 1, result,
                   sq_id)


def prp_pages(buffer_addr: int, length: int,
              page_size: int = PAGE) -> List[int]:
    """The page-aligned PRP entries covering [buffer_addr, +length).

    The first entry may carry an in-page offset (NVMe allows it); all
    subsequent entries must be page-aligned, which holds by construction.
    """
    if length <= 0:
        raise ProtocolError(f"transfer length must be positive: {length}")
    pages = [buffer_addr]
    first_page_bytes = page_size - (buffer_addr % page_size)
    covered = min(first_page_bytes, length)
    next_page = buffer_addr + first_page_bytes
    while covered < length:
        pages.append(next_page)
        covered += min(page_size, length - covered)
        next_page += page_size
    return pages


def prp_fields(pages: List[int],
               page_size: int = PAGE) -> Tuple[int, int, bytes]:
    """Derive (prp1, prp2, prp_list_bytes) for a page list.

    * one page  → prp2 = 0, no list;
    * two pages → prp2 = second page, no list;
    * more      → prp2 points at a PRP list; the caller must write the
      returned list bytes at a page it allocates and patch prp2 to that
      address (we return ``prp2 = 0`` as the placeholder in that case).
    """
    if not pages:
        raise ProtocolError("empty PRP page list")
    if len(pages) == 1:
        return pages[0], 0, b""
    if len(pages) == 2:
        return pages[0], pages[1], b""
    list_bytes = b"".join(struct.pack("<Q", p) for p in pages[1:])
    if len(list_bytes) > page_size:
        raise ProtocolError(
            f"PRP list of {len(pages) - 1} entries exceeds one page")
    return pages[0], 0, list_bytes


def unpack_prp_list(data: bytes) -> List[int]:
    """Decode a PRP list page into entry addresses (zero-terminated)."""
    if len(data) % 8:
        raise ProtocolError(f"PRP list length {len(data)} not multiple of 8")
    entries = []
    for (addr,) in struct.iter_unpack("<Q", data):
        if addr == 0:
            break
        entries.append(addr)
    return entries
