"""D2D command and scoreboard-entry structures.

A *D2D command* is what HDC Driver writes into the engine's command
queue: one multi-device task ("read these blocks, run MD5, send on this
connection").  The scoreboard splits it into *device commands* — one
per device operation — whose fields mirror the paper's Figure 6 entry
layout: ``dev``, ``r/w``, ``src``, ``dst``, ``aux``, ``state``.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from repro.errors import ProtocolError

D2D_COMMAND_SIZE = 64
COMPLETION_SIZE = 64


class D2DKind(enum.IntEnum):
    """The multi-device task shapes the prototype supports."""

    SSD_TO_NIC = 1        # read blocks, (optionally NDP), transmit
    NIC_TO_SSD = 2        # receive stream, (optionally NDP), write blocks
    SSD_TO_HOST = 3       # read blocks, (optionally NDP), DMA to host DRAM
    HOST_TO_NIC = 4       # DMA from host DRAM, (optionally NDP), transmit
    NIC_TO_HOST = 5       # receive stream, (optionally NDP), DMA to host
    SSD_TO_SSD = 6        # read blocks, (optionally NDP), write blocks —
                          # local D2D copy/transform, no host involvement


class EntryState(enum.IntEnum):
    """Scoreboard entry lifecycle (paper Fig 6)."""

    WAIT = 0      # dependencies incomplete or controller busy
    READY = 1     # eligible for issue
    ISSUE = 2     # running on a device controller / NDP unit
    DONE = 3
    CANCELLED = 4  # never issued: a sibling entry failed first


class D2DStatus(enum.IntEnum):
    """Named D2D completion status codes.

    Values are wire-compatible with the historical literals (2 =
    device error, 3 = bad command); anything the driver does not
    recognise renders through :meth:`describe`.
    """

    OK = 0
    DEVICE_ERROR = 2   # a device stage failed (media error, bad state)
    BAD_COMMAND = 3    # the command never made a valid plan
    TIMEOUT = 4        # a stage's deadline expired (lost completion)
    ABORTED = 5        # explicitly cancelled before it could finish

    @classmethod
    def describe(cls, status: int) -> str:
        try:
            return f"{cls(status).name}({status})"
        except ValueError:
            return f"status {status}"


_CMD = struct.Struct("<IBBBBQQIQ")  # id, kind, func, flags, rsvd, src, dst, length, aux
_CMD_PAD = D2D_COMMAND_SIZE - _CMD.size

FLAG_APPEND_DIGEST = 0x01  # transmit the NDP digest after the payload


class D2DCommand(NamedTuple):
    """One user-requested multi-device task.

    ``src``/``dst`` are kind-dependent: an SLBA for SSD endpoints, a
    flow id for NIC endpoints, a physical address for host endpoints.
    ``aux`` carries function-specific auxiliary data (paper §III-B),
    e.g. the digest return slot or an AES nonce handle.
    """

    d2d_id: int
    kind: D2DKind
    src: int
    dst: int
    length: int
    func: int = 0          # NDP function id; 0 = none
    flags: int = 0
    aux: int = 0

    def pack(self) -> bytes:
        if self.length <= 0:
            raise ProtocolError(f"D2D length must be positive: {self.length}")
        return _CMD.pack(self.d2d_id, int(self.kind), self.func, self.flags,
                         0, self.src, self.dst, self.length,
                         self.aux) + bytes(_CMD_PAD)

    @classmethod
    def unpack(cls, data: bytes) -> "D2DCommand":
        if len(data) != D2D_COMMAND_SIZE:
            raise ProtocolError(
                f"D2D command must be {D2D_COMMAND_SIZE} bytes, "
                f"got {len(data)}")
        d2d_id, kind, func, flags, _rsvd, src, dst, length, aux = (
            _CMD.unpack_from(data))
        return cls(d2d_id, D2DKind(kind), src, dst, length, func, flags, aux)


_CPL = struct.Struct("<IHH32sQ16x")  # id, status, digest_len, digest, result_length


class D2DCompletion(NamedTuple):
    """The record the engine DMA-writes to the host completion ring."""

    d2d_id: int
    status: int
    digest: bytes = b""
    result_length: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 0

    def pack(self) -> bytes:
        if len(self.digest) > 32:
            raise ProtocolError("completion digest field holds 32 bytes max")
        return _CPL.pack(self.d2d_id, self.status, len(self.digest),
                         self.digest.ljust(32, b"\x00"), self.result_length)

    @classmethod
    def unpack(cls, data: bytes) -> "D2DCompletion":
        if len(data) != COMPLETION_SIZE:
            raise ProtocolError(
                f"completion must be {COMPLETION_SIZE} bytes, got {len(data)}")
        d2d_id, status, digest_len, digest, result_length = (
            _CPL.unpack_from(data))
        return cls(d2d_id, status, digest[:digest_len], result_length)


@dataclass
class DeviceCommand:
    """One scoreboard entry: a single device (or NDP) operation.

    Field names follow the paper's Figure 6.  ``dev`` names the target
    controller ("nvme", "nic", "ndp", "dma"); ``rw`` is the direction
    from the device's perspective; ``src``/``dst`` are addresses or
    flow ids; ``aux`` carries operation extras (function id, append
    flag).  ``depends_on`` is the intra-task dependency the scheduler
    honours (e.g. the NIC send waits for the NVMe read).
    """

    dev: str
    rw: str
    src: int
    dst: int
    length: int
    aux: int = 0
    state: EntryState = EntryState.WAIT
    depends_on: Optional["DeviceCommand"] = None
    d2d_id: int = 0
    result: Optional[object] = field(default=None, repr=False)
    # Hardware fix-up run the cycle the entry completes, before any
    # dependent issues (e.g. patch a send length after GZIP).  The
    # scoreboard clears it as the entry completes or is cancelled, so
    # a fix-up that refers back to its entry leaves no reference cycle.
    after: Optional[Callable[[], None]] = field(default=None, repr=False)
    # Execution window, recorded by the scoreboard (profiling).
    issued_at: int = -1
    done_at: int = -1

    def deps_done(self) -> bool:
        return self.depends_on is None or self.depends_on.state == EntryState.DONE
