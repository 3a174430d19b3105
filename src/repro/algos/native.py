"""The digest table the simulation computes with.

Every simulated integrity check — a GPU checksum kernel, an NDP hash
unit, a host CPU checksum — looks its function up here.  The entries
are the C implementations in the standard library (``hashlib`` and
``zlib``); the from-scratch functions in this package are their
reference, and the test suite pins each entry against its
from-scratch twin byte for byte.  CRC-32 keeps the 4-byte big-endian
packing of :func:`repro.algos.crc32_digest`.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Callable, Dict


def _md5(data: bytes) -> bytes:
    return hashlib.md5(data).digest()


def _sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _crc32(data: bytes) -> bytes:
    return struct.pack(">I", zlib.crc32(data))


DIGESTS: Dict[str, Callable[[bytes], bytes]] = {
    "md5": _md5,
    "sha1": _sha1,
    "sha256": _sha256,
    "crc32": _crc32,
}
