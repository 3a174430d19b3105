"""Data-processing algorithms: the simulation's digest table and the
from-scratch reference implementations.

The simulation computes every integrity digest (MD5, SHA-1, SHA-256,
CRC32) through :data:`DIGESTS`, a table of the ``hashlib`` / ``zlib``
functions (:mod:`repro.algos.native`), so the GPU's offload kernels,
the HDC Engine's NDP units (paper Table III) and the host CPU agree
bit-for-bit.  The from-scratch implementations here are the reference
and test oracle: the suite pins every table entry against them, and
them against the standard library.  AES-256 encryption and the
GZIP-style LZ77 compressor have no standard-library equivalent, so the
simulation runs the from-scratch code for those; the LZ77 container is
our own (DESIGN.md §6) and round-trips through :func:`lz77_decompress`.
"""

from repro.algos.md5 import md5_digest, md5_hexdigest
from repro.algos.sha1 import sha1_digest, sha1_hexdigest
from repro.algos.sha256 import sha256_digest, sha256_hexdigest
from repro.algos.crc32 import crc32, crc32_digest
from repro.algos.aes import aes256_ctr, expand_key_256
from repro.algos.lz77 import lz77_compress, lz77_decompress
from repro.algos.native import DIGESTS

__all__ = [
    "DIGESTS",
    "aes256_ctr",
    "crc32",
    "crc32_digest",
    "expand_key_256",
    "lz77_compress",
    "lz77_decompress",
    "md5_digest",
    "md5_hexdigest",
    "sha1_digest",
    "sha1_hexdigest",
    "sha256_digest",
    "sha256_hexdigest",
]
