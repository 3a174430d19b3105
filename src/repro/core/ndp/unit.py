"""NDP execution units: functional compute + Table III timing.

An :class:`NdpUnit` streams a DDR3-resident buffer through one
algorithm core; an :class:`NdpBank` holds the provisioned instances of
each function (enough for 10 Gbps aggregate, per the paper's
provisioning rule) and arbitrates concurrent streams.

Digests come from the shared :data:`repro.algos.DIGESTS` table, so an
NDP MD5 equals a GPU MD5 equals a host CPU MD5.  Transforming functions
(AES-256-CTR, GZIP) run the from-scratch :mod:`repro.algos` code,
rewrite the buffer in place and report the output length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.algos import DIGESTS, aes256_ctr, lz77_compress
from repro.core.ndp.registry import (FUNC_AES256, FUNC_CRC32, FUNC_GZIP,
                                     FUNC_MD5, FUNC_SHA1, FUNC_SHA256,
                                     func_name)
from repro.core.ndp.resources import NDP_CORES, NdpCoreSpec
from repro.errors import ConfigurationError, DeviceError
from repro.memory.dram import FPGA_DDR3
from repro.pcie.switch import Fabric
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes
from repro.units import nsec

# Engine-internal fixed key/nonce for the AES unit; real deployments
# program per-connection keys through the driver (out of scope of the
# paper's measurements).
_AES_KEY = bytes(range(32))
_AES_NONCE = b"\x00" * 8

# Pipeline ramp of one NDP operation (buffer descriptor load, FSM).
_NDP_SETUP = nsec(300)


@dataclass(frozen=True)
class NdpResult:
    """Outcome of one NDP operation."""

    digest: bytes          # integrity functions: the checksum
    output_length: int     # transforming functions: bytes now in buffer


class NdpUnit:
    """The provisioned instances of one NDP function.

    Non-streaming cores (the hashes) are provisioned as a *bank* of
    instances reaching 10 Gbps aggregate (paper Table III, footnote 2);
    storage-integrity hashing is chunked (HDFS checksums every 512
    bytes; Swift ETags are segment-wise), so one request's data spreads
    across the bank and is processed at the aggregate rate.  The bank
    behaves as a single FIFO pipeline: concurrent requests queue, and
    total throughput never exceeds the provisioned aggregate.
    Streaming cores (AES, CRC, GZIP) run one stream at their full
    per-unit rate.
    """

    def __init__(self, sim: Simulator, spec: NdpCoreSpec,
                 target_gbps: float = 10.0):
        self.sim = sim
        self.spec = spec
        # Provision instances for the target line rate (the paper sizes
        # its banks for the 10 Gbps testbed; a 40 Gbps engine simply
        # instantiates more of the same tiny cores — Table III).
        self.instances = max(1, round(target_gbps
                                      / spec.per_unit_rate.gbps()))
        effective = (spec.per_unit_rate.bytes_per_sec * self.instances)
        self._rate_bps = effective
        self._pipeline = Lanes(sim)
        self.operations = 0
        self.bytes_processed = 0

    def duration(self, size: int) -> int:
        """Time for one request of ``size`` bytes through the bank."""
        from repro.units import SEC
        return _NDP_SETUP + round(size * SEC / self._rate_bps)

    def process(self, fabric: Fabric, buf_addr: int, size: int):
        """Process: run the function over engine memory at ``buf_addr``.

        Returns an :class:`NdpResult`.  Holds one core instance for the
        streaming duration plus DDR3 access time; concurrent streams
        beyond the instance count queue.
        """
        if size <= 0:
            raise DeviceError(f"NDP input size must be positive: {size}")
        yield from self._pipeline.acquire()
        try:
            yield self.sim.timeout(self.duration(size)
                                   + FPGA_DDR3.duration(size))
            data = fabric.address_map.read(buf_addr, size)
            digest, output = self._compute(data)
            if output is not None:
                fabric.address_map.write(buf_addr, output)
                out_len = len(output)
            else:
                out_len = size
        finally:
            self._pipeline.release()
        self.operations += 1
        self.bytes_processed += size
        return NdpResult(digest=digest, output_length=out_len)

    def _compute(self, data: bytes) -> Tuple[bytes, Optional[bytes]]:
        name = self.spec.name
        digest = DIGESTS.get(name)
        if digest is not None:
            return digest(data), None
        if name == "aes256":
            return b"", aes256_ctr(data, _AES_KEY, _AES_NONCE)
        if name == "gzip":
            return b"", lz77_compress(data)
        raise ConfigurationError(f"no compute rule for NDP core {name!r}")


class NdpBank:
    """All NDP units configured into one engine."""

    _FUNC_TO_CORE = {
        FUNC_MD5: "md5",
        FUNC_SHA1: "sha1",
        FUNC_SHA256: "sha256",
        FUNC_AES256: "aes256",
        FUNC_CRC32: "crc32",
        FUNC_GZIP: "gzip",
    }

    def __init__(self, sim: Simulator, functions: Optional[list[str]] = None,
                 target_gbps: float = 10.0):
        if functions is None:
            functions = list(NDP_CORES)
        self._units: Dict[str, NdpUnit] = {
            name: NdpUnit(sim, NDP_CORES[name], target_gbps=target_gbps)
            for name in functions}

    def unit_for(self, fid: int) -> NdpUnit:
        """The unit implementing function id ``fid``."""
        core = self._FUNC_TO_CORE.get(fid)
        if core is None:
            raise ConfigurationError(f"no NDP core for function id {fid}")
        unit = self._units.get(core)
        if unit is None:
            raise ConfigurationError(
                f"NDP core {core!r} not configured into this engine "
                f"(have {sorted(self._units)})")
        return unit

    def process(self, fabric: Fabric, fid: int, buf_addr: int, size: int):
        """Process: dispatch function ``fid`` over the buffer."""
        return self.unit_for(fid).process(fabric, buf_addr, size)

    def configured(self) -> list[str]:
        return sorted(self._units)

    def describe(self, fid: int) -> str:
        return func_name(fid)
