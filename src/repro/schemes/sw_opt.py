"""Baseline 1 — *Software optimization* (paper §V-A).

"The baseline system which uses the optimized software to minimize
latency and CPU utilization, but all data transfer go through CPU
memory."  Concretely: direct I/O (no page cache), kernel-resident
zero-copy buffers (no user/kernel data copies), LSO on the NIC — the
optimizations of [9], [16], [17], [19], [21], [26] — with the GPU as
the checksum accelerator, reached through classic driver-managed
copies.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.errors import ConfigurationError
from repro.host.machine import Host
from repro.schemes.base import Scheme, TransferResult
from repro.schemes.testbed import Connection, Node

# GPU staging layout: the digest slot at the region base, the data one
# page in.
GPU_DATA_OFFSET = 4096


class SwOptScheme(Scheme):
    """Host-centric, software-optimized (data staged in host DRAM)."""

    name = "sw-opt"

    def send_file(self, node: Node, conn: Connection, name: str,
                  offset: int, size: int, processing: Optional[str] = None):
        self._check_processing(processing)
        with self._trace("send", size=size,
                         processing=processing or "none") as trace:
            kernel = node.host.kernel
            buf = node.host.alloc_buffer(size)
            try:
                # read(2): one user/kernel round trip.
                yield from kernel.syscall_enter()
                yield from kernel.file_read_direct(name, offset, size, buf)
                yield from kernel.syscall_exit()
                digest = b""
                if processing is not None:
                    digest = yield from self._gpu_checksum_host_data(
                        node, buf, size, processing)
                # send(2): a second round trip.
                yield from kernel.syscall_enter()
                yield from kernel.socket_send(
                    conn.flow0 if node is self.tb.node0 else conn.flow1,
                    buf, size)
                yield from kernel.syscall_exit()
            finally:
                node.host.free_buffer(buf, size)
            trace.finish()
        return TransferResult(bytes_moved=size, digest=digest, trace=trace)

    def receive_to_file(self, node: Node, conn: Connection, name: str,
                        offset: int, size: int,
                        processing: Optional[str] = None):
        self._check_processing(processing)
        with self._trace("recv", size=size,
                         processing=processing or "none") as trace:
            kernel = node.host.kernel
            buf = node.host.alloc_buffer(size)
            try:
                # recv(2).
                yield from kernel.syscall_enter()
                flow = conn.flow1 if node is self.tb.node1 else conn.flow0
                yield from kernel.socket_recv(flow, size, buf)
                yield from kernel.syscall_exit()
                digest = b""
                if processing is not None:
                    digest = yield from self._gpu_checksum_host_data(
                        node, buf, size, processing)
                # write(2).
                yield from kernel.syscall_enter()
                yield from kernel.file_write_direct(name, offset, size, buf)
                yield from kernel.syscall_exit()
            finally:
                node.host.free_buffer(buf, size)
            trace.finish()
        return TransferResult(bytes_moved=size, digest=digest, trace=trace)

    # -- the classic GPU offload path -------------------------------------------

    def _gpu_checksum_host_data(self, node: Node, buf: int, size: int,
                                kind: str):
        """Process: H2D copy, kernel, D2H digest fetch (paper Fig 3/11)."""
        gpu_driver = node.host.gpu_driver
        if gpu_driver is None:
            raise ConfigurationError("node built without a GPU")
        with self._gpu_staging(node.host, size) as region:
            yield from gpu_driver.copy_to_gpu(buf, region + GPU_DATA_OFFSET,
                                              size)
            return (yield from self._gpu_digest(node.host, kind, region,
                                                size))

    @staticmethod
    @contextmanager
    def _gpu_staging(host: Host, size: int):
        """A per-request GPU memory region for ``size`` bytes of data
        (``GPU_DATA_OFFSET`` in) and the digest (at its base)."""
        region = host.gpu_mem.alloc_bytes(GPU_DATA_OFFSET + size)
        try:
            yield region
        finally:
            host.gpu_mem.free_bytes(region, GPU_DATA_OFFSET + size)

    @staticmethod
    def _gpu_digest(host: Host, kind: str, region: int, size: int):
        """Process: checksum the data staged in ``region`` on the GPU,
        then fetch the digest into CPU memory (paper §V-B)."""
        digest = yield from host.gpu_driver.checksum(
            kind, region + GPU_DATA_OFFSET, size, region)
        digest_buf = host.alloc_buffer(len(digest))
        try:
            yield from host.gpu_driver.copy_from_gpu(region, digest_buf,
                                                     len(digest))
        finally:
            host.free_buffer(digest_buf, len(digest))
        return digest
