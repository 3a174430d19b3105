"""Baseline 2 — *Software-controlled P2P* (paper §V-A).

"Software-controlled P2P uses optimized software and leverages direct
inter-device communication.  However, its control path is not
optimized and a CPU still controls all device operations."

What P2P buys, per the paper's own constraints:

* SSD→GPU direct (SPIN/Donard-style): the SSD DMAs straight into the
  GPU's exposed memory window — no host staging, no H2D driver copy;
* GPU→NIC direct (GPUDirect-RDMA-style): the NIC's TX engine fetches
  the payload from GPU memory;
* SSD↔NIC direct: **impossible** — "Both devices do not allow other
  devices to access their internal memory" (§V-A), so without
  processing this scheme degenerates to the SW-opt data path;
* NIC→GPU direct on receive: defeated by the data-gathering problem
  (split packets must be coalesced by the CPU first, §V-C2), so the
  receive side also stages in host memory.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.schemes.sw_opt import GPU_DATA_OFFSET, SwOptScheme
from repro.schemes.testbed import Connection, Node
from repro.schemes.base import TransferResult


class SwP2pScheme(SwOptScheme):
    """Optimized software + peer-to-peer data paths where possible."""

    name = "sw-p2p"
    # send_file(None) delegates; receive_to_file is inherited.
    unprocessed_path = "sw-opt"

    def send_file(self, node: Node, conn: Connection, name: str,
                  offset: int, size: int, processing: Optional[str] = None):
        if processing is None:
            # SSD<->NIC P2P impossible: identical to the SW-opt path.
            return (yield from super().send_file(node, conn, name, offset,
                                                 size, None))
        self._check_processing(processing)
        with self._trace("send", size=size, processing=processing) as trace:
            host = node.host
            kernel = host.kernel
            gpu = host.gpu
            if gpu is None or host.gpu_driver is None:
                raise ConfigurationError("node built without a GPU")
            with self._gpu_staging(host, size) as region:
                data = gpu.mem_addr(region + GPU_DATA_OFFSET)
                yield from kernel.syscall_enter()
                # P2P: the SSD DMAs the file straight into GPU memory.
                yield from kernel.file_read_direct(name, offset, size, data)
                digest = yield from self._gpu_digest(host, processing,
                                                     region, size)
                # P2P: the NIC fetches the payload from GPU memory directly.
                flow = conn.flow0 if node is self.tb.node0 else conn.flow1
                yield from kernel.socket_send(flow, data, size)
                yield from kernel.syscall_exit()
            trace.finish()
        return TransferResult(bytes_moved=size, digest=digest, trace=trace)

    # receive_to_file: inherited from SwOptScheme verbatim — the
    # data-gathering problem forces the host-staged path (paper §V-C2:
    # "software-controlled P2P cannot remove the GPU control overheads
    # due to the unavoidable data gathering process").
