"""The scheme interface: what every evaluated design must implement.

Both microbenchmarks and the Swift/HDFS application models drive
schemes through two operations, matching the paper's two pipelines:

* :meth:`Scheme.send_file` — the SSD→(processing)→NIC path (Fig 11,
  Swift GET, HDFS balancer sender);
* :meth:`Scheme.receive_to_file` — the NIC→(processing)→SSD path
  (Swift PUT, HDFS balancer receiver).

Each returns a :class:`TransferResult` carrying the checksum computed
in flight (empty when no processing was requested), so tests can check
functional equivalence across schemes against ``hashlib``, and the
operation's :class:`~repro.analysis.breakdown.LatencyTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ContextManager, Optional

from repro.analysis.breakdown import LatencyTrace, traced_op
from repro.errors import ConfigurationError
from repro.schemes.testbed import Connection, Node, Testbed


@dataclass
class TransferResult:
    """Outcome of one scheme operation."""

    bytes_moved: int
    trace: LatencyTrace
    digest: bytes = b""

    @property
    def latency_us(self) -> float:
        return self.trace.total_us


class Scheme:
    """Base class; subclasses implement the two data paths as processes."""

    name = "abstract"
    # The scheme whose data paths this one runs for sends without
    # processing and for receives (None: its own); experiments share runs.
    unprocessed_path: Optional[str] = None
    # Which checksums this scheme can compute in flight.
    supported_processing = ("md5", "crc32", "sha1", "sha256")

    def __init__(self, testbed: Testbed):
        self.tb = testbed
        self.sim = testbed.sim

    # -- interface -----------------------------------------------------------

    def uses_offloaded_connections(self) -> bool:
        """True if connections must be engine-terminated."""
        return False

    def connect(self) -> Connection:
        """A connection of the flavour this scheme needs."""
        if self.uses_offloaded_connections():
            return self.tb.connect_offloaded()
        return self.tb.connect_kernel()

    def send_file(self, node: Node, conn: Connection, name: str,
                  offset: int, size: int, processing: Optional[str] = None
                  ):  # pragma: no cover - abstract
        """Process: read [offset, offset+size) of ``name`` from the
        node's SSD, optionally checksum it, transmit it on ``conn``."""
        raise NotImplementedError

    def receive_to_file(self, node: Node, conn: Connection, name: str,
                        offset: int, size: int,
                        processing: Optional[str] = None
                        ):  # pragma: no cover - abstract
        """Process: receive ``size`` bytes from ``conn``, optionally
        checksum them, store them into ``name`` on the node's SSD."""
        raise NotImplementedError

    def client_send(self, node: Node, conn: Connection, size: int):
        """Process: push ``size`` bytes of client payload onto ``conn``
        (the remote peer of a server PUT).  Default: the kernel path."""
        buf = node.host.alloc_buffer(size)
        try:
            flow = conn.flow0 if node is self.tb.node0 else conn.flow1
            yield from node.host.kernel.socket_send(flow, buf, size)
        finally:
            node.host.free_buffer(buf, size)
        return size

    def client_recv(self, node: Node, conn: Connection, size: int):
        """Process: drain ``size`` bytes from ``conn`` on the client
        side (the remote peer of a server GET).  Default: kernel path."""
        buf = node.host.alloc_buffer(size)
        try:
            flow = conn.flow0 if node is self.tb.node0 else conn.flow1
            yield from node.host.kernel.socket_recv(flow, size, buf)
        finally:
            node.host.free_buffer(buf, size)
        return size

    # -- helpers --------------------------------------------------------------

    def _check_processing(self, processing: Optional[str]) -> None:
        if processing is not None and processing not in self.supported_processing:
            raise ConfigurationError(
                f"{self.name} cannot compute {processing!r} in flight")

    def _trace(self, op: str, **args) -> ContextManager[LatencyTrace]:
        """The operation's own trace, rooted in the event trace as
        ``<scheme>:<op>`` and carried by the running process."""
        return traced_op(self.sim, f"{self.name}:{op}", scheme=self.name,
                         **args)
