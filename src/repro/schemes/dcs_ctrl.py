"""DCS-ctrl — the paper's design: HDC Library → Driver → Engine."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.schemes.base import Scheme, TransferResult
from repro.schemes.testbed import Connection, Node


class DcsCtrlScheme(Scheme):
    """Hardware-based device control with NDP intermediate processing."""

    name = "dcs-ctrl"
    supported_processing = ("md5", "crc32", "sha1", "sha256", "aes256",
                            "gzip")

    def __init__(self, testbed):
        super().__init__(testbed)
        # fd caches per (node, resource) so repeated requests reuse
        # descriptors the way a real server process would.
        self._file_fds: Dict[Tuple[int, str, bool], int] = {}
        self._socket_fds: Dict[Tuple[int, int], int] = {}

    def uses_offloaded_connections(self) -> bool:
        return True

    # -- descriptor management ------------------------------------------------

    def _node_index(self, node: Node) -> int:
        return 0 if node is self.tb.node0 else 1

    def _file_fd(self, node: Node, name: str, writable: bool) -> int:
        key = (self._node_index(node), name, writable)
        fd = self._file_fds.get(key)
        if fd is None:
            fd = node.library.open_file(name, readable=True,
                                        writable=writable)
            self._file_fds[key] = fd
        return fd

    def _socket_fd(self, node: Node, conn: Connection) -> int:
        flow = conn.flow0 if node is self.tb.node0 else conn.flow1
        key = (self._node_index(node), flow.uid)
        fd = self._socket_fds.get(key)
        if fd is None:
            fd = node.library.open_socket(flow)
            self._socket_fds[key] = fd
        return fd

    # -- the two data paths ----------------------------------------------------

    def send_file(self, node: Node, conn: Connection, name: str,
                  offset: int, size: int, processing: Optional[str] = None):
        self._check_processing(processing)
        with self._trace("send", size=size,
                         processing=processing or "none") as trace:
            file_fd = self._file_fd(node, name, writable=False)
            sock_fd = self._socket_fd(node, conn)
            completion = yield from node.library.hdc_sendfile(
                sock_fd, file_fd, offset, size, func=processing or "none")
            trace.finish()
        return TransferResult(bytes_moved=completion.result_length,
                              digest=completion.digest, trace=trace)

    def client_send(self, node: Node, conn: Connection, size: int):
        """Client pushes from host memory through its engine."""
        sock_fd = self._socket_fd(node, conn)
        buf = node.host.alloc_buffer(size)
        try:
            yield from node.library.hdc_send(sock_fd, buf, size)
        finally:
            node.host.free_buffer(buf, size)
        return size

    def client_recv(self, node: Node, conn: Connection, size: int):
        """Client drains into host memory through its engine."""
        sock_fd = self._socket_fd(node, conn)
        buf = node.host.alloc_buffer(size)
        try:
            yield from node.library.hdc_recv(sock_fd, size, buf)
        finally:
            node.host.free_buffer(buf, size)
        return size

    def receive_to_file(self, node: Node, conn: Connection, name: str,
                        offset: int, size: int,
                        processing: Optional[str] = None):
        self._check_processing(processing)
        with self._trace("recv", size=size,
                         processing=processing or "none") as trace:
            file_fd = self._file_fd(node, name, writable=True)
            sock_fd = self._socket_fd(node, conn)
            completion = yield from node.library.hdc_recvfile(
                sock_fd, file_fd, offset, size, func=processing or "none")
            trace.finish()
        return TransferResult(bytes_moved=size, digest=completion.digest,
                              trace=trace)
