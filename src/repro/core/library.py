"""HDC Library: the sendfile-like user-level API (paper §IV-A).

"HDC Library provides Linux's sendfile-like APIs ... These APIs receive
file descriptors of the D2D-involved devices as arguments and require
function identifications and auxiliary data for intermediate
processing.  Each API defined in HDC Library internally invokes ioctl
to initiate HDC Driver routines."

The library also reproduces the permission model: file descriptors are
checked against an open table before any D2D command is built, so
"unpermitted storage or network devices cannot be involved".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.analysis.breakdown import current_trace
from repro.core.driver import HdcDriver
from repro.errors import ConfigurationError
from repro.host.costs import CAT
from repro.net.tcp import TcpFlow


@dataclass(frozen=True)
class _FileDesc:
    name: str
    readable: bool
    writable: bool


@dataclass(frozen=True)
class _SocketDesc:
    flow: TcpFlow


class HdcLibrary:
    """User-level entry points into DCS-ctrl."""

    def __init__(self, driver: HdcDriver):
        self.driver = driver
        self.host = driver.host
        self._fds: Dict[int, Union[_FileDesc, _SocketDesc]] = {}
        self._next_fd = 3

    # -- descriptor table --------------------------------------------------

    def open_file(self, name: str, readable: bool = True,
                  writable: bool = False) -> int:
        """Open a file; returns its descriptor."""
        if not self.host.fs.exists(name):
            raise ConfigurationError(f"no such file {name!r}")
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _FileDesc(name=name, readable=readable,
                                  writable=writable)
        return fd

    def open_socket(self, flow: TcpFlow) -> int:
        """Wrap an offloaded connection in a descriptor."""
        self.driver.flow_id(flow)  # must already be offloaded
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _SocketDesc(flow=flow)
        return fd

    def _file(self, fd: int, write: bool = False) -> _FileDesc:
        desc = self._fds.get(fd)
        if not isinstance(desc, _FileDesc):
            raise ConfigurationError(f"fd {fd} is not an open file")
        if write and not desc.writable:
            raise ConfigurationError(f"fd {fd} is not open for writing")
        if not write and not desc.readable:
            raise ConfigurationError(f"fd {fd} is not open for reading")
        return desc

    def _socket(self, fd: int) -> _SocketDesc:
        desc = self._fds.get(fd)
        if not isinstance(desc, _SocketDesc):
            raise ConfigurationError(f"fd {fd} is not an open socket")
        return desc

    # -- the sendfile-like calls ------------------------------------------------

    def _ioctl_enter(self):
        yield from self.host.kernel.syscall_enter()
        with current_trace(self.host.sim).span(CAT.KERNEL_OTHER):
            yield from self.host.cpu.run(self.host.costs.ioctl_dispatch,
                                         CAT.KERNEL_OTHER)

    def hdc_sendfile(self, out_socket_fd: int, in_file_fd: int, offset: int,
                     size: int, func: str = "none",
                     append_digest: bool = False):
        """Process: transmit a file range over a connection, optionally
        running NDP function ``func`` in flight.  Returns the
        completion (digest, result length)."""
        file_desc = self._file(in_file_fd)
        socket_desc = self._socket(out_socket_fd)
        yield from self._ioctl_enter()
        completion = yield from self.driver.sendfile(
            file_desc.name, offset, size, socket_desc.flow, func=func,
            append_digest=append_digest)
        yield from self.host.kernel.syscall_exit()
        return completion

    def hdc_recvfile(self, in_socket_fd: int, out_file_fd: int, offset: int,
                     size: int, func: str = "none"):
        """Process: receive ``size`` bytes from a connection into a file
        range, optionally running NDP function ``func`` in flight."""
        file_desc = self._file(out_file_fd, write=True)
        socket_desc = self._socket(in_socket_fd)
        yield from self._ioctl_enter()
        completion = yield from self.driver.recvfile(
            socket_desc.flow, file_desc.name, offset, size, func=func)
        yield from self.host.kernel.syscall_exit()
        return completion

    def hdc_readfile(self, in_file_fd: int, offset: int, size: int,
                     host_addr: int, func: str = "none"):
        """Process: read a file range into host memory via the engine."""
        file_desc = self._file(in_file_fd)
        yield from self._ioctl_enter()
        completion = yield from self.driver.read_to_host(
            file_desc.name, offset, size, host_addr, func=func)
        yield from self.host.kernel.syscall_exit()
        return completion

    def hdc_send(self, out_socket_fd: int, host_addr: int, size: int,
                 func: str = "none", append_digest: bool = False):
        """Process: transmit host memory over a connection via the engine."""
        socket_desc = self._socket(out_socket_fd)
        yield from self._ioctl_enter()
        completion = yield from self.driver.send_from_host(
            host_addr, size, socket_desc.flow, func=func,
            append_digest=append_digest)
        yield from self.host.kernel.syscall_exit()
        return completion

    def hdc_recv(self, in_socket_fd: int, size: int, host_addr: int,
                 func: str = "none"):
        """Process: receive from a connection into host memory via the
        engine."""
        socket_desc = self._socket(in_socket_fd)
        yield from self._ioctl_enter()
        completion = yield from self.driver.recv_to_host(
            socket_desc.flow, size, host_addr, func=func)
        yield from self.host.kernel.syscall_exit()
        return completion

    def hdc_copyfile(self, out_file_fd: int, in_file_fd: int,
                     src_offset: int, dst_offset: int, size: int,
                     func: str = "none"):
        """Process: copy a file range SSD→SSD through the engine,
        optionally transforming it in flight (e.g. ``aes256`` for
        encryption at rest, ``gzip`` for compaction)."""
        src_desc = self._file(in_file_fd)
        dst_desc = self._file(out_file_fd, write=True)
        yield from self._ioctl_enter()
        completion = yield from self.driver.copyfile(
            src_desc.name, src_offset, dst_desc.name, dst_offset, size,
            func=func)
        yield from self.host.kernel.syscall_exit()
        return completion
