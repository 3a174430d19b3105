"""A lightweight established-TCP-connection abstraction.

The paper's experiments all run over pre-established TCP connections
(Swift REST transfers, HDFS balancer streams); connection setup is in
neither the latency nor the CPU breakdowns.  :class:`TcpFlow` therefore
models an *established* connection: per-direction sequence tracking and
in-order delivery.  :class:`FlowTable` is the receive side — enough for
the engine's NIC controller to "identify a target connection and
destination location" (paper §III-C) from decoded headers, and for
receivers to discard every frame after a loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.errors import ProtocolError
from repro.net.headers import (EthernetHeader, Ipv4Header, TcpHeader,
                               _ip_bytes, _ip_str)
from repro.net.packet import RX_FIELDS, RX_FIELDS_OFFSET, FlowKey, flow_key

# Monotonic flow identifiers, assigned at construction.  Keying
# per-flow state on ``flow.uid`` instead of ``id(flow)`` keeps every
# flow-indexed dict insertion-ordered by *creation order*, so iteration
# and sorting over those keys are identical across runs (``id()`` is a
# memory address and is not).  The uid must never be embedded in traces
# or exports: it is process-global, so a second run in the same process
# continues the count.  Enforced by ``repro.lint`` rule DET003.
_FLOW_UIDS = count(1)


@dataclass(frozen=True)
class TcpEndpoint:
    """One side of a connection."""

    mac: str
    ip: str
    port: int


class TcpFlow:
    """An established TCP connection between two endpoints.

    The *local* side sends with :meth:`next_header`; incoming frames
    are matched and accepted in order by :meth:`FlowTable.receive`.
    """

    def __init__(self, local: TcpEndpoint, remote: TcpEndpoint,
                 initial_seq: int = 1, initial_ack: int = 1):
        self.uid = next(_FLOW_UIDS)  # stable per-flow key (see _FLOW_UIDS)
        self.local = local
        self.remote = remote
        self.snd_nxt = initial_seq   # next sequence number we will send
        self.rcv_nxt = initial_ack   # next sequence number we expect

    # -- transmit ---------------------------------------------------------

    def eth_header(self) -> EthernetHeader:
        """The Ethernet header for outgoing frames."""
        return EthernetHeader(dst_mac=self.remote.mac, src_mac=self.local.mac)

    def next_header(self, payload_len: int) -> TcpHeader:
        """TCP header for the next ``payload_len`` bytes; advances snd_nxt."""
        if payload_len < 0:
            raise ProtocolError(f"negative payload length: {payload_len}")
        header = TcpHeader(src_port=self.local.port, dst_port=self.remote.port,
                           seq=self.snd_nxt, ack=self.rcv_nxt)
        self.snd_nxt += payload_len
        return header

    def lso_header(self, payload_len: int) -> bytes:
        """The 54-byte Ethernet/IPv4/TCP template for the next
        ``payload_len`` bytes (advances snd_nxt).  The NIC recomputes
        lengths and checksums per segment, so the template carries a
        dummy 40-byte IPv4 length."""
        return (self.eth_header().pack()
                + Ipv4Header(src_ip=self.local.ip, dst_ip=self.remote.ip,
                             total_length=40).pack()
                + self.next_header(payload_len).pack(
                    self.local.ip, self.remote.ip, b""))

    def reverse(self) -> "TcpFlow":
        """The same connection as seen from the remote side."""
        flow = TcpFlow(local=self.remote, remote=self.local,
                       initial_seq=self.rcv_nxt, initial_ack=self.snd_nxt)
        return flow


@dataclass
class FlowTable:
    """Connections keyed by the NIC's flow-steering key, and the
    receive-side protocol check.

    Both the host kernel's socket layer and the engine's NIC controller
    keep one of these; the engine's copy is what lets it steer received
    payloads to the right destination buffers without the CPU.
    """

    _flows: dict[FlowKey, TcpFlow] = field(default_factory=dict)
    discarded: int = 0   # frames :meth:`receive` dropped

    def add(self, flow: TcpFlow) -> None:
        key = flow_key(flow.remote.ip, flow.remote.port, flow.local.port)
        if key in self._flows:
            raise ProtocolError(f"duplicate flow {key}")
        self._flows[key] = flow

    def receive(self, header: bytes, payload: bytes) -> Optional[TcpFlow]:
        """Match a received frame to its flow and accept it in order.

        ``header`` holds the frame's fixed headers (the whole frame will
        do), already checked by the NIC; ``payload`` is its TCP payload.
        Returns the flow whose stream ``payload`` continues, having
        advanced its ``rcv_nxt``.  A frame for another destination
        address, or out of sequence, is discarded: counted in
        :attr:`discarded`, returns None.  The simulated wire never
        reorders, but it can lose a frame (a ``nic.wire_drop`` fault,
        or a receive DMA lost to a link fault); with no retransmission
        modelled, every later frame of the stream is discarded.
        Raises :class:`ProtocolError` for a frame of no known flow.
        """
        src, dst, src_port, dst_port, seq = RX_FIELDS.unpack_from(
            header, RX_FIELDS_OFFSET)
        flow = self._flows.get((src, src_port, dst_port))
        if flow is None:
            raise ProtocolError(
                f"frame for unknown flow {_ip_str(dst)}:{dst_port} "
                f"from {_ip_str(src)}:{src_port}")
        if dst != _ip_bytes(flow.local.ip) or seq != flow.rcv_nxt:
            self.discarded += 1
            return None
        flow.rcv_nxt += len(payload)
        return flow

    def remove(self, flow: TcpFlow) -> None:
        key = flow_key(flow.remote.ip, flow.remote.port, flow.local.port)
        self._flows.pop(key, None)

    def __len__(self) -> int:
        return len(self._flows)
