"""The host NIC driver: rings in host DRAM, NAPI-style receive.

Transmit: one LSO descriptor per ``send`` call (the optimized-software
baseline uses TSO, as the paper's SW-opt stack does), TX-complete
interrupt.  Receive: whole frames DMA into kernel buffers, an RX
interrupt kicks a NAPI-like poll loop that pays the stack's per-frame
CPU cost and hands each frame's bytes to the socket layer via a
delivery callback.  The NIC already checked every frame it completes
(RX checksum offload), so nothing here checks it again.  The ring
protocol itself is :class:`~repro.devices.nic.client.NicClient`'s; this
driver adds the CPU costs, the interrupt handlers and socket delivery.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.breakdown import current_trace
from repro.devices.nic.client import NicClient
from repro.devices.nic.descriptors import RecvDescriptor
from repro.devices.nic.nic import Nic
from repro.errors import ConfigurationError
from repro.host.cpu import CpuPool
from repro.host.costs import CAT, SoftwareCosts
from repro.sim.kernel import Simulator
from repro.units import KIB


class HostNicDriver:
    """Submitter + interrupt-driven receive path for one NIC."""

    RING_DEPTH = 256
    RECV_BUF = 2 * KIB  # one full frame per kernel receive buffer

    def __init__(self, sim: Simulator, cpu: CpuPool, costs: SoftwareCosts,
                 nic: Nic, irq, tx_ring_addr: int, tx_status_addr: int,
                 rx_desc_addr: int, rx_cmpl_addr: int, rx_status_addr: int,
                 rx_buffer_base: int, tx_hdr_area: int):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.nic = nic
        # One header slot per ring entry; every repost rings the doorbell.
        self.client = NicClient(
            nic, "host", self.RING_DEPTH, tx_ring_addr, tx_status_addr,
            rx_desc_addr, rx_cmpl_addr, rx_status_addr, tx_hdr_area,
            hdr_slots=self.RING_DEPTH, ring_every=1, interrupt=True)
        self._tx_reclaimed = 0
        # The socket layer's receive: gets each completed frame's bytes.
        self.deliver: Optional[Callable[[bytes], None]] = None
        irq.register(nic.name, vector=0, handler=self._on_tx_irq)
        irq.register(nic.name, vector=1, handler=self._on_rx_irq)
        # Pre-post the whole receive ring (kernel drivers keep it full).
        for i in range(self.RING_DEPTH - 1):
            self.client.post(RecvDescriptor(
                payload_addr=rx_buffer_base + i * self.RECV_BUF,
                buf_len=self.RECV_BUF))

    def start(self):
        """Process: arm the receive ring (one doorbell)."""
        if self.deliver is None:
            raise ConfigurationError(
                "NIC driver armed with no delivery callback")
        yield from self.client.recv_ring.ring("host")

    # -- transmit ------------------------------------------------------------

    def send(self, header: bytes, payload_addr: int, payload_len: int):
        """Process: queue one LSO descriptor for transmission.

        Returns once the descriptor is in the ring — ``send(2)``
        semantics: the syscall does not wait for the wire.  Descriptor
        reclaim happens asynchronously in the TX-complete IRQ handler
        (whose CPU time is still accounted, just off the latency path).
        ``header`` is the 54-byte template the socket layer built.
        """
        ring = self.client.send_ring
        with current_trace(self.sim).span(CAT.DEVICE_CONTROL):
            while ring.slots_free() == 0:
                yield self.sim.timeout(1000)  # ring backpressure
            yield from self.cpu.run(self.costs.nic_tx_submit,
                                    CAT.DEVICE_CONTROL)
            return (yield from self.client.send(header, payload_addr,
                                                payload_len))

    def _on_tx_irq(self) -> None:
        self.sim.spawn(self._tx_irq_handler(self.sim.now))

    def _tx_irq_handler(self, irq_at: int):
        yield from self.cpu.run(self.costs.interrupt_entry, CAT.COMPLETION)
        consumed = self.client.send_ring.consumer_index()
        # Reclaim every newly consumed descriptor (skb free, ring tidy).
        while self._tx_reclaimed < consumed:
            self._tx_reclaimed += 1
            yield from self.cpu.run(self.costs.nic_tx_submit,
                                    CAT.COMPLETION)

    # -- receive -------------------------------------------------------------

    def _on_rx_irq(self) -> None:
        self.client.start_drain(self._napi_poll)

    def _napi_poll(self):
        yield from self.cpu.run(self.costs.interrupt_entry, CAT.COMPLETION)
        yield from self.client.drain(self._receive)

    def _receive(self, cmpl, desc: RecvDescriptor):
        """Process: pay the per-frame stack cost on the CPU and deliver
        the frame's bytes (nothing, for a frame the NIC dropped)."""
        yield from self.cpu.run(self.costs.nic_rx_per_frame, CAT.NETWORK)
        if not cmpl.dropped:
            self.deliver(self.nic.fabric.address_map.read(desc.payload_addr,
                                                          cmpl.payload_len))
