"""The host NIC driver: rings in host DRAM, NAPI-style receive.

Transmit: one LSO descriptor per ``send`` call (the optimized-software
baseline uses TSO, as the paper's SW-opt stack does), TX-complete
interrupt.  Receive: whole frames DMA into kernel buffers, an RX
interrupt kicks a NAPI-like poll loop that parses frames on the CPU and
hands payloads to the socket layer via a delivery callback.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.analysis.breakdown import current_trace
from repro.devices.nic.descriptors import RecvDescriptor, SendDescriptor
from repro.devices.nic.nic import Nic
from repro.errors import ConfigurationError
from repro.host.cpu import CpuPool
from repro.host.costs import CAT, SoftwareCosts
from repro.net.packet import Frame, HEADER_LEN, TCP_MSS, parse_frame
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
        # One 64-byte header slot per in-flight descriptor: the NIC
        # fetches header templates asynchronously, so slots must not be
        # reused until their descriptor is consumed (ring depth bounds
        # the in-flight count).
        self._tx_hdr_area = tx_hdr_area
        self.tx_ring = nic.configure_tx(tx_ring_addr, self.RING_DEPTH,
                                        tx_status_addr, interrupt=True)
        self.rx_ring = nic.configure_rx(rx_desc_addr, rx_cmpl_addr,
                                        self.RING_DEPTH, rx_status_addr,
                                        interrupt=True)
        self._rx_buffer_base = rx_buffer_base
        self._tx_reclaimed = 0
        self._napi_running = False
        self.deliver: Optional[Callable[[Frame], None]] = None
        irq.register(nic.name, vector=0, handler=self._on_tx_irq)
        irq.register(nic.name, vector=1, handler=self._on_rx_irq)
        # Descriptor slot -> buffer address, maintained at post time (the
        # NIC echoes the descriptor index; the buffer travels with it).
        self._desc_buf: Dict[int, int] = {}
        # Pre-post the whole receive ring (kernel drivers keep it full).
        for i in range(self.RING_DEPTH - 1):
            self._post_buffer(self._rx_buffer_base + i * self.RECV_BUF)
        self._rx_ready = False

    def _post_buffer(self, buf_addr: int) -> None:
        index = self.rx_ring.post(RecvDescriptor(
            payload_addr=buf_addr, buf_len=self.RECV_BUF))
        self._desc_buf[index % self.RING_DEPTH] = buf_addr

    def start(self):
        """Process: arm the receive ring (one doorbell)."""
        yield from self.rx_ring.ring("host")
        self._rx_ready = True

    # -- transmit ------------------------------------------------------------

    def send(self, header: bytes, payload_addr: int, payload_len: int,
             mss: int = TCP_MSS):
        """Process: queue one LSO descriptor for transmission.

        Returns once the descriptor is in the ring — ``send(2)``
        semantics: the syscall does not wait for the wire.  Descriptor
        reclaim happens asynchronously in the TX-complete IRQ handler
        (whose CPU time is still accounted, just off the latency path).
        ``header`` is the 54-byte template the socket layer built; the
        driver stages it in the slot owned by this descriptor.
        """
        if len(header) != HEADER_LEN:
            raise ConfigurationError(
                f"header template must be {HEADER_LEN} bytes")
        with current_trace(self.sim).span(CAT.DEVICE_CONTROL):
            while self.tx_ring.slots_free() == 0:
                yield self.sim.timeout(1000)  # ring backpressure
            yield from self.cpu.run(self.costs.nic_tx_submit,
                                    CAT.DEVICE_CONTROL)
            hdr_addr = (self._tx_hdr_area
                        + (self.tx_ring.tail % self.RING_DEPTH) * 64)
            self.nic.fabric.address_map.write(hdr_addr, header)
            index = self.tx_ring.push(SendDescriptor(
                hdr_addr=hdr_addr, hdr_len=HEADER_LEN,
                payload_addr=payload_addr, payload_len=payload_len,
                lso=True, mss=mss))
            yield from self.tx_ring.ring("host")
        return index

    def _on_tx_irq(self) -> None:
        self.sim.process(self._tx_irq_handler(self.sim.now))

    def _tx_irq_handler(self, irq_at: int):
        yield from self.cpu.run(self.costs.interrupt_entry, CAT.COMPLETION)
        consumed = self.tx_ring.consumer_index()
        # Reclaim every newly consumed descriptor (skb free, ring tidy).
        while self._tx_reclaimed < consumed:
            self._tx_reclaimed += 1
            yield from self.cpu.run(self.costs.nic_tx_submit,
                                    CAT.COMPLETION)

    # -- receive -------------------------------------------------------------

    def _on_rx_irq(self) -> None:
        if self._napi_running:
            return  # NAPI already polling; it will see the new frames
        self._napi_running = True
        self.sim.process(self._napi_poll())

    def _napi_poll(self):
        if self.deliver is None:
            raise ConfigurationError(
                "NIC driver received frames with no delivery callback")
        yield from self.cpu.run(self.costs.interrupt_entry, CAT.COMPLETION)
        progressed = True
        while progressed:
            progressed = False
            while (cmpl := self.rx_ring.poll_completion()) is not None:
                progressed = True
                yield from self.cpu.run(self.costs.nic_rx_per_frame,
                                        CAT.NETWORK)
                buf_addr = self._desc_buf.pop(cmpl.desc_index)
                if not cmpl.dropped:
                    raw = self.nic.fabric.address_map.read(
                        buf_addr, cmpl.payload_len)
                    self.deliver(parse_frame(raw))
                # Recycle the buffer: repost and (cheaply) ring.
                self._post_buffer(buf_addr)
                yield from self.rx_ring.ring("host")
        self._napi_running = False
