"""The submitter side of the NIC ring protocol, shared by the host's NIC
driver and the HDC Engine's NIC controller.  They differ only in who
pays for a frame (``cpu.run`` costs or fixed FSM latencies), how
progress is noticed (MSI or a BRAM status watch) and what a received
frame becomes (socket delivery or scoreboard gather); :class:`NicClient`
is the rest.
"""

from __future__ import annotations

from repro.devices.nic.descriptors import RecvDescriptor, SendDescriptor
from repro.devices.nic.nic import Nic
from repro.errors import ConfigurationError
from repro.net.packet import HEADER_LEN, TCP_MSS

HEADER_SLOT = 64   # bytes per staged LSO header template


class NicClient:
    """Submitter side of one NIC TX/RX channel pair.

    Send descriptor ``i`` stages its header template in slot
    ``i % hdr_slots`` of ``tx_hdr_area``.  The NIC fetches templates
    asynchronously, so a slot must not be reused before its descriptor
    is consumed: callers keep fewer than ``hdr_slots`` descriptors in
    flight.  Posted receive descriptors are kept by ring slot in
    :attr:`posted` until their completion; :meth:`drain` then posts the
    same descriptor again and rings the receive doorbell once per
    ``ring_every`` reposts.
    """

    def __init__(self, nic: Nic, initiator: str, depth: int,
                 tx_ring_addr: int, tx_status_addr: int, rx_desc_addr: int,
                 rx_cmpl_addr: int, rx_status_addr: int, tx_hdr_area: int,
                 hdr_slots: int, ring_every: int, interrupt: bool):
        self.initiator = initiator      # who rings the doorbells
        self.send_ring = nic.configure_tx(tx_ring_addr, depth,
                                          tx_status_addr, interrupt=interrupt)
        self.recv_ring = nic.configure_rx(rx_desc_addr, rx_cmpl_addr, depth,
                                          rx_status_addr, interrupt=interrupt)
        self._sim = nic.sim
        self._memory = nic.fabric.address_map
        self._tx_hdr_area = tx_hdr_area
        self._hdr_slots = hdr_slots
        self._ring_every = ring_every
        self.posted: dict[int, RecvDescriptor] = {}   # ring slot -> buffer
        self.draining = False   # a drain is running (cleared on its way out)

    # -- transmit ------------------------------------------------------------

    def send(self, header: bytes, payload_addr: int, payload_len: int):
        """Process: stage ``header`` in this descriptor's slot, push one
        LSO descriptor and ring the send doorbell; returns its index."""
        if len(header) != HEADER_LEN:
            raise ConfigurationError(
                f"header template must be {HEADER_LEN} bytes")
        ring = self.send_ring
        hdr_addr = (self._tx_hdr_area
                    + ring.tail % self._hdr_slots * HEADER_SLOT)
        self._memory.write(hdr_addr, header)
        index = ring.push(SendDescriptor(
            hdr_addr=hdr_addr, hdr_len=HEADER_LEN, payload_addr=payload_addr,
            payload_len=payload_len, lso=True, mss=TCP_MSS))
        yield from ring.ring(self.initiator)
        return index

    # -- receive -------------------------------------------------------------

    def post(self, desc: RecvDescriptor) -> None:
        """Post one receive buffer (no doorbell)."""
        index = self.recv_ring.post(desc)
        self.posted[index % self.recv_ring.depth] = desc

    def start_drain(self, pump) -> None:
        """Start ``pump()``, a process around :meth:`drain`, unless a
        drain is already running: that one will see the new completions."""
        if not self.draining:
            self.draining = True
            self._sim.spawn(pump())

    def drain(self, handle):
        """Process: consume every new completion.

        ``handle(cmpl, desc)`` (a process) gets each completion with the
        descriptor it filled; once it returns, the same descriptor is
        posted again, whether its frame was dropped or not.
        """
        reposted = 0
        try:
            while (cmpl := self.recv_ring.poll_completion()) is not None:
                desc = self.posted.pop(cmpl.desc_index)
                yield from handle(cmpl, desc)
                self.post(desc)
                reposted += 1
                if reposted % self._ring_every == 0:
                    yield from self.recv_ring.ring(self.initiator)
        finally:
            self.draining = False
        if reposted % self._ring_every:
            yield from self.recv_ring.ring(self.initiator)
