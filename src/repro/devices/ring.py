"""The one completion-ring producer: the SSD's NVMe completion queues,
the NIC's receive completion rings and the HDC Engine's D2D completion
ring all post through :class:`CompletionRing`.  Their consumers reap in
order, so a record that never lands gives its claimed slot back.
"""

from __future__ import annotations

from repro.errors import DeviceTimeout

# A ring DMA (a completion write, a descriptor fetch) that times out
# moved no bytes, so it is safely done again -- at most this many times.
RING_DMA_RETRIES = 3


def ring_dma(dma, addr: int, arg):
    """Process: ``dma(addr, arg)``, done again after each timeout up to
    :data:`RING_DMA_RETRIES` times; returns its result, or raises the
    last attempt's :class:`DeviceTimeout`."""
    for _ in range(RING_DMA_RETRIES):
        try:
            return (yield from dma(addr, arg))
        except DeviceTimeout:
            pass
    return (yield from dma(addr, arg))


class CompletionRing:
    """Producer view of one ring of ``depth`` slots at ``base``.

    ``produced`` counts claimed slots (free-running); ``phase`` is the
    NVMe phase tag of the next slot.  ``dma_write(addr, data)`` is the
    producer's timed DMA.  The producer keeps one claim in flight.
    """

    def __init__(self, base: int, slot_size: int, depth: int, dma_write):
        self.base = base
        self.slot_size = slot_size
        self.depth = depth
        self.produced = 0
        self.phase = 1
        self._dma_write = dma_write

    def claim(self) -> int:
        """Take the next slot; returns its address."""
        slot = self.produced % self.depth
        self.produced += 1
        if slot == self.depth - 1:
            self.phase ^= 1
        return self.base + slot * self.slot_size

    def write(self, addr: int, record: bytes):
        """Process: write ``record`` into the slot claimed at ``addr``
        (a :func:`ring_dma`); returns whether it landed.  If not, the
        slot is given back."""
        try:
            yield from ring_dma(self._dma_write, addr, record)
        except DeviceTimeout:
            self.produced -= 1
            if self.produced % self.depth == self.depth - 1:
                self.phase ^= 1
            return False
        return True
