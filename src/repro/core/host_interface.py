"""The engine's host interface (paper §IV-C).

"The host interface includes the 64-entry command queue (4KB) and the
command parser to receive D2D commands from HDC Driver and deliver them
to the scoreboard.  When HDC Engine finds that all user-requested D2D
commands are completed, it interrupts HDC Driver through the interrupt
generator."

Mechanics: HDC Driver writes 64-byte commands into the BRAM-resident
command queue and rings a doorbell; the parser process decodes each
command and hands it to the engine's dispatcher.  Completions flow the
other way: the engine DMA-writes 32-byte completion records into a
host-DRAM ring and raises an MSI.
"""

from __future__ import annotations

from typing import Callable

from repro.core.command import (COMPLETION_SIZE, D2DCommand,
                                D2D_COMMAND_SIZE, D2DCompletion)
from repro.errors import DeviceError, ProtocolError
from repro.memory.region import MemoryRegion
from repro.sim.kernel import Simulator
from repro.sim.resources import Signal, Store
from repro.units import nsec

COMMAND_QUEUE_DEPTH = 64
DOORBELL_OFFSET = 0x0
COMMAND_QUEUE_OFFSET = 0x100

# Command parse: a few cycles of a 200 MHz decoder FSM.
PARSE_TIME = nsec(60)


class HostInterface:
    """Command queue + parser + interrupt generator."""

    def __init__(self, sim: Simulator, bar: MemoryRegion,
                 completion_ring_addr: int, engine_port: str,
                 fabric, on_command: Callable[[D2DCommand], None]):
        self.sim = sim
        self.bar = bar
        self.fabric = fabric
        self.engine_port = engine_port
        self.completion_ring_addr = completion_ring_addr
        self.on_command = on_command
        self._head = 0          # next command slot the parser will read
        self._tail = 0          # latest doorbell value
        self._wake = Signal(sim)
        self._cpl_tail = 0
        self.commands_received = 0
        self.interrupts_raised = 0
        self.interrupts_lost = 0
        bar.on_mmio_write = self._on_bar_write
        self.outbox: Store = Store(sim)   # completions awaiting delivery
        sim.spawn(self._parser())
        sim.spawn(self._interrupt_generator())

    # -- host-facing side --------------------------------------------------------

    def command_slot_addr(self, tail: int) -> int:
        """BRAM address of command slot ``tail % depth``."""
        return (self.bar.base + COMMAND_QUEUE_OFFSET
                + (tail % COMMAND_QUEUE_DEPTH) * D2D_COMMAND_SIZE)

    @property
    def doorbell_addr(self) -> int:
        return self.bar.base + DOORBELL_OFFSET

    def slots_free(self) -> int:
        return COMMAND_QUEUE_DEPTH - (self._tail - self._head)

    # -- BAR dispatch ----------------------------------------------------------

    def _on_bar_write(self, offset: int, data: bytes) -> None:
        if offset == DOORBELL_OFFSET:
            value = int.from_bytes(data[:4], "little")
            tail = (self._tail & ~0xFFFFFFFF) | value
            if tail < self._tail:
                if self._tail - tail > (1 << 31):
                    tail += 1 << 32   # genuine 32-bit wrap
                else:
                    return            # stale/duplicate announcement
            if tail - self._head > COMMAND_QUEUE_DEPTH:
                raise ProtocolError("command queue overrun")
            self._tail = tail
            self._wake.notify()
        elif offset >= COMMAND_QUEUE_OFFSET:
            # Command bytes landing in queue BRAM: plain storage.
            self.bar.store(self.bar.base + offset, data)
        # other offsets: configuration registers, ignored

    # -- parser ------------------------------------------------------------------

    def _parser(self):
        while True:
            if self._head == self._tail:
                yield self._wake.wait()
                continue
            slot_addr = self.command_slot_addr(self._head)
            self._head += 1
            yield self.sim.timeout(PARSE_TIME)
            raw = self.bar.read(slot_addr, D2D_COMMAND_SIZE)
            command = D2DCommand.unpack(raw)
            self.commands_received += 1
            self.on_command(command)

    # -- interrupt generator -------------------------------------------------------

    def post_completion(self, completion: D2DCompletion) -> None:
        """Queue a completion for delivery to the host."""
        self.outbox.put(completion)

    def _interrupt_generator(self):
        while True:
            completion = yield self.outbox.get()
            slot = self._cpl_tail % COMMAND_QUEUE_DEPTH
            addr = self.completion_ring_addr + slot * COMPLETION_SIZE
            self._cpl_tail += 1
            try:
                yield from self.fabric.dma_write(self.engine_port, addr,
                                                 completion.pack())
            except DeviceError:
                # The record never landed: give its slot back, so the
                # next completion fills it; the driver's D2D watchdog
                # reports the lost command.
                self._cpl_tail -= 1
                self.interrupts_lost += 1
                continue
            try:
                yield from self.fabric.msi(self.engine_port, vector=0)
            except DeviceError:
                # MSI lost to a link fault: the record is in the ring,
                # and the driver reaps it with the next interrupt.
                self.interrupts_lost += 1
                continue
            self.interrupts_raised += 1
