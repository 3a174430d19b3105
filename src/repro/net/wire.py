"""The physical wire between two NICs.

Serialization at line rate plus propagation; frames are delivered in
order to the remote NIC's ingress queue.  The wire is where the 10 Gbps
(or, for Fig 13 projections, 40 Gbps) bottleneck physically lives.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError
from repro.net.packet import wire_bytes
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes, Store
from repro.units import SEC, Rate, gbps, usec


class Wire:
    """A full-duplex point-to-point Ethernet link."""

    def __init__(self, sim: Simulator, rate: Optional[Rate] = None,
                 propagation: int = usec(2)):
        self.sim = sim
        self.rate = rate if rate is not None else gbps(10)
        self.propagation = propagation
        # Each endpoint's TX direction: one lane.
        self._tx: Dict[str, Lanes] = {}
        self._ingress: Dict[str, Store] = {}

    def attach(self, name: str) -> Store:
        """Attach an endpoint; returns its ingress frame queue."""
        if name in self._ingress:
            raise SimulationError(f"endpoint {name!r} already attached")
        if len(self._ingress) >= 2:
            raise SimulationError("a Wire is point-to-point (two endpoints)")
        self._tx[name] = Lanes(self.sim)
        self._ingress[name] = Store(self.sim)
        return self._ingress[name]

    def _peer(self, name: str) -> str:
        others = [n for n in self._ingress if n != name]
        if name not in self._ingress or not others:
            raise SimulationError(
                f"endpoint {name!r} not attached or peer missing")
        return others[0]

    def transmit(self, sender: str, frame: bytes):
        """Process: serialize ``frame`` and deliver it to the peer.

        Holds the sender's TX direction for the serialization time of
        the frame *plus* preamble/FCS/IFG overhead, which is exactly
        what caps effective TCP goodput below line rate.
        """
        ingress = self._ingress[self._peer(sender)]
        tx = self._tx[sender]
        if tx.busy:
            yield from tx.wait()
        else:
            tx.busy = 1
        try:
            # Rate.duration written out, saving a frame per frame.
            yield self.sim.timeout(round(
                wire_bytes(len(frame)) * SEC / self.rate.bytes_per_sec))
        finally:
            tx.release()
        # Propagation pipelines with the next frame's serialization, so
        # delivery is a timeout callback rather than part of this
        # process.  Order is preserved: the timeouts are created in
        # serialization order with the same delay onto a FIFO store.
        self.sim.timeout(self.propagation).callbacks.append(
            lambda _timeout: ingress.put(frame))
