"""Point-to-point PCIe link model.

A link connects one port (device or root complex) to the switch.  Each
direction is a FIFO :class:`LinkDirection`: a transfer holds the
direction for its serialization time, so concurrent transfers on the
same link share bandwidth by queueing — the same first-order behaviour
as credit-based flow control at full load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.units import Rate
from repro.pcie.transaction import tlp_efficiency


@dataclass(frozen=True)
class LinkConfig:
    """Static link parameters.

    ``raw_per_lane`` is the post-line-coding data rate per lane per
    direction (Gen2 = 5 GT/s with 8b/10b → 500 MB/s/lane).
    """

    name: str
    lanes: int
    raw_per_lane_mbytes: float

    def effective_rate(self) -> Rate:
        """Payload bandwidth per direction after TLP overhead."""
        raw = self.lanes * self.raw_per_lane_mbytes * 1e6
        return Rate(raw * tlp_efficiency())


LINK_GEN2_X4 = LinkConfig("gen2-x4", lanes=4, raw_per_lane_mbytes=500.0)
LINK_GEN2_X8 = LinkConfig("gen2-x8", lanes=8, raw_per_lane_mbytes=500.0)
LINK_GEN2_X16 = LinkConfig("gen2-x16", lanes=16, raw_per_lane_mbytes=500.0)


class LinkDirection:
    """One direction of a link, held by one transfer at a time.

    A ``busy`` flag plus a FIFO of parked transfers.  The fabric takes a
    free direction by setting the flag, which schedules nothing; a
    transfer that finds it busy yields :meth:`park`.  :meth:`release`
    hands the direction to the oldest parked transfer with one
    ``succeed()`` (it resumes on the releasing tick, after the events
    already queued for it) or, with nobody parked, clears the flag.
    """

    __slots__ = ("sim", "busy", "_parked", "inflight")

    def __init__(self, sim: Simulator, inflight: Optional[object] = None):
        self.sim = sim
        self.busy = False
        self._parked: Deque[Event] = deque()
        # pcie.link.inflight_bytes instrument; None without metrics.
        self.inflight = inflight

    @property
    def count(self) -> int:
        """Transfers holding the direction (0 or 1)."""
        return 1 if self.busy else 0

    @property
    def queue_length(self) -> int:
        """Transfers parked waiting for the direction."""
        return len(self._parked)

    def park(self) -> Event:
        """The event that fires when a busy direction is handed over."""
        event = Event(self.sim)
        self._parked.append(event)
        return event

    def release(self) -> None:
        """Hand the direction to the oldest parked transfer, or free it."""
        if self._parked:
            self._parked.popleft().succeed()
        else:
            self.busy = False


class PcieLink:
    """A full-duplex link with FIFO per-direction occupancy."""

    def __init__(self, sim: Simulator, config: LinkConfig,
                 name: Optional[str] = None, node: str = ""):
        self.sim = sim
        self.config = config
        self.name = name if name is not None else config.name
        self.node = node
        self.rate = config.effective_rate()
        metrics = sim.metrics
        # Direction names follow the device's point of view.
        self.tx = LinkDirection(  # device -> switch
            sim, None if metrics is None else metrics.timegauge(
                "pcie.link.inflight_bytes", node=node, link=self.name,
                dir="tx"))
        self.rx = LinkDirection(  # switch -> device
            sim, None if metrics is None else metrics.timegauge(
                "pcie.link.inflight_bytes", node=node, link=self.name,
                dir="rx"))

    def serialization(self, size: int) -> int:
        """Time (ns) to clock ``size`` payload bytes through one direction."""
        return self.rate.duration(size)
