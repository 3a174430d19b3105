"""Point-to-point PCIe link model.

A link connects one port (device or root complex) to the switch.  Each
direction is a FIFO :class:`LinkDirection`: a transfer holds the
direction for its serialization time, so concurrent transfers on the
same link share bandwidth by queueing — the same first-order behaviour
as credit-based flow control at full load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes
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


class LinkDirection(Lanes):
    """One direction of a link, held by one transfer at a time.

    One :class:`~repro.sim.resources.Lanes` lane.  The fabric takes a
    free direction by setting ``busy``, which schedules nothing, and
    frees it by clearing ``busy`` when nobody is ``parked``; a transfer
    that finds it busy runs :meth:`wait`, and :meth:`release` hands the
    direction to the oldest parked transfer.
    """

    __slots__ = ("inflight",)

    def __init__(self, sim: Simulator, inflight: Optional[object] = None):
        super().__init__(sim)
        # pcie.link.inflight_bytes instrument; None without metrics.
        self.inflight = inflight


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
