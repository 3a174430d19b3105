"""CPU cores with per-category busy-time accounting."""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.resources import Lanes
from repro.sim.stats import BusyTracker


class CpuPool:
    """A pool of identical cores.

    Software stages call :meth:`run` (a process) to consume CPU time:
    the stage holds one core for ``cost`` ns and the time is accounted
    to its category.  Contention between concurrent kernel paths falls
    out of the cores being FIFO-fair :class:`~repro.sim.resources.Lanes`.
    """

    def __init__(self, sim: Simulator, cores: int = 1,
                 tracker: Optional[BusyTracker] = None,
                 owner: Optional[str] = None):
        if cores < 1:
            raise ConfigurationError(f"need at least one core, got {cores}")
        self.sim = sim
        self.cores = cores
        self.tracker = tracker if tracker is not None else BusyTracker(sim)
        self._cores = Lanes(sim, cores)
        metrics = sim.metrics
        if metrics is not None and owner is not None:
            self.tracker.register("host.cpu.busy_ns", node=owner)
            metrics.polled("host.cpu.busy_cores",
                           lambda: self._cores.count, node=owner)

    def run(self, cost: int, category: str):
        """Process: execute ``cost`` ns of work accounted to ``category``."""
        if cost < 0:
            raise ConfigurationError(f"negative CPU cost: {cost}")
        cores = self._cores
        if cores.busy < cores.capacity:
            cores.busy += 1
        else:
            yield from cores.wait()
        try:
            yield self.sim.timeout(cost)
        finally:
            cores.release()
        self.tracker.add(category, cost)
        return cost

    def utilization(self, category: Optional[str] = None) -> float:
        """Busy fraction over the tracker window, normalized per pool."""
        return self.tracker.utilization(category, parallelism=self.cores)

    def utilization_by_category(self) -> dict[str, float]:
        """Per-category utilization over the tracker window."""
        return self.tracker.utilization_by_category(parallelism=self.cores)
