"""The metrics plane's session (see :mod:`repro.sim.session`).

One :class:`MetricsSession` covers a whole experiment run and hands a
fresh :class:`~repro.metrics.registry.MetricSet` to every
:class:`~repro.sim.kernel.Simulator` constructed while installed.  With
no session installed, ``Simulator.metrics`` is ``None`` and the whole
plane costs one identity check per instrumentation site and one per
``step()``.

The default sampling interval is 100 µs of simulated time — coarse
enough that app-scale runs stay small (rows are change-compressed on
top), fine enough for a utilization time series; microbenchmark sims
shorter than one interval still export one forced sample per series at
finalize.
"""

from __future__ import annotations

from typing import List

from repro.errors import MetricsError
from repro.metrics.registry import MetricSet
from repro.sim.session import Session

DEFAULT_INTERVAL_NS = 100_000  # 100 µs of simulated time


class MetricsSession(Session):
    """Collects the metric sets of every simulator built while installed::

        with MetricsSession(label="fig11") as session:
            run_fig11()
        write_csv("out.csv", session)
        print(render_top(session))
    """

    plane = "metrics"
    error = MetricsError

    def __init__(self, label: str = "run",
                 interval_ns: int = DEFAULT_INTERVAL_NS):
        if interval_ns <= 0:
            raise MetricsError(
                f"sampling interval must be positive, got {interval_ns}")
        super().__init__(label)
        self.interval_ns = interval_ns

    @property
    def sets(self) -> List[MetricSet]:
        return self.products

    def make(self, sim, label: str) -> MetricSet:
        return MetricSet(sim, label=label, interval_ns=self.interval_ns)
