"""Measurement helpers: busy-time accounting, histograms, throughput.

The evaluation in the paper reports three kinds of numbers and these
classes are their direct sources:

* **latency breakdowns** (Figs 3a, 11) — :class:`BusyTracker` with one
  category per software/hardware component;
* **CPU-utilization breakdowns** (Figs 3b, 8, 12) — :class:`BusyTracker`
  attached to CPU cores, normalised over a measurement window;
* **wire throughput** in the metrics plane's time series —
  :class:`Meter`, a running byte count the plane polls.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class BusyTracker:
    """Accumulates busy time per named category.

    Components call :meth:`add` with an explicit duration (the usual
    case: a CPU model that just consumed ``cost`` ns doing "filesystem"
    work), and experiments read totals or utilizations over a window.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._busy: Dict[str, int] = defaultdict(int)
        self._window_start: int = 0

    def register(self, name: str, **labels: str) -> "BusyTracker":
        """Expose this tracker through the metrics registry as one
        polled counter series per category (``category=<key>`` added to
        ``labels``).  A no-op when no metrics session is installed, so
        callers can chain it unconditionally."""
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.polled_map(name, "category", self.by_category, **labels)
        return self

    def add(self, category: str, duration: int) -> None:
        """Account ``duration`` ns of busy time to ``category``."""
        if duration < 0:
            raise SimulationError(f"negative busy duration: {duration}")
        self._busy[category] += duration

    def reset_window(self) -> None:
        """Start a fresh measurement window at the current time.

        Categories seen before the reset stay present (at zero) so that
        readers iterating a stable category set — e.g. a Fig 12 series
        differencing windows — see consistent keys rather than a
        KeyError or a stale pre-reset value.
        """
        for category in self._busy:
            self._busy[category] = 0
        self._window_start = self.sim.now

    def total(self, category: Optional[str] = None) -> int:
        """Total busy ns for one category, or across all categories."""
        if category is not None:
            return self._busy.get(category, 0)
        return sum(self._busy.values())

    def by_category(self) -> Dict[str, int]:
        """Busy ns per category (a copy)."""
        return dict(self._busy)

    def window(self) -> int:
        """Elapsed ns since the window started."""
        return self.sim.now - self._window_start

    def utilization(self, category: Optional[str] = None,
                    parallelism: int = 1) -> float:
        """Busy fraction of the window, spread over ``parallelism`` units.

        For a 4-core CPU pool pass ``parallelism=4`` so that the result
        is the familiar "fraction of the whole CPU" number.
        """
        elapsed = self.window()
        if elapsed <= 0:
            return 0.0
        return self.total(category) / (elapsed * parallelism)

    def utilization_by_category(self, parallelism: int = 1) -> Dict[str, float]:
        """Per-category utilization over the current window."""
        elapsed = self.window()
        if elapsed <= 0:
            return {k: 0.0 for k in self._busy}
        return {k: v / (elapsed * parallelism) for k, v in self._busy.items()}


class Histogram:
    """A simple sample collector with summary statistics.

    The sorted order is computed lazily and cached: figure experiments
    ask the same histogram for p50/p95/p99 (and min/max) back to back,
    so only the first rank query after an :meth:`add` pays the sort.
    """

    def __init__(self):
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, sample: float) -> None:
        """Record one sample."""
        self._samples.append(sample)
        self._sorted = None

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, ``pct`` in [0, 100]."""
        if not self._samples:
            raise SimulationError("percentile() of an empty histogram")
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = self._ordered()
        rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
        return ordered[rank]

    def min(self) -> float:
        if not self._samples:
            raise SimulationError("min() of an empty histogram")
        return self._ordered()[0]

    def max(self) -> float:
        if not self._samples:
            raise SimulationError("max() of an empty histogram")
        return self._ordered()[-1]


class Meter:
    """Counts bytes (or any unit); the metrics plane polls the count."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._count: int = 0

    def register(self, name: str, **labels: str) -> "Meter":
        """Expose this meter's running count through the metrics
        registry as a polled counter.  A no-op when no metrics session
        is installed, so callers can chain it unconditionally."""
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.polled(name, lambda: self._count, **labels)
        return self

    def add(self, amount: int) -> None:
        """Record ``amount`` units moved."""
        if amount < 0:
            raise SimulationError(f"negative meter amount: {amount}")
        self._count += amount
