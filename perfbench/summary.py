"""Order statistics for host timings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# A tail percentile is reported only with at least this many samples
# beyond it; with fewer, one outlier would decide it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    value: float
    count: int    # samples it was taken from
    beyond: int   # samples strictly above its rank


def percentile(samples: Sequence[float], fraction: float) -> Percentile:
    """Nearest-rank ``fraction`` percentile of ``samples``.

    Raises ValueError when fewer than ``MIN_BEYOND`` samples lie beyond
    it, so p50 needs 20 samples and p99 needs 1000.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1): {fraction}")
    count = len(samples)
    rank = max(1, math.ceil(fraction * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} of {count} samples has {beyond} beyond "
            f"it; at least {MIN_BEYOND} are needed")
    return Percentile(value=sorted(samples)[rank - 1], count=count,
                      beyond=beyond)
