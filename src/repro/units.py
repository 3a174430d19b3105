"""Units and unit helpers used across the simulator.

Simulated time is an integer number of **nanoseconds**; data sizes are
integer **bytes**.  Using integers keeps the event queue exactly ordered
and the simulation deterministic.  The helpers below exist so that model
constants read like the datasheets they were calibrated from
(``usec(15)``, ``gbps(17.2)``) instead of raw magic numbers.
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000


def nsec(value: float) -> int:
    """Convert nanoseconds to simulation ticks (identity, rounded)."""
    return round(value)


def usec(value: float) -> int:
    """Convert microseconds to simulation ticks."""
    return round(value * USEC)


def msec(value: float) -> int:
    """Convert milliseconds to simulation ticks."""
    return round(value * MSEC)


def to_usec(ticks: int) -> float:
    """Render simulation ticks as microseconds (for reports)."""
    return ticks / USEC


# --- sizes ----------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

SECTOR = 512
PAGE = 4 * KIB


def gib(value: float) -> int:
    """Convert GiB to bytes."""
    return round(value * GIB)


# --- rates ----------------------------------------------------------------


class Rate:
    """A data rate expressed internally as bytes per second.

    A :class:`Rate` knows how long a transfer of ``size`` bytes takes in
    simulation ticks, which is the only question the models ever ask.
    """

    __slots__ = ("bytes_per_sec",)

    def __init__(self, bytes_per_sec: float):
        if bytes_per_sec <= 0:
            raise ValueError(f"rate must be positive, got {bytes_per_sec}")
        self.bytes_per_sec = float(bytes_per_sec)

    def duration(self, size: int) -> int:
        """Return the time (ns) to move ``size`` bytes at this rate."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return round(size * SEC / self.bytes_per_sec)

    def gbps(self) -> float:
        """Render as gigabits per second (for reports)."""
        return self.bytes_per_sec * 8 / 1e9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rate({self.gbps():.2f} Gbps)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rate) and self.bytes_per_sec == other.bytes_per_sec

    def __hash__(self) -> int:
        return hash(self.bytes_per_sec)


def gbps(value: float) -> Rate:
    """A rate in gigabits per second (decimal, as datasheets quote)."""
    return Rate(value * 1e9 / 8)


def gibps(value: float) -> Rate:
    """A rate in gibibytes per second."""
    return Rate(value * GIB)
