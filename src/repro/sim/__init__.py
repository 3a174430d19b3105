"""Discrete-event simulation kernel.

A small, deterministic, generator-based process/event engine in the style
of simpy, written from scratch for this reproduction.  Simulated time is
integer nanoseconds (see :mod:`repro.units`).

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(usec(5))
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Lanes, Signal, Store, WaiterTable
from repro.sim.stats import BusyTracker, Histogram, Meter
from repro.sim.rng import RngHub, empirical, exponential_interarrivals

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Event",
    "Histogram",
    "Lanes",
    "Meter",
    "Process",
    "RngHub",
    "Signal",
    "Simulator",
    "Store",
    "Timeout",
    "WaiterTable",
    "empirical",
    "exponential_interarrivals",
]
