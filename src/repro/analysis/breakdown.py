"""Latency breakdown containers.

A :class:`LatencyTrace` rides along one request's critical path; every
pipeline stage wraps itself in ``with current_trace(sim).span(category):``
so the per-component latency decomposition of Figs 3a/11 falls out of
the simulation rather than being asserted.

The trace travels on the request's process, not through arguments:
:func:`traced_op` makes a fresh trace the running process's request
trace for the length of one operation, processes spawned meanwhile
inherit it (:class:`~repro.sim.kernel.Process`), and
:func:`current_trace` reads it back at each attribution site.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.errors import SimulationError
from repro.units import to_usec

_new = object.__new__


class LatencyTrace:
    """Per-request latency segments, by component category.

    When the simulator has an attached :class:`~repro.trace.Tracer`
    (a ``TraceSession`` is installed), the trace mirrors itself into
    the event stream: :meth:`bind` opens a ``request`` root span, every
    :meth:`span`/:meth:`add` segment becomes a ``phase`` event under
    it, and :meth:`finish` closes the root.  The span-derived breakdown
    therefore equals :attr:`segments` by construction (asserted in
    ``tests/test_trace.py``).
    """

    def __init__(self, sim):
        self.sim = sim
        self.segments: Dict[str, int] = defaultdict(int)
        self.started_at = sim.now
        self.finished_at: Optional[int] = None
        self._tracer = sim.tracer
        self._root = None

    def bind(self, op: str = "request", **args) -> "LatencyTrace":
        """Open the ``request`` root span (no-op when tracing is off);
        :func:`traced_op` calls this with the operation's name."""
        if self._tracer is not None:
            self._root = self._tracer.begin("request", track="requests",
                                            name=op, **args)
        return self

    def _emit_phase(self, category: str, start: int, duration: int,
                    attributed: bool = False) -> None:
        if duration <= 0:
            return
        if attributed:
            self._tracer.complete("phase", track="requests", start=start,
                                  duration=duration, name=category,
                                  parent=self._root, attributed=True)
        else:
            self._tracer.complete("phase", track="requests", start=start,
                                  duration=duration, name=category,
                                  parent=self._root)

    def span(self, category: str) -> "_Span":
        """Attribute the wall time spent inside the block to ``category``.

        Safe to wrap around ``yield``-ing simulation code: only the
        simulated clock is sampled.
        """
        span = _new(_Span)
        span.trace = self
        span.category = category
        span.start = self.sim.now
        return span

    def add(self, category: str, duration: int) -> None:
        """Attribute ``duration`` ns directly (after-the-fact, e.g. the
        engine's stage profile)."""
        self.segments[category] += duration
        if self._tracer is not None:
            self._emit_phase(category, max(0, self.sim.now - duration),
                             duration, attributed=True)

    def finish(self) -> None:
        """Mark the request complete (records end-to-end latency)."""
        self.finished_at = self.sim.now
        if self._root is not None:
            self._root.end()
            self._root = None

    @property
    def total(self) -> int:
        """End-to-end ns (requires :meth:`finish`), else sum of segments."""
        if self.finished_at is not None:
            return self.finished_at - self.started_at
        return sum(self.segments.values())

    @property
    def total_us(self) -> float:
        return to_usec(self.total)

    def breakdown_us(self) -> Dict[str, float]:
        """Segments in microseconds, sorted by decreasing share."""
        items = sorted(self.segments.items(), key=lambda kv: -kv[1])
        return {k: to_usec(v) for k, v in items}

    def unattributed(self) -> int:
        """End-to-end time not covered by any span (overlap-free only)."""
        if self.finished_at is None:
            return 0
        return max(0, self.total - sum(self.segments.values()))


class _Span:
    """One ``with trace.span(category):`` block of a
    :class:`LatencyTrace`, built flat by :meth:`LatencyTrace.span`."""

    __slots__ = ("trace", "category", "start")

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        trace, start = self.trace, self.start
        duration = trace.sim.now - start
        trace.segments[self.category] += duration
        if trace._tracer is not None:
            trace._emit_phase(self.category, start, duration)


class _NullSpan:
    """The block of a :class:`NullTrace` span: records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTrace:
    """A trace that records nothing (for untraced requests)."""

    def span(self, category: str) -> _NullSpan:
        return _NULL_SPAN

    def add(self, category: str, duration: int) -> None:
        pass

    def finish(self) -> None:
        pass


NULL_TRACE = NullTrace()


def current_trace(sim) -> Union[LatencyTrace, NullTrace]:
    """The running process's request trace, or :data:`NULL_TRACE` when
    it has none (or no process is running)."""
    process = sim.active_process
    if process is None or process.request_trace is None:
        return NULL_TRACE
    return process.request_trace


@contextmanager
def traced_op(sim, op: str = "request", **args) -> Iterator[LatencyTrace]:
    """Run the block as one operation with a fresh, bound
    :class:`LatencyTrace` as the running process's request trace; the
    previous one is restored on exit, so work the process does after
    the operation is not billed to it."""
    process = sim.active_process
    if process is None:
        raise SimulationError("traced_op() needs a running process")
    previous = process.request_trace
    process.request_trace = trace = LatencyTrace(sim).bind(op, **args)
    try:
        yield trace
    finally:
        process.request_trace = previous
