"""Structured simulation tracing: typed spans and instants with causality.

One :class:`Tracer` rides one :class:`~repro.sim.kernel.Simulator` and
records :class:`TraceEvent` objects on the *simulated* clock (integer
nanoseconds).  Tracing is **off by default and zero-overhead when off**:
``Simulator.tracer`` is ``None`` unless a :class:`TraceSession` is
installed (:mod:`repro.sim.session`), and every instrumentation site
guards with a single ``is not None`` check.

Event types are a closed, documented set (:mod:`repro.trace.events` and
``docs/tracing.md``); emitting an unregistered type raises
:class:`~repro.errors.TraceError`.  Causality is explicit: a span or
instant may name a ``parent`` (another span/event), which both exporters
record as ``parent_id``.

Determinism: event ids are per-tracer counters, timestamps are simulated
time, and no wall-clock or ``id()`` values are recorded — two runs of
the same seeded simulation produce byte-identical JSONL exports (see
``tests/test_trace_determinism.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Union

from repro.errors import TraceError
from repro.sim.session import Session
from repro.trace.events import EVENT_TYPES


class TraceEvent:
    """One recorded event.

    ``duration`` is ``None`` for instants; spans record the closed
    interval ``[start, start + duration]`` in simulated ns.
    """

    __slots__ = ("id", "parent_id", "type", "name", "track", "start",
                 "duration", "args")

    def __init__(self, event_id: int, event_type: str, track: str,
                 start: int, duration: Optional[int] = None,
                 name: Optional[str] = None,
                 parent_id: Optional[int] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.id = event_id
        self.parent_id = parent_id
        self.type = event_type
        self.name = name if name is not None else event_type
        self.track = track
        self.start = start
        self.duration = duration
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = "instant" if self.duration is None else f"dur={self.duration}"
        return (f"TraceEvent(#{self.id} {self.type} {self.name!r} "
                f"@{self.start} {dur})")


ParentLike = Union["Span", TraceEvent, int, None]

_new = object.__new__


def _unregistered(event_type: str) -> None:
    raise TraceError(
        f"event type {event_type!r} is not in the documented "
        "taxonomy (repro/trace/events.py); register and document "
        "it before emitting")


class Span(TraceEvent):
    """An open span: the event itself, recorded by :meth:`end`.

    Built flat by :meth:`Tracer.begin`.  ``duration`` stays ``None``
    while the span is open; :meth:`end` sets it and appends the span to
    its tracer's events, so closing a span creates no object.
    """

    __slots__ = ("_tracer",)

    def end(self, **extra_args: Any) -> Optional[TraceEvent]:
        """Close the span at the current simulated time."""
        if self.duration is not None:
            return None
        tracer = self._tracer
        self.duration = tracer.sim.now - self.start
        if extra_args:
            self.args.update(extra_args)
        del tracer._open[self.id]
        tracer.events.append(self)
        return self


class Tracer:
    """Collects events for one simulator (one ``pid`` in Chrome terms)."""

    def __init__(self, sim, label: str = "sim"):
        self.sim = sim
        self.label = label
        self.events: List[TraceEvent] = []
        self._next_id = 1
        self._open: Dict[int, Span] = {}

    # -- emission ---------------------------------------------------------
    # Each emitter checks the type, takes the next id and resolves the
    # parent inline: they run once per event, and a helper call for
    # each step would cost a frame per event.

    def begin(self, event_type: str, track: str, name: Optional[str] = None,
              parent: ParentLike = None, **args: Any) -> Span:
        """Open a span at the current simulated time.

        The span is built flat, in this one frame.
        """
        if event_type not in EVENT_TYPES:
            _unregistered(event_type)
        span_id = self._next_id
        self._next_id = span_id + 1
        span = _new(Span)
        span._tracer = self
        span.id = span_id
        span.parent_id = (parent if parent is None or isinstance(parent, int)
                          else parent.id)
        span.type = event_type
        span.name = event_type if name is None else name
        span.track = track
        span.start = self.sim.now
        span.duration = None
        span.args = args
        self._open[span_id] = span
        return span

    @contextmanager
    def span(self, event_type: str, track: str, name: Optional[str] = None,
             parent: ParentLike = None, **args: Any):
        """Span context manager; safe around ``yield``-ing simulation code
        (only the simulated clock is sampled)."""
        handle = self.begin(event_type, track, name=name, parent=parent,
                            **args)
        try:
            yield handle
        finally:
            handle.end()

    def instant(self, event_type: str, track: str,
                name: Optional[str] = None, parent: ParentLike = None,
                **args: Any) -> TraceEvent:
        """Record a zero-duration event at the current simulated time."""
        if event_type not in EVENT_TYPES:
            _unregistered(event_type)
        event_id = self._next_id
        self._next_id = event_id + 1
        event = TraceEvent(
            event_id, event_type, track, self.sim.now, None, name,
            parent if parent is None or isinstance(parent, int)
            else parent.id, args)
        self.events.append(event)
        return event

    def complete(self, event_type: str, track: str, start: int,
                 duration: int, name: Optional[str] = None,
                 parent: ParentLike = None, **args: Any) -> TraceEvent:
        """Record an already-finished span (after-the-fact attribution,
        e.g. the engine's per-stage profile)."""
        if duration < 0:
            raise TraceError(f"negative span duration: {duration}")
        if event_type not in EVENT_TYPES:
            _unregistered(event_type)
        event_id = self._next_id
        self._next_id = event_id + 1
        event = TraceEvent(
            event_id, event_type, track, start, duration, name,
            parent if parent is None or isinstance(parent, int)
            else parent.id, args)
        self.events.append(event)
        return event

    # -- lifecycle --------------------------------------------------------

    def finalize(self) -> None:
        """Close any still-open spans (device loops run forever); they are
        marked ``unterminated`` so consumers can tell."""
        for span in list(self._open.values()):
            span.end(unterminated=True)

    def sorted_events(self) -> List[TraceEvent]:
        """Events in (start, id) order — the canonical export order."""
        return sorted(self.events, key=lambda e: (e.start, e.id))


class TraceSession(Session):
    """Hands a fresh :class:`Tracer` to every simulator built while
    installed (see :mod:`repro.sim.session`)::

        with TraceSession() as session:
            with section("fig11"):
                run_fig11()
        write_chrome("out.json", session)
    """

    plane = "tracer"
    error = TraceError

    @property
    def tracers(self) -> List[Tracer]:
        return self.products

    def make(self, sim, label: str) -> Tracer:
        return Tracer(sim, label=label)

    def all_events(self) -> List[TraceEvent]:
        return [event for tracer in self.tracers for event in tracer.events]
