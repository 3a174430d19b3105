"""The simulation event loop and generator-based processes.

:class:`Simulator` owns integer simulated time and a binary-heap event
queue.  :class:`Process` wraps a Python generator: the generator yields
:class:`~repro.sim.events.Event` objects to wait on, receives each
event's value back from ``yield``, and its ``return`` value becomes the
process's own event value (a :class:`Process` is itself an event, so
processes can wait on each other).

Determinism: events scheduled for the same tick are processed in exact
scheduling order (a monotonically increasing sequence number breaks heap
ties), so identical inputs always produce identical traces.

Request context: :attr:`Simulator.active_process` names the process
whose generator is running (``None`` between steps and in plain
callbacks).  A process copies :attr:`Process.request_trace` from the
process that spawned it, so a request's latency trace reaches every
process the request forks without being passed as an argument.

Hot path: host time here goes to Python frames more than to events, so
each event, wait and process costs as few frames as it can.
:meth:`Event.succeed` and :meth:`Simulator.timeout` push onto the heap
themselves rather than through :meth:`Simulator._enqueue`, and the
timeout is built flat in that one frame.  :meth:`Simulator.step` runs
the event's callbacks itself.  A process starts from a slotted
``_Bootstrap`` heap entry (it still draws an event id) holding the
process's one bound ``_resume``, and a process started with
:meth:`Simulator.spawn` ends without scheduling an event.  Both
counters (schedule sequence, event ids) are bound
``itertools.count().__next__`` callables.  :meth:`Simulator.run` calls
:meth:`Simulator.step` exactly once per event.

No reference cycle on the hot path: a process drops its cached bound
``_resume`` on every end path, so a finished process and its generator
are freed by reference counting and the cyclic garbage collector has
nothing to do per event.  Testbeds (device loops and the simulator
refer to each other) and failed processes that someone watches (their
exceptions' tracebacks hold the kernel frame) still form cycles.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.sim.session import equip

_new = object.__new__


class _Bootstrap:
    """A process's first heap entry: what the kernel needs of an event
    to resume the process with ``None``, and no more."""

    __slots__ = ("callbacks",)
    _value = None
    _exception = None


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an :class:`Event` that triggers when the
    generator finishes: it succeeds with the generator's return value,
    or fails with any exception the generator let escape.  A process
    started with ``detached=True`` (:meth:`Simulator.spawn`) has no
    waiter, so its end is recorded on the spot and schedules nothing.
    """

    __slots__ = ("_generator", "_span", "request_trace", "_wake",
                 "_detached")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 detached: bool = False):
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?")
        # Event's slots, set flat (see repro.sim.events).
        self.sim = sim
        self.eid = sim._next_event_id()
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._generator = generator
        self._detached = detached
        # The request this process works for, inherited from its
        # spawner (see repro.analysis.breakdown.traced_op).
        spawner = sim.active_process
        self.request_trace = (None if spawner is None
                              else spawner.request_trace)
        tracer = sim.tracer
        if tracer is None:
            self._span = None
        else:
            code = getattr(generator, "gi_code", None)
            self._span = tracer.begin(
                "proc.run", track="processes",
                name=code.co_name if code is not None else "process")
        # The one bound method every event this process waits on calls.
        # It refers back to this process, so every end path drops it:
        # a finished process is then freed by reference counting.
        self._wake = wake = self._resume
        # Bootstrap: resume the generator as soon as the loop starts.
        # The entry still draws an event id, so eids are unchanged.
        bootstrap = _Bootstrap()
        bootstrap.callbacks = [wake]
        sim._next_event_id()
        heappush(sim._heap, (sim.now, sim._next_sequence(), bootstrap))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _fail(self, exception: BaseException) -> None:
        """End the process with ``exception``: dropped on the spot when
        detached and unwatched, else failed through the queue."""
        self._wake = None
        span = self._span
        if span is not None:
            self._span = None
            span.end(failed=True)
        if self._detached and not self.callbacks:
            # Nobody can observe this end.  A raised exception's
            # traceback starts at _resume's frame, which refers back to
            # this process; it is cut there, so the process is still
            # freed by reference counting.
            traceback = exception.__traceback__
            if traceback is not None:
                exception.__traceback__ = traceback.tb_next
            self._value = None
            self._exception = exception
            self.callbacks = None
        else:
            self.fail(exception)

    def _resume(self, event: Event) -> None:
        generator = self._generator
        exception = event._exception
        value = event._value
        sim = self.sim
        outer = sim.active_process
        sim.active_process = self
        try:
            # Continuation loop: a yield the kernel can answer without a
            # trip through the queue (a put a store accepted inline, a
            # non-Event) is fed straight back into the generator.
            while True:
                try:
                    if exception is not None:
                        target = generator.throw(exception)
                    else:
                        target = generator.send(value)
                except StopIteration as stop:
                    self._wake = None
                    span = self._span
                    if span is not None:
                        self._span = None
                        span.end()
                    if self._detached and not self.callbacks:
                        self._value = stop.value
                        self.callbacks = None
                    else:
                        self.succeed(stop.value)
                    return
                except BaseException as exc:
                    self._fail(exc)
                    return
                if not isinstance(target, Event):
                    # Deliver the error into the generator so it can't
                    # silently hang; whatever it yields next is handled
                    # like any other yield.
                    exception = SimulationError(
                        f"process yielded {target!r}; processes may only "
                        "yield Events")
                    continue
                if target.sim is not sim:
                    self._fail(SimulationError(
                        "yielded an event from another simulator"))
                    return
                callbacks = target.callbacks
                if callbacks is not None:
                    callbacks.append(self._wake)
                    return
                if target._inline:
                    # Accepted inside Store.put(): continue this step.
                    exception = target._exception
                    value = target._value
                    continue
                # Already concluded: resume on a fresh tick to preserve
                # ordering.
                relay = Event(sim)
                relay.callbacks.append(self._wake)
                if target._exception is not None:
                    relay.fail(target._exception)
                else:
                    relay.succeed(target._value)
                return
        finally:
            sim.active_process = outer


class Simulator:
    """A deterministic discrete-event simulator.

    The only state is the current time (:attr:`now`, integer ns) and a
    heap of ``(time, sequence, event)`` entries.  All model components
    hold a reference to their simulator and create events through it.
    """

    def __init__(self):
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        # Heap tie-break for same-tick events (0, 1, 2, ...) and the
        # creation ordinal behind Event.eid (1, 2, 3, ...).
        self._next_sequence = count().__next__
        self._next_event_id = count(1).__next__
        self._active: bool = False
        # The Process whose generator is running, else None.
        self.active_process: Optional[Process] = None
        # None unless a repro.faults.FaultPlan is installed; every
        # injection site guards with one `is not None` check, so the
        # fault-free hot path pays a single branch.
        self.faults = None
        # self.tracer and self.metrics: None unless a TraceSession /
        # MetricsSession is installed (repro.sim.session), guarded the
        # same way.  Metrics sampling is driven from step() (see below)
        # rather than by scheduled events, so the metrics plane can
        # never perturb event order or keep a drain-mode run() alive;
        # step() calls MetricSet.advance() only on the step that
        # reaches the set's next sampling boundary.
        equip(self)

    # -- event construction ---------------------------------------------

    def event(self) -> Event:
        """Create a pending event that some model will trigger later."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Built flat, in this one frame: Event's slots plus the value
        # the timeout fires with (see "Hot path" above).
        timeout = _new(Timeout)
        timeout.sim = self
        timeout.eid = self._next_event_id()
        timeout.callbacks = []
        timeout._value = _PENDING
        timeout._exception = None
        timeout._scheduled_value = value
        heappush(self._heap, (self.now + delay, self._next_sequence(), timeout))
        return timeout

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator and return it."""
        return Process(self, generator)

    def spawn(self, generator: Generator[Event, Any, Any]) -> None:
        """Start a process that nobody waits on.

        It runs exactly as :meth:`process` would, but its end schedules
        no event: its return value is dropped and an exception it lets
        escape ends it quietly, as an unobserved process's does.
        """
        Process(self, generator, detached=True)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that triggers once every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that triggers once any event in ``events`` has."""
        return AnyOf(self, events)

    # -- queue ----------------------------------------------------------

    def _enqueue(self, delay: int, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heappush(self._heap, (self.now + delay, self._next_sequence(), event))

    def peek(self) -> Optional[int]:
        """Time of the next queued event, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process exactly one event (advancing time to it)."""
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heappop(heap)
        if when < self.now:
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = when
        metrics = self.metrics
        if metrics is not None and when >= metrics._next_sample:
            metrics.advance(when)
        if type(event) is Timeout:
            # A timeout only counts as triggered once it fires.
            event._value = event._scheduled_value
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    # -- run loops --------------------------------------------------------

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the event queue drains.
        * ``until=<int>`` — run until simulated time reaches that tick.
        * ``until=<Event>`` — run until that event has been processed and
          return its value (raising if it failed).
        """
        if self._active:
            raise SimulationError("run() is not reentrant")
        self._active = True
        heap = self._heap
        step = self.step
        try:
            if until is None:
                while heap:
                    step()
                return None
            if isinstance(until, Event):
                while until.callbacks is not None:
                    if not heap:
                        raise SimulationError(
                            "simulation deadlocked: queue drained before the "
                            "awaited event triggered")
                    step()
                return until.value
            if isinstance(until, int):
                if until < self.now:
                    raise SimulationError(
                        f"cannot run until {until}: already at {self.now}")
                while heap and heap[0][0] <= until:
                    step()
                self.now = until
                return None
            raise SimulationError(f"bad 'until' argument: {until!r}")
        finally:
            self._active = False
