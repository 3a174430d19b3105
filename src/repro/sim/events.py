"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it.  Events move through three stages:

* *pending* — created, not yet triggered;
* *triggered* — given a value (or an exception) and placed on the event
  queue;
* *processed* — the kernel has run its callbacks and resumed any waiting
  processes.

Composites :class:`AllOf` / :class:`AnyOf` wait on several events at once.

Every event class declares ``__slots__``: one event is created per
scheduled occurrence, so an instance ``__dict__`` would be pure overhead.

Flat construction: the kinds built most often set :class:`Event`'s five
slots themselves instead of calling ``super().__init__``, since a
second Python frame per event would cost more than the assignments:
:class:`~repro.sim.kernel.Process` in its own ``__init__``, and
:class:`Timeout` inside :meth:`~repro.sim.kernel.Simulator.timeout`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Simulator

_PENDING = object()


class Event:
    """A one-shot event that processes can wait on.

    Events are created via :meth:`Simulator.event` (or subclasses) and
    triggered with :meth:`succeed` or :meth:`fail`.  A triggered event is
    scheduled on the simulator's queue; its callbacks run when the kernel
    reaches it.
    """

    __slots__ = ("sim", "eid", "callbacks", "_value", "_exception")

    #: True for event types whose processed instances a yielding process
    #: continues past within the same step (see ``Process._resume``).
    _inline = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Per-simulator creation ordinal: a run-stable identity for
        # reprs and debug logs, where id() would differ between
        # otherwise identical runs.
        self.eid = sim._next_event_id()
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been given an outcome."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises the failure exception if it failed."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        sim = self.sim
        heappush(sim._heap, (sim.now, sim._next_sequence(), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = None
        self._exception = exception
        self.sim._enqueue(0, self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} #{self.eid} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay.

    Built only by :meth:`Simulator.timeout`, which sets every slot and
    schedules the timeout in one frame.  It stays pending until the
    kernel reaches it, which then gives it its value.
    """

    __slots__ = ("_scheduled_value",)

    def __init__(self, *args: Any, **kwargs: Any):
        raise TypeError("create timeouts with Simulator.timeout(delay)")


class _Condition(Event):
    """Shared machinery for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
        if not self.triggered and self._check():
            self.succeed(self._collect())

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # propagate the first failure
            return
        if self._check():
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.triggered and e.ok}

    def _check(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* component events have succeeded.

    Its value is a dict mapping each component event to its value.
    """

    __slots__ = ()

    def _check(self) -> bool:
        return all(e.triggered and e.ok for e in self.events)


class AnyOf(_Condition):
    """Triggers when *any* component event has succeeded.

    Its value is a dict of the component events that had already
    succeeded at trigger time.
    """

    __slots__ = ()

    def _check(self) -> bool:
        if not self.events:
            return True
        return any(e.triggered and e.ok for e in self.events)
