"""Shared-resource primitives built on the event kernel.

* :class:`Lanes` — ``capacity`` interchangeable lanes, held FIFO: every
  counted hold in the model (CPU cores, one direction of a wire or a
  link, SSD flash channels, GPU engines, NDP pipelines, a connection's
  send order, a device queue's slots).  A busy count plus a FIFO of
  parked holders; taking a free lane is an increment, so an
  uncontended hold creates no event at all.
* :class:`Store` — an unbounded-or-bounded FIFO channel of items, the
  basic building block for queues between hardware blocks.  A put into
  a store with room is accepted inside ``put()``, and the putting
  process continues within the same step, with no trip through the
  event queue.
* :class:`Signal` — a reusable wake-up: processes park on ``wait()``
  until the next ``notify()``, which schedules nothing when none is
  parked.
* :class:`WaiterTable` — bounded admission (a :class:`Lanes`) plus one
  completion waiter per outstanding command id, for a device queue's
  submitter side.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator


class Put(Event):
    """A pending :meth:`Store.put`.

    A processed put has been accepted, so a process yielding one
    continues inline rather than waiting for a fresh tick.
    """

    __slots__ = ()

    _inline = True


class Lanes:
    """``capacity`` interchangeable lanes, each held by one holder.

    A ``busy`` count plus a FIFO of parked holders.  A holder runs
    ``yield from lanes.acquire()`` and later calls :meth:`release`,
    usually from a ``finally``.  A free lane is taken with an
    increment, which schedules nothing; with every lane held the holder
    parks (:meth:`wait`).  A hot path may inline the increment itself
    (``if lanes.busy < lanes.capacity: lanes.busy += 1``, else ``yield
    from lanes.wait()``).  :meth:`release` hands the lane to the oldest
    parked holder with one ``succeed()`` — it resumes on the releasing
    tick, after the events already queued for it — or, with nobody
    parked, decrements the count; a holder may do the latter itself
    when ``parked`` is empty.  Holders park only while every lane is
    busy, so a free lane never has a holder parked on it.
    """

    __slots__ = ("sim", "capacity", "busy", "parked")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.busy = 0
        self.parked: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Lanes held."""
        return self.busy

    @property
    def queue_length(self) -> int:
        """Holders parked waiting for a lane."""
        return len(self.parked)

    def acquire(self):
        """Process: take a free lane, or park until one is handed over."""
        if self.busy < self.capacity:
            self.busy += 1
        else:
            yield from self.wait()

    def park(self) -> Event:
        """The event that fires when a lane is handed over."""
        gate = Event(self.sim)
        self.parked.append(gate)
        return gate

    def wait(self):
        """Process: park until a lane is handed over.

        A holder interrupted while parked (an exception thrown into it,
        or ``close()``) leaves the queue, or passes on the lane it was
        handed before it could resume.
        """
        gate = self.park()
        try:
            yield gate
        except BaseException:
            if gate.triggered:
                self.release()
            else:
                self.parked.remove(gate)
            raise

    def release(self) -> None:
        """Hand a lane to the oldest parked holder, or free it."""
        if self.parked:
            self.parked.popleft().succeed()
        elif self.busy:
            self.busy -= 1
        else:
            raise SimulationError("release() with no lane held")


class Store:
    """A FIFO channel of items between processes.

    ``put(item)`` returns an event that triggers once the item is
    accepted; ``get()`` returns an event that triggers with the oldest
    item once one is available.  A store with room accepts inside
    ``put()``: the :class:`Put` comes back already processed and costs
    no queue round trip, yielded or not.  Putters into a full store
    park FIFO and are admitted by ``get()`` through the heap.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Put, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True if a put() right now would have to wait."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Put:
        """Offer an item; the event triggers once the store accepts it."""
        event = Put(self.sim)
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            self._putters.append((event, item))
        else:
            items.append(item)
            event._value = None
            event.callbacks = None
            if self._getters:
                self._wake_getters()
        return event

    def get(self) -> Event:
        """Take the oldest item; the event triggers with that item."""
        event = Event(self.sim)
        self._getters.append(event)
        if self._items:
            self._wake_getters()
        return event

    def _wake_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())
            # A slot opened: admit a blocked putter, if any.
            while self._putters and not self.is_full:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed()


class Signal:
    """A reusable wake-up for processes waiting on some condition.

    ``yield signal.wait()`` parks the caller until the next
    :meth:`notify`, which resumes every parked process in the order
    they parked, on the notifying tick.  A notify with no process
    parked schedules nothing: the event behind ``wait()`` exists only
    while somebody waits on it.
    """

    __slots__ = ("sim", "_event")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        """The event the next :meth:`notify` triggers."""
        event = self._event
        if event is None:
            event = self._event = Event(self.sim)
        return event

    def notify(self) -> None:
        """Wake every process parked on :meth:`wait`, if any."""
        event = self._event
        if event is not None:
            self._event = None
            event.succeed()


class WaiterTable:
    """Bounded admission plus one waiter per outstanding command id.

    At most ``capacity`` commands hold a slot at once: the slots are a
    :class:`Lanes`, so :meth:`admit` into a free slot neither yields
    nor schedules, and with every slot held the submitter parks until a
    :meth:`forget` hands it the freed slot (FIFO).  The first
    :meth:`forget` of an id — its completion, or its expired deadline —
    frees its slot; any later one frees nothing, and a completion
    delivered for an id already forgotten counts in
    :attr:`stale_completions`.

    ``on_drain()``, if given, runs whenever a forget leaves no waiter
    (a poller's cue to stop polling).
    """

    def __init__(self, sim: Simulator, capacity: int,
                 on_drain: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.waiters: dict[int, Event] = {}
        self.stale_completions = 0
        self._slots = Lanes(sim, capacity)
        self._on_drain = on_drain

    def admit(self):
        """Process: take a slot, waiting while all are held."""
        return self._slots.acquire()

    def expect(self, key: int) -> Event:
        """The event the completion of admitted command ``key`` triggers."""
        waiter = self.waiters[key] = self.sim.event()
        return waiter

    def forget(self, key: int) -> Optional[Event]:
        """Drop ``key``'s waiter, if still there, and free its slot (or
        hand it to the first parked submitter); returns the waiter."""
        waiter = self.waiters.pop(key, None)
        if waiter is not None:
            self._slots.release()
            if not self.waiters and self._on_drain is not None:
                self._on_drain()
        return waiter

    def deliver(self, key: int, value: Any) -> None:
        """Complete command ``key`` with ``value`` — or, if it was
        already forgotten or its deadline expired, count a stale
        completion."""
        waiter = self.forget(key)
        if waiter is None or waiter.triggered:
            self.stale_completions += 1
        else:
            waiter.succeed(value)
