"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted resource (e.g. a CPU core pool slot or a
  DMA channel): processes ``yield resource.request()`` and later call
  ``resource.release(req)``; requests are granted strictly FIFO.  An
  uncontended request is granted inside ``request()`` and the yielding
  process continues within the same step, with no trip through the
  event queue.
* :class:`Lanes` — ``capacity`` interchangeable lanes (CPU cores, one
  direction of a wire or a link) held without a request object: a busy
  count plus a FIFO of parked holders.  Taking a free lane is an
  increment, so the hot path creates no event at all.
* :class:`Store` — an unbounded-or-bounded FIFO channel of items, the
  basic building block for queues between hardware blocks.  A put into
  a store with room is accepted inside ``put()``, the same way.
* :class:`Signal` — a reusable wake-up: processes park on ``wait()``
  until the next ``notify()``, which schedules nothing when none is
  parked.
* :class:`WaiterTable` — bounded admission plus one completion waiter
  per outstanding command id, for a device queue's submitter side.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event
from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager so that ``with resource.request() as req:
    yield req`` releases on exit even if the process body raises.

    A processed request has been granted, so a process yielding one
    continues inline rather than waiting for a fresh tick.  ``_held``
    is True from the grant until the release.
    """

    __slots__ = ("resource", "_held")

    _inline = True

    def __init__(self, resource: "Resource", granted: bool = False):
        sim = resource.sim
        self.sim = sim
        self.eid = sim._next_event_id()
        # Constructed flat (see repro.sim.events).  A request granted
        # inside Resource.request() is born processed: nothing can ever
        # wait on it, so it gets no callbacks list.
        if granted:
            self.callbacks = None
            self._value = None
        else:
            self.callbacks = []
            self._value = _PENDING
        self._exception = None
        self.resource = resource
        self._held = granted

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Put(Event):
    """A pending :meth:`Store.put`.

    A processed put has been accepted, so a process yielding one
    continues inline rather than waiting for a fresh tick.
    """

    __slots__ = ()

    _inline = True


class Resource:
    """A counted, FIFO-fair resource with ``capacity`` concurrent users.

    It counts its grants rather than keeping the granted requests: a
    request knows whether it is held, and the waiting ones queue FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._granted = 0
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return self._granted

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim the resource; the returned event triggers when granted.

        A free resource with no waiters grants on the spot: the request
        comes back already triggered and processed, so yielding it
        costs no queue round trip.  Contended requests queue FIFO and
        are triggered by :meth:`release`.
        """
        if self._granted < self.capacity and not self._waiting:
            self._granted += 1
            return Request(self, True)
        req = Request(self)
        self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Release a previously granted (or still-waiting) request.

        A held request's slot goes straight to the oldest waiter, if
        any: waiters exist only while every slot is held.
        """
        if req._held and req.resource is self:
            req._held = False
            if self._waiting:
                nxt = self._waiting.popleft()
                nxt._held = True
                nxt.succeed()
            else:
                self._granted -= 1
        else:
            try:
                self._waiting.remove(req)
            except ValueError:
                raise SimulationError("release() of a request not held or queued")


class Lanes:
    """``capacity`` interchangeable lanes, each held by one holder.

    A ``busy`` count plus a FIFO of parked holders.  A holder takes a
    free lane itself (``if lanes.busy < lanes.capacity: lanes.busy +=
    1``), which schedules nothing; with every lane held it runs
    ``yield from lanes.wait()`` (or yields :meth:`park`).
    :meth:`release` hands the lane to the oldest parked holder with one
    ``succeed()`` — it resumes on the releasing tick, after the events
    already queued for it — or, with nobody parked, decrements the
    count; a holder may do the latter itself when ``parked`` is empty.
    Holders park only while every lane is busy, so a free lane never
    has a holder parked on it.
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
        else:
            self.busy -= 1


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

    At most ``capacity`` commands hold a slot at once.  :meth:`admit`
    into a free slot neither yields nor schedules; with every slot held
    the submitter parks, and the slot a :meth:`forget` frees goes
    straight to the first parked submitter (FIFO).  The first
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
        self.capacity = capacity
        self.waiters: dict[int, Event] = {}
        self.stale_completions = 0
        self._admitted = 0
        self._gates: Deque[Event] = deque()
        self._on_drain = on_drain

    def admit(self):
        """Process: take a slot, waiting while all are held."""
        if self._admitted < self.capacity:
            self._admitted += 1
        else:   # the forget that frees a slot hands it to this gate
            self._gates.append(gate := self.sim.event())
            yield gate

    def expect(self, key: int) -> Event:
        """The event the completion of admitted command ``key`` triggers."""
        waiter = self.waiters[key] = self.sim.event()
        return waiter

    def forget(self, key: int) -> Optional[Event]:
        """Drop ``key``'s waiter, if still there, and free its slot (or
        hand it to the first parked submitter); returns the waiter."""
        waiter = self.waiters.pop(key, None)
        if waiter is not None:
            if self._gates:
                self._gates.popleft().succeed()
            else:
                self._admitted -= 1
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
