"""A set-of-users FIFO hold, kept independent of :class:`repro.sim.Lanes`.

The oracle the counted holds are checked against: a free resource with
no waiters grants inside ``request()`` (the grant comes back already
processed and the yielding process continues within the same step),
otherwise the request queues FIFO; ``release`` of a held request grants
the next waiter(s), ``release`` of a waiting one cancels it, and
anything else raises.
"""

from collections import deque

from repro.errors import SimulationError
from repro.sim.events import Event


class Grant(Event):
    """A claim on a :class:`SetResource`; processed once granted."""

    __slots__ = ()

    # A granted claim is born processed: the kernel continues the
    # yielding process inline, as it does for an accepted Store.put.
    _inline = True

    def __init__(self, sim, granted=False):
        super().__init__(sim)
        if granted:
            self._value = None
            self.callbacks = None


class SetResource:
    """``capacity`` holders at once, granted FIFO."""

    def __init__(self, sim, capacity=1):
        self.sim = sim
        self.capacity = capacity
        self._users = set()
        self._waiting = deque()

    @property
    def count(self):
        return len(self._users)

    @property
    def queue_length(self):
        return len(self._waiting)

    def request(self):
        if len(self._users) < self.capacity and not self._waiting:
            req = Grant(self.sim, granted=True)
            self._users.add(req)
        else:
            req = Grant(self.sim)
            self._waiting.append(req)
        return req

    def release(self, req):
        if req in self._users:
            self._users.remove(req)
            while self._waiting and len(self._users) < self.capacity:
                nxt = self._waiting.popleft()
                self._users.add(nxt)
                nxt.succeed()
        else:
            try:
                self._waiting.remove(req)
            except ValueError:
                raise SimulationError(
                    "release() of a request not held or queued")

