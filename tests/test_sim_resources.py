"""Unit and property tests for Lanes / Store / Signal / WaiterTable."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Lanes, Signal, Simulator, Store, WaiterTable

from tests.fifo_oracle import SetResource


@pytest.fixture
def sim():
    return Simulator()


def _hold(lanes, sim, ticks):
    """Process: take a lane, keep it ``ticks``, give it back."""
    yield from lanes.acquire()
    try:
        yield sim.timeout(ticks)
    finally:
        lanes.release()


class TestResource:
    """:class:`Lanes` as a counted FIFO hold: ``yield from
    lanes.acquire()``, then ``lanes.release()``."""

    def test_grant_immediately_when_free(self, sim):
        lanes = Lanes(sim, 1)

        def body(sim, lanes):
            yield from lanes.acquire()
            lanes.release()
            return sim.now

        proc = sim.process(body(sim, lanes))
        sim.run()
        assert proc.value == 0

    def test_mutual_exclusion(self, sim):
        lanes = Lanes(sim, 1)
        active = []
        max_active = []

        def body(sim, lanes):
            yield from lanes.acquire()
            try:
                active.append(1)
                max_active.append(len(active))
                yield sim.timeout(10)
                active.pop()
            finally:
                lanes.release()

        for _ in range(5):
            sim.process(body(sim, lanes))
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 50

    def test_capacity_allows_parallelism(self, sim):
        lanes = Lanes(sim, 3)
        for _ in range(6):
            sim.process(_hold(lanes, sim, 10))
        sim.run()
        assert sim.now == 20  # two waves of three

    def test_fifo_grant_order(self, sim):
        lanes = Lanes(sim, 1)
        order = []

        def body(sim, lanes, name):
            yield from lanes.acquire()
            try:
                order.append(name)
                yield sim.timeout(1)
            finally:
                lanes.release()

        for name in "abcd":
            sim.process(body(sim, lanes, name))
        sim.run()
        assert order == list("abcd")

    def test_release_unheld_raises(self, sim):
        lanes = Lanes(sim, 2)
        with pytest.raises(SimulationError):
            lanes.release()
        next(lanes.acquire(), None)
        lanes.release()
        with pytest.raises(SimulationError):
            lanes.release()
        assert lanes.count == 0

    def test_cancel_waiting_request(self, sim):
        """Closing an acquire parked behind the held lane takes it out
        of the queue; the holder's release then frees the lane."""
        lanes = Lanes(sim, 1)
        assert next(lanes.acquire(), None) is None      # held
        waiting = lanes.acquire()
        gate = next(waiting)                             # parked
        waiting.close()
        assert not gate.triggered
        lanes.release()
        assert lanes.count == 0
        assert lanes.queue_length == 0

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Lanes(sim, 0)

    def test_count_and_queue_length(self, sim):
        lanes = Lanes(sim, 2)
        holders = [lanes.acquire() for _ in range(3)]
        gates = [next(holder, None) for holder in holders]
        assert gates[:2] == [None, None] and gates[2] is not None
        assert lanes.count == 2
        assert lanes.queue_length == 1
        lanes.release()
        assert lanes.count == 2  # the third holder was handed the lane
        assert lanes.queue_length == 0
        assert gates[2].triggered
        assert next(holders[2], None) is None   # resumes holding
        lanes.release()
        lanes.release()
        assert lanes.count == 0


class TestInlineGrant:
    """An uncontended acquire takes the lane inside ``acquire()`` and
    the holder continues within the same step; contended holders are
    handed lanes through the event queue in FIFO order."""

    def test_uncontended_acquire_finishes_without_yielding(self, sim):
        lanes = Lanes(sim, 1)
        first_eid = sim.event().eid
        assert next(lanes.acquire(), None) is None
        assert lanes.count == 1
        assert sim.peek() is None  # nothing queued for the grant
        assert sim.event().eid == first_eid + 1   # no event created
        queued = lanes.acquire()
        gate = next(queued)
        assert not gate.triggered
        lanes.release()
        assert gate.triggered and not gate.processed
        assert next(queued, None) is None
        assert (lanes.count, lanes.queue_length) == (1, 0)

    def test_yielding_process_continues_before_same_tick_events(self, sim):
        lanes = Lanes(sim, 1)
        log = []

        def body():
            sim.timeout(0).callbacks.append(lambda _: log.append("tick"))
            yield from lanes.acquire()
            log.append("granted")
            lanes.release()

        sim.run(until=sim.process(body()))
        assert log == ["granted", "tick"]

    def test_contended_grants_keep_fifo_and_same_tick_order(self, sim):
        lanes = Lanes(sim, 1)
        log = []

        def holder():
            yield from lanes.acquire()
            log.append((sim.now, "holder got"))
            yield sim.timeout(10)
            lanes.release()
            log.append((sim.now, "holder released"))

        def waiter(name):
            yield from lanes.acquire()
            try:
                log.append((sim.now, f"{name} got"))
                yield sim.timeout(5)
            finally:
                lanes.release()

        def observer():
            yield sim.timeout(10)
            log.append((sim.now, "observer"))

        sim.process(holder())
        sim.process(waiter("a"))
        sim.process(observer())
        sim.process(waiter("b"))
        sim.run()
        # The release at t=10 queues a's hand-over behind the observer's
        # already-queued timeout: contended grants take the queue.
        assert log == [
            (0, "holder got"),
            (10, "holder released"),
            (10, "observer"),
            (10, "a got"),
            (15, "b got"),
        ]


class TestSignal:
    """``notify()`` resumes parked waiters through the queue, exactly
    like triggering a shared event, and schedules nothing when no
    process waits."""

    def test_notify_without_waiter_schedules_nothing(self, sim):
        signal = Signal(sim)
        signal.notify()
        assert sim.peek() is None
        steps = []
        step = sim.step
        sim.step = lambda: steps.append(sim.peek()) or step()
        sim.timeout(5)
        signal.notify()
        signal.notify()
        sim.run()
        assert steps == [5]

    def test_waiters_resume_in_parking_order_after_queued_events(self, sim):
        signal = Signal(sim)
        log = []

        def waiter(name):
            yield signal.wait()
            log.append((sim.now, name))

        def notifier():
            yield sim.timeout(10)
            sim.timeout(0).callbacks.append(
                lambda _: log.append((sim.now, "queued first")))
            signal.notify()
            log.append((sim.now, "notified"))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.process(notifier())
        sim.run()
        assert log == [(10, "notified"), (10, "queued first"), (10, "a"),
                       (10, "b")]

    def test_matches_swap_and_succeed_order(self, sim):
        """The same scenario on a swapped-and-succeeded event."""

        def scenario(sim, wait, notify):
            log = []

            def waiter(name):
                for _ in range(2):
                    yield wait()
                    log.append((sim.now, name))

            def notifier():
                for delay in (3, 0, 4):
                    yield sim.timeout(delay)
                    sim.timeout(0).callbacks.append(
                        lambda _: log.append((sim.now, "tick")))
                    notify()

            sim.process(waiter("a"))
            sim.process(notifier())
            sim.process(waiter("b"))
            sim.run()
            return log

        signal = Signal(sim)
        other = Simulator()
        state = {"event": other.event()}

        def swap_and_succeed():
            wake, state["event"] = state["event"], other.event()
            wake.succeed()

        assert (scenario(sim, signal.wait, signal.notify)
                == scenario(other, lambda: state["event"], swap_and_succeed))

    def test_wait_after_notify_needs_a_new_notify(self, sim):
        signal = Signal(sim)
        first = signal.wait()
        signal.notify()
        second = signal.wait()
        assert first.triggered and not second.triggered
        assert signal.wait() is second


class TestInlinePut:
    """A put into a store with room is accepted inside ``put()``; a full
    store parks putters FIFO and admits them on ``get()``."""

    def test_put_with_room_is_processed_on_return(self, sim):
        store = Store(sim, capacity=2)
        put = store.put("a")
        assert put.triggered and put.processed and put.ok
        assert put.value is None
        assert len(store) == 1
        assert sim.peek() is None  # nothing queued for the acceptance

    def test_putter_continues_before_same_tick_events(self, sim):
        store = Store(sim)
        log = []

        def body():
            sim.timeout(0).callbacks.append(lambda _: log.append("tick"))
            yield store.put("x")
            log.append("accepted")

        sim.run(until=sim.process(body()))
        assert log == ["accepted", "tick"]

    def test_full_store_parks_putters_fifo_and_get_admits_them(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def putter(name):
            yield store.put(name)
            log.append((sim.now, f"{name} in"))

        def getter():
            yield sim.timeout(10)
            for _ in range(3):
                item = yield store.get()
                log.append((sim.now, f"got {item}"))
                yield sim.timeout(5)

        for name in ("a", "b", "c"):
            sim.process(putter(name))
        sim.process(getter())
        sim.run()
        # "a" fits inline; "b" and "c" wait and enter in order, each
        # through the queue when a get frees the slot.
        assert log == [
            (0, "a in"),
            (10, "got a"), (10, "b in"),
            (15, "got b"), (15, "c in"),
            (20, "got c"),
        ]
        parked = store.put("d")
        blocked = store.put("e")
        assert parked.processed and not blocked.triggered
        store.get()
        assert blocked.triggered and not blocked.processed


    def test_conditions_and_run_until_accept_an_accepted_put(self, sim):
        store = Store(sim)
        first, second = store.put("a"), store.put("b")
        assert sim.run(until=first) is None

        def body():
            wait = sim.timeout(3, "t")
            both = yield sim.all_of([first, wait])
            either = yield sim.any_of([second, sim.timeout(7)])
            return both == {first: None, wait: "t"}, either, sim.now

        both_ok, either, now = sim.run(until=sim.process(body()))
        assert both_ok
        assert either == {second: None}
        assert now == 3


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return item

        store.put("hello")
        proc = sim.process(consumer(sim, store))
        sim.run()
        assert proc.value == "hello"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return (item, sim.now)

        def producer(sim, store):
            yield sim.timeout(40)
            yield store.put("late")

        proc = sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert proc.value == ("late", 40)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim, store):
            for _ in range(4):
                item = yield store.get()
                got.append(item)

        for i in range(4):
            store.put(i)
        sim.process(consumer(sim, store))
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        timeline = []

        def producer(sim, store):
            yield store.put("a")
            timeline.append(("a-in", sim.now))
            yield store.put("b")
            timeline.append(("b-in", sim.now))

        def consumer(sim, store):
            yield sim.timeout(100)
            yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert timeline == [("a-in", 0), ("b-in", 100)]

    def test_len_reflects_contents(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)


class TestStoreProperties:
    @settings(max_examples=50, deadline=None)
    @given(items=st.lists(st.integers(), min_size=1, max_size=40),
           capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    def test_store_delivers_everything_in_order(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        received = []

        def producer(sim, store):
            for item in items:
                yield store.put(item)
                yield sim.timeout(1)

        def consumer(sim, store):
            for _ in items:
                got = yield store.get()
                received.append(got)
                yield sim.timeout(2)

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert received == items

    @settings(max_examples=50, deadline=None)
    @given(durations=st.lists(st.integers(min_value=1, max_value=50),
                              min_size=1, max_size=20),
           capacity=st.integers(min_value=1, max_value=4))
    def test_resource_never_oversubscribed(self, durations, capacity):
        sim = Simulator()
        lanes = Lanes(sim, capacity)
        active = [0]
        peak = [0]

        def body(sim, lanes, dur):
            yield from lanes.acquire()
            try:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                yield sim.timeout(dur)
                active[0] -= 1
            finally:
                lanes.release()

        for dur in durations:
            sim.process(body(sim, lanes, dur))
        sim.run()
        assert peak[0] <= capacity
        assert active[0] == 0
        assert (lanes.count, lanes.queue_length) == (0, 0)


class TestWaiterTable:
    def setup_method(self):
        self.admissions = []

    def _admit(self, table):
        """Run ``table.admit()`` to its first yield: None if it admitted
        at once, else the gate it parked on.  The admission is kept: one
        dropped while parked would leave the queue."""
        self.admissions.append(admission := table.admit())
        return next(admission, None)

    def test_free_slot_admits_without_a_yield_or_an_event(self, sim):
        table = WaiterTable(sim, capacity=2)
        first_eid = sim.event().eid
        assert self._admit(table) is None
        assert sim.event().eid == first_eid + 1   # no event created

    def test_freed_slot_goes_fifo_to_the_first_parked_submitter(self, sim):
        table = WaiterTable(sim, capacity=1)
        assert self._admit(table) is None
        table.expect(1)
        gates = [self._admit(table), self._admit(table)]
        assert table.forget(1) is not None
        assert gates[0].triggered and not gates[1].triggered
        # The slot was handed over, not freed: a newcomer still parks.
        assert self._admit(table) is not None

    def test_forget_frees_a_slot_once_and_a_late_completion_is_stale(
            self, sim):
        drained = []
        table = WaiterTable(sim, capacity=1,
                            on_drain=lambda: drained.append(True))
        assert self._admit(table) is None
        waiter = table.expect(7)
        assert table.forget(7) is waiter
        assert table.forget(7) is None
        assert drained == [True]
        assert self._admit(table) is None   # the one slot is free again
        assert self._admit(table) is not None
        table.deliver(7, "late")
        assert table.stale_completions == 1
        assert not waiter.triggered

    def test_deliver_succeeds_the_waiter_with_the_value(self, sim):
        table = WaiterTable(sim, capacity=1)
        assert self._admit(table) is None
        waiter = table.expect(3)
        table.deliver(3, ("cqe", 42))
        assert waiter.triggered and waiter.value == ("cqe", 42)
        assert table.stale_completions == 0 and not table.waiters


# One actor: arrival tick, hold ticks, and patience -- None waits as
# long as it takes, an int gives up after that many ticks and, if still
# parked, leaves the queue (a closed acquire; a released request in the
# oracle).
_ACTOR = st.tuples(st.integers(min_value=0, max_value=6),
                   st.integers(min_value=0, max_value=5),
                   st.one_of(st.none(), st.integers(min_value=0, max_value=6)))


class _OracleHold:
    """One holder's claim on the :class:`SetResource` oracle."""

    def __init__(self, res):
        self.res = res
        self.req = res.request()

    def gate(self):
        """The event to wait on, or None if granted on the spot."""
        return None if self.req.processed else self.req

    def release(self):
        self.res.release(self.req)

    give_up = release   # releasing a waiting request cancels it


class _LanesHold:
    """One holder's ``Lanes.acquire()``, driven by hand so that an
    impatient holder can close it while it is parked."""

    def __init__(self, lanes):
        self.lanes = lanes
        self.acquire = lanes.acquire()
        self._gate = next(self.acquire, None)

    def gate(self):
        return self._gate

    def give_up(self):
        self.acquire.close()

    def release(self):
        # Finish the acquire first: closed later, still parked on a
        # handed-over gate, it would pass the lane on a second time.
        next(self.acquire, None)
        self.lanes.release()


class TestResourceMatchesSetOracle:
    """:meth:`Lanes.acquire` / :meth:`Lanes.release` hand out lanes in
    the order and on the ticks of the set-based oracle
    (:mod:`tests.fifo_oracle`), including same-tick arrivals and holders
    that give up while still parked."""

    @staticmethod
    def _run(make_hold, make_resource, capacity, actors):
        sim = Simulator()
        res = make_resource(sim, capacity)
        log = []

        def note(name, what):
            log.append((sim.now, name, what, res.count, res.queue_length))

        def arrive(name, arrival, hold, patience):
            yield sim.timeout(arrival)
            claim = make_hold(res)
            gate = claim.gate()
            if gate is not None:
                if patience is None:
                    yield gate
                else:
                    yield sim.any_of([gate, sim.timeout(patience)])
                    if not gate.triggered:
                        claim.give_up()
                        note(name, "gave-up")
                        return
                    if not gate.processed:
                        yield gate
            note(name, "granted")
            yield sim.timeout(hold)
            claim.release()
            note(name, "released")

        for name, (arrival, hold, patience) in enumerate(actors):
            sim.process(arrive(name, arrival, hold, patience))
        sim.run()
        assert res.count == 0 and res.queue_length == 0
        return log

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=4),
           actors=st.lists(_ACTOR, min_size=1, max_size=12))
    def test_grant_order_and_ticks_match_the_oracle(self, capacity, actors):
        expected = self._run(_OracleHold, SetResource, capacity, actors)
        got = self._run(_LanesHold, Lanes, capacity, actors)
        assert got == expected


class TestLanes:
    """Busy count plus FIFO: the hold behind CPU cores and wire and
    link directions."""

    def test_free_lane_is_taken_without_an_event(self, sim):
        lanes = Lanes(sim, 2)
        lanes.busy += 1
        assert (lanes.count, lanes.queue_length) == (1, 0)
        assert sim.peek() is None
        lanes.release()
        assert lanes.count == 0

    def test_release_hands_the_lane_to_the_oldest_parked_holder(self, sim):
        lanes = Lanes(sim, 1)
        lanes.busy = 1
        first, second = lanes.park(), lanes.park()
        lanes.release()
        assert first.triggered and not second.triggered
        assert (lanes.count, lanes.queue_length) == (1, 1)

    def test_holder_interrupted_while_parked_leaves_the_queue(self, sim):
        lanes = Lanes(sim, 1)
        lanes.busy = 1
        waiter = lanes.wait()
        gate = next(waiter)
        assert lanes.queue_length == 1
        waiter.close()
        assert lanes.queue_length == 0 and not gate.triggered
        lanes.release()
        assert lanes.count == 0

    def test_holder_interrupted_after_the_hand_over_passes_it_on(self, sim):
        lanes = Lanes(sim, 1)
        lanes.busy = 1
        first, second = lanes.wait(), lanes.wait()
        next(first)
        second_gate = next(second)
        lanes.release()          # hands the lane to ``first``
        with pytest.raises(RuntimeError):
            first.throw(RuntimeError("interrupted before resuming"))
        assert second_gate.triggered
        assert (lanes.count, lanes.queue_length) == (1, 0)


    def test_process_closed_while_parked_in_acquire_leaves_the_queue(
            self, sim):
        lanes = Lanes(sim, 1)
        holder, parked = _hold(lanes, sim, 10), _hold(lanes, sim, 10)
        sim.process(holder)
        sim.process(parked)
        sim.run(until=5)
        assert (lanes.count, lanes.queue_length) == (1, 1)
        parked.close()
        assert lanes.queue_length == 0
        sim.run()
        assert (lanes.count, lanes.queue_length) == (0, 0)
        assert sim.now == 10

    def test_process_closed_while_holding_hands_its_lane_on(self, sim):
        lanes = Lanes(sim, 1)
        holder = _hold(lanes, sim, 10)
        granted = []

        def waiter():
            yield from lanes.acquire()
            granted.append(sim.now)
            lanes.release()

        sim.process(holder)
        sim.process(waiter())
        sim.run(until=5)
        holder.close()
        sim.run()
        assert granted == [5]
        assert (lanes.count, lanes.queue_length) == (0, 0)
