"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.analysis import NULL_TRACE, current_trace, traced_op
from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.resources import Put, Store
from repro.units import usec


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_time(self, sim):
        def body(sim):
            yield sim.timeout(100)

        sim.process(body(sim))
        sim.run()
        assert sim.now == 100

    def test_timeout_carries_value(self, sim):
        def body(sim):
            got = yield sim.timeout(5, value="payload")
            return got

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "payload"

    def test_zero_delay_timeout_is_legal(self, sim):
        def body(sim):
            yield sim.timeout(0)
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self, sim):
        def body(sim):
            yield sim.timeout(10)
            yield sim.timeout(20)
            yield sim.timeout(30)

        sim.process(body(sim))
        sim.run()
        assert sim.now == 60


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def body(sim):
            yield sim.timeout(1)
            return 42

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 42

    def test_process_is_alive_until_done(self, sim):
        def body(sim):
            yield sim.timeout(10)

        proc = sim.process(body(sim))
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_process_can_wait_on_process(self, sim):
        def child(sim):
            yield sim.timeout(7)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            return result

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "child-result"
        assert sim.now == 7

    def test_waiting_on_finished_process_resumes_immediately(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return "early"

        def parent(sim, childproc):
            yield sim.timeout(10)
            result = yield childproc
            return (result, sim.now)

        childproc = sim.process(child(sim))
        proc = sim.process(parent(sim, childproc))
        sim.run()
        assert proc.value == ("early", 10)

    def test_exception_in_process_fails_its_event(self, sim):
        def body(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        proc = sim.process(body(sim))
        sim.run()
        assert proc.triggered and not proc.ok
        with pytest.raises(ValueError, match="boom"):
            _ = proc.value

    def test_failure_propagates_into_waiter(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise RuntimeError("child died")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except RuntimeError as exc:
                return f"caught: {exc}"
            return "not caught"

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "caught: child died"

    def test_yielding_non_event_raises_in_process(self, sim):
        def body(sim):
            try:
                yield "not an event"
            except SimulationError:
                return "rejected"

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "rejected"

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_many_concurrent_processes_all_finish(self, sim):
        done = []

        def body(sim, i):
            yield sim.timeout(i)
            done.append(i)

        for i in range(100):
            sim.process(body(sim, i))
        sim.run()
        assert done == sorted(done)
        assert len(done) == 100


class TestEvent:
    def test_manual_succeed(self, sim):
        ev = sim.event()

        def waiter(sim, ev):
            value = yield ev
            return value

        proc = sim.process(waiter(sim, ev))

        def trigger(sim, ev):
            yield sim.timeout(50)
            ev.succeed("signal")

        sim.process(trigger(sim, ev))
        sim.run()
        assert proc.value == "signal"
        assert sim.now == 50

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_same_tick_fifo_order(self, sim):
        order = []

        def body(sim, name):
            yield sim.timeout(10)
            order.append(name)

        for name in ("a", "b", "c", "d"):
            sim.process(body(sim, name))
        sim.run()
        assert order == ["a", "b", "c", "d"]


class TestConditions:
    def test_all_of_waits_for_slowest(self, sim):
        def body(sim):
            t1 = sim.timeout(10, value="x")
            t2 = sim.timeout(30, value="y")
            results = yield sim.all_of([t1, t2])
            return (sim.now, sorted(results.values()))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (30, ["x", "y"])

    def test_any_of_returns_on_fastest(self, sim):
        def body(sim):
            t1 = sim.timeout(10, value="fast")
            t2 = sim.timeout(30, value="slow")
            results = yield sim.any_of([t1, t2])
            return (sim.now, list(results.values()))

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == (10, ["fast"])

    def test_all_of_empty_triggers_immediately(self, sim):
        def body(sim):
            yield sim.all_of([])
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 0

    def test_all_of_propagates_failure(self, sim):
        def failing(sim):
            yield sim.timeout(5)
            raise ValueError("inner")

        def body(sim):
            try:
                yield sim.all_of([sim.timeout(100), sim.process(failing(sim))])
            except ValueError:
                return "failed"

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == "failed"


class TestRun:
    def test_run_until_time_stops_exactly(self, sim):
        def body(sim):
            while True:
                yield sim.timeout(10)

        sim.process(body(sim))
        sim.run(until=usec(1))
        assert sim.now == usec(1)

    def test_run_until_event_returns_value(self, sim):
        def body(sim):
            yield sim.timeout(25)
            return "finished"

        proc = sim.process(body(sim))
        assert sim.run(until=proc) == "finished"
        assert sim.now == 25

    def test_run_until_event_deadlock_detected(self, sim):
        ev = sim.event()  # nobody will ever trigger this
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=ev)

    def test_run_until_past_rejected(self, sim):
        sim.process(iter_timeout(sim, 100))
        sim.run(until=100)
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_determinism_two_runs_identical(self):
        def trace_run():
            sim = Simulator()
            trace = []

            def body(sim, name, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((sim.now, name))

            for i, name in enumerate("abcde"):
                sim.process(body(sim, name, 7 + i))
            sim.run()
            return trace

        assert trace_run() == trace_run()


def mixed_same_tick_scenario():
    """Same-tick succeed(), timeout(0), process bootstrap, relays for
    already-processed events (succeeded and failed) and AllOf/AnyOf,
    logged in callback order."""
    sim = Simulator()
    log = []

    def note(tag):
        return lambda ev: log.append((sim.now, tag, ev.eid))

    signal = sim.event()
    signal.callbacks.append(note("signal"))
    early = sim.event()
    early.succeed("early")
    broken = sim.event()
    broken.fail(RuntimeError("broken"))
    tick0 = sim.timeout(0)
    tick0.callbacks.append(note("tick0"))

    def waiter(name):
        log.append((sim.now, f"{name}:start", None))
        got = yield sim.timeout(0, value=name)
        log.append((sim.now, f"{name}:t0={got}", None))
        got = yield signal
        log.append((sim.now, f"{name}:signal={got}", None))
        got = yield early  # already processed: resumes through a relay
        log.append((sim.now, f"{name}:early={got}", None))
        try:
            yield broken  # already processed and failed: a failing relay
        except RuntimeError as exc:
            log.append((sim.now, f"{name}:broken={exc}", None))
        both = yield sim.all_of([sim.timeout(0, "x"), sim.timeout(3, "y")])
        log.append((sim.now, f"{name}:all={sorted(both.values())}", None))
        first = yield sim.any_of([sim.timeout(2, "slow"),
                                  sim.timeout(0, "now")])
        log.append((sim.now, f"{name}:any={sorted(first.values())}", None))
        return name

    def trigger():
        log.append((sim.now, "trigger:start", None))
        yield sim.timeout(0)
        signal.succeed("go")
        log.append((sim.now, "trigger:fired", None))
        yield sim.timeout(0)
        log.append((sim.now, "trigger:after", None))

    procs = [sim.process(waiter("a")), sim.process(trigger()),
             sim.process(waiter("b"))]
    for proc in procs:
        proc.callbacks.append(note("done"))
    sim.run()
    return log, [proc.eid for proc in procs], sim.event().eid


class TestKernelOrder:
    """Golden same-tick order and eid numbering.

    Traces, metrics CSVs and perfbench digests all rest on these:
    a change here is a behaviour change, never a refactor.
    """

    def test_mixed_same_tick_callback_order(self):
        log, proc_eids, next_eid = mixed_same_tick_scenario()
        assert log == [
            (0, "tick0", 4),
            (0, "a:start", None),
            (0, "trigger:start", None),
            (0, "b:start", None),
            (0, "a:t0=a", None),
            (0, "trigger:fired", None),
            (0, "b:t0=b", None),
            (0, "signal", 1),
            (0, "a:signal=go", None),
            (0, "b:signal=go", None),
            (0, "trigger:after", None),
            (0, "a:early=early", None),
            (0, "b:early=early", None),
            (0, "done", 7),
            (0, "a:broken=broken", None),
            (0, "b:broken=broken", None),
            (3, "a:all=['x', 'y']", None),
            (3, "b:all=['x', 'y']", None),
            (3, "a:any=['now']", None),
            (3, "b:any=['now']", None),
            (3, "done", 5),
            (3, "done", 9),
        ]
        assert proc_eids == [5, 7, 9]
        assert next_eid == 31

    def test_eids_strictly_increase_in_creation_order(self, sim):
        def body():
            yield sim.timeout(1)

        store = Store(sim)
        events = [sim.event(), sim.timeout(3), sim.process(body()),
                  sim.all_of([]), sim.any_of([]), store.put(1),
                  sim.event()]
        # A process draws one extra id for its bootstrap event.
        assert [event.eid for event in events] == [1, 2, 3, 5, 6, 7, 8]


def unheld_same_tick_scenario(start_unheld):
    """Processes nobody waits on -- children that end on the tick they
    start, one that raises, a parent and a gate opener -- interleaved
    with same-tick timeouts, a gate and a held process, logged in
    callback order.  ``start_unheld(sim, generator)`` starts each one."""
    sim = Simulator()
    log = []

    def note(tag):
        return lambda ev: log.append((sim.now, tag, ev.eid))

    gate = sim.event()
    gate.callbacks.append(note("gate"))

    def child(name, delay):
        log.append((sim.now, f"{name}:start", None))
        yield sim.timeout(delay)
        log.append((sim.now, f"{name}:end", None))
        return name

    def failing(name):
        log.append((sim.now, f"{name}:start", None))
        yield sim.timeout(0)
        raise RuntimeError(name)

    def parent(name):
        log.append((sim.now, f"{name}:start", None))
        start_unheld(sim, child(f"{name}.c0", 0))
        start_unheld(sim, failing(f"{name}.f"))
        tick = sim.timeout(0)
        tick.callbacks.append(note(f"{name}:tick"))
        yield tick
        start_unheld(sim, child(f"{name}.c1", 2))
        got = yield gate
        log.append((sim.now, f"{name}:gate={got}", None))
        later = sim.timeout(2)
        later.callbacks.append(note(f"{name}:later"))
        yield later
        log.append((sim.now, f"{name}:done", None))

    def opener():
        yield sim.timeout(0)
        yield sim.timeout(0)
        gate.succeed("open")
        log.append((sim.now, "opener:fired", None))

    held = sim.process(parent("p"))
    held.callbacks.append(note("p:exit"))
    start_unheld(sim, parent("q"))
    start_unheld(sim, opener())
    sim.run()
    return log, sim.now, sim.event().eid


def _steps_to_drain(sim):
    steps = 0
    while sim.peek() is not None:
        sim.step()
        steps += 1
    return steps


class TestSpawn:
    """``Simulator.spawn``: a process nobody waits on."""

    # The log of unheld_same_tick_scenario with every unheld process
    # started by process(), as the kernel gave it before spawn existed.
    UNHELD_LOG = [
        (0, "p:start", None), (0, "q:start", None),
        (0, "p.c0:start", None), (0, "p.f:start", None),
        (0, "p:tick", 12),
        (0, "q.c0:start", None), (0, "q.f:start", None),
        (0, "q:tick", 17),
        (0, "p.c0:end", None), (0, "p.c1:start", None),
        (0, "q.c0:end", None), (0, "q.c1:start", None),
        (0, "opener:fired", None), (0, "gate", 1),
        (0, "p:gate=open", None), (0, "q:gate=open", None),
        (2, "p.c1:end", None), (2, "q.c1:end", None),
        (2, "p:later", 30), (2, "p:done", None),
        (2, "q:later", 31), (2, "q:done", None),
        (2, "p:exit", 2),
    ]

    @pytest.mark.parametrize("start", ["process", "spawn"])
    def test_same_tick_order_and_eids_match_an_unheld_process(self, start):
        log, now, next_eid = unheld_same_tick_scenario(
            lambda sim, generator: getattr(sim, start)(generator))
        assert log == self.UNHELD_LOG
        assert (now, next_eid) == (2, 32)

    def test_spawned_end_schedules_nothing(self, sim):
        def body():
            yield sim.timeout(3)
            return "ignored"

        assert sim.spawn(body()) is None
        # The bootstrap and the timeout; no third event for the end.
        assert _steps_to_drain(sim) == 2
        assert sim.now == 3
        # Ids: the process and its bootstrap, the timeout, then this.
        assert sim.event().eid == 4

        held = Simulator()

        def held_body():
            yield held.timeout(3)

        proc = held.process(held_body())
        assert _steps_to_drain(held) == 3
        assert proc.value is None
        assert held.event().eid == 4

    def test_spawned_process_is_counted_and_started_like_process(self, sim):
        seen = []

        def body():
            seen.append(sim.active_process)
            yield sim.timeout(1)

        sim.spawn(body())
        sim.run()
        assert isinstance(seen[0], Process)
        assert not seen[0].is_alive and seen[0].processed

    def test_spawned_generator_that_raises_ends_quietly(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("nobody is listening")

        def survivor():
            yield sim.timeout(5)
            return "still here"

        sim.spawn(bad())
        unobserved = Simulator()

        def unobserved_bad():
            yield unobserved.timeout(1)
            raise RuntimeError("nobody is listening")

        unobserved.process(unobserved_bad())
        # Neither run raises: an unobserved failure ends its process.
        unobserved.run()
        proc = sim.process(survivor())
        assert sim.run(until=proc) == "still here"
        assert sim.now == 5

    def test_spawn_rejects_a_non_generator(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.spawn(lambda: None)


class TestSlots:
    @staticmethod
    def make(case, sim):
        def body():
            yield sim.timeout(1)

        return {
            "Event": lambda: sim.event(),
            "Timeout": lambda: sim.timeout(1),
            "Process": lambda: sim.process(body()),
            "AllOf": lambda: sim.all_of([]),
            "AnyOf": lambda: sim.any_of([]),
            "Put": lambda: Store(sim).put(1),
        }[case]()

    CASES = {"Event": Event, "Timeout": Timeout, "Process": Process,
             "AllOf": AllOf, "AnyOf": AnyOf, "Put": Put}

    @pytest.mark.parametrize("case", list(CASES))
    def test_event_classes_have_no_instance_dict(self, sim, case):
        kind = self.CASES[case]
        event = self.make(case, sim)
        assert type(event) is kind
        assert not hasattr(event, "__dict__")
        for klass in kind.__mro__[:-1]:
            assert "__slots__" in vars(klass), klass.__name__
            # Timeout and Process set Event's slots flat: none may be
            # left unset by a constructor that skips super().__init__.
            for slot in vars(klass)["__slots__"]:
                assert hasattr(event, slot), f"{klass.__name__}.{slot}"
        with pytest.raises(AttributeError):
            event.stray_attribute = 1

    def test_process_keeps_its_request_trace_in_a_slot(self, sim):
        assert "request_trace" in Process.__slots__
        proc = self.make("Process", sim)
        assert proc.request_trace is None

    def test_accepted_put_is_born_processed(self, sim):
        put = Store(sim).put(1)
        assert put.processed and put.ok
        assert put.callbacks is None

    def test_parked_put_waits_with_a_callbacks_list(self, sim):
        store = Store(sim, capacity=1)
        store.put(1)
        put = store.put(2)
        assert put.callbacks == []
        assert not put.triggered


class TestRequestContext:
    """A request's LatencyTrace rides on its process (traced_op)."""

    def test_running_process_is_none_between_steps(self, sim):
        seen = []

        def body(sim):
            seen.append(sim.active_process)
            yield sim.timeout(1)
            seen.append(sim.active_process)

        proc = sim.process(body(sim))
        assert sim.active_process is None
        while sim.peek() is not None:
            sim.step()
            assert sim.active_process is None
        assert seen == [proc, proc]

    def test_spawned_child_inherits_the_trace(self, sim):
        def child(sim):
            yield sim.timeout(5)
            with current_trace(sim).span("child"):
                yield sim.timeout(7)

        def parent(sim):
            with traced_op(sim) as trace:
                yield sim.process(child(sim))
            return trace

        trace = sim.run(until=sim.process(parent(sim)))
        assert dict(trace.segments) == {"child": 7}

    def test_process_spawned_from_a_timeout_callback_gets_none(self, sim):
        spawned = []

        def child(sim):
            spawned.append(current_trace(sim))
            yield sim.timeout(1)

        def parent(sim):
            with traced_op(sim):
                timer = sim.timeout(3)
                timer.callbacks.append(
                    lambda _: spawned.append(sim.process(child(sim))))
                yield sim.timeout(10)

        sim.process(parent(sim))
        sim.run()
        proc, seen = spawned
        assert proc.request_trace is None and seen is NULL_TRACE

    def test_concurrent_ops_keep_separate_traces(self, sim):
        def op(sim, category, first, second):
            with traced_op(sim) as trace:
                with current_trace(sim).span(category):
                    yield sim.timeout(first)
                yield sim.timeout(1)
                with current_trace(sim).span(category):
                    yield sim.timeout(second)
            return trace

        a = sim.process(op(sim, "a", 4, 6))
        b = sim.process(op(sim, "b", 5, 3))
        sim.run()
        assert dict(a.value.segments) == {"a": 10}
        assert dict(b.value.segments) == {"b": 8}
        assert a.value is not b.value

    def test_sequential_ops_in_one_process_do_not_leak(self, sim):
        def body(sim):
            with traced_op(sim) as first:
                with current_trace(sim).span("one"):
                    yield sim.timeout(2)
                first.finish()
            assert current_trace(sim) is NULL_TRACE
            with current_trace(sim).span("between"):
                yield sim.timeout(50)
            with traced_op(sim) as second:
                with current_trace(sim).span("two"):
                    yield sim.timeout(3)
                second.finish()
            return first, second

        first, second = sim.run(until=sim.process(body(sim)))
        assert dict(first.segments) == {"one": 2}
        assert dict(second.segments) == {"two": 3}
        assert (first.total, second.total) == (2, 3)

    def test_trace_restored_when_the_op_fails(self, sim):
        def body(sim):
            with pytest.raises(RuntimeError):
                with traced_op(sim):
                    yield sim.timeout(1)
                    raise RuntimeError("boom")
            return current_trace(sim)

        assert sim.run(until=sim.process(body(sim))) is NULL_TRACE

    def test_traced_op_outside_a_process_is_an_error(self, sim):
        with pytest.raises(SimulationError):
            with traced_op(sim):
                pass


class TestKernelChecks:
    """Every guard the kernel's hot path keeps."""

    def test_negative_timeout_delay(self, sim):
        with pytest.raises(SimulationError, match="negative"):
            sim.timeout(-5)

    def test_scheduling_into_the_past(self, sim):
        with pytest.raises(SimulationError, match="past"):
            sim._enqueue(-1, sim.event())  # simlint: disable=SIM002

    def test_time_going_backwards(self, sim):
        sim.timeout(5)
        sim.now = 10  # as if the queue had been corrupted
        with pytest.raises(SimulationError, match="backwards"):
            sim.step()

    @pytest.mark.parametrize("first, second", [
        ("succeed", "succeed"), ("succeed", "fail"),
        ("fail", "succeed"), ("fail", "fail")])
    def test_double_trigger(self, sim, first, second):
        def trigger(event, how):
            if how == "succeed":
                event.succeed(1)
            else:
                event.fail(RuntimeError("x"))

        event = sim.event()
        trigger(event, first)
        with pytest.raises(SimulationError, match="already triggered"):
            trigger(event, second)
        sim.run()
        with pytest.raises(SimulationError, match="already triggered"):
            trigger(event, second)

    def test_fail_needs_an_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_uncaught_non_event_yield_fails_the_process(self, sim):
        def body():
            yield 42

        proc = sim.process(body())
        sim.run()
        assert not proc.ok
        with pytest.raises(SimulationError, match="only yield Events"):
            _ = proc.value

    def test_caught_non_event_error_resumes_on_the_next_yield(self, sim):
        """The event a generator yields after catching the non-Event
        error is waited on like any other, not dropped."""
        def body():
            try:
                yield "not an event"
            except SimulationError:
                yield sim.timeout(5)
            return sim.now

        proc = sim.process(body())
        assert sim.run(until=proc) == 5

    def test_cross_simulator_yield_fails_the_process(self, sim):
        other = Simulator()

        def body():
            yield other.timeout(1)

        proc = sim.process(body())
        sim.run()
        with pytest.raises(SimulationError, match="another simulator"):
            _ = proc.value

    def test_cross_simulator_condition(self, sim):
        with pytest.raises(SimulationError, match="different simulators"):
            sim.all_of([sim.timeout(1), Simulator().timeout(1)])

    def test_run_is_not_reentrant(self, sim):
        def body():
            yield sim.timeout(1)
            sim.run()

        proc = sim.process(body())
        sim.run()
        with pytest.raises(SimulationError, match="reentrant"):
            _ = proc.value


def iter_timeout(sim, delay):
    yield sim.timeout(delay)
