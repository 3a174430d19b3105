"""The scoreboard: dependency-driven scheduling of device commands.

Reproduces the paper's Figure 6 machinery: fetched D2D commands are
split into device-command entries; the scoreboard "monitors current
states of all fetched device commands and dynamically schedules them",
issuing an entry to its device controller when (a) its dependencies
are done and (b) the target controller has a free slot, and delaying
it (``wait``) otherwise.  When every entry of a D2D command is done,
its unique id goes to the completion queue — in request order, as the
prototype does ("for the simple implementation, HDC Engine issues D2D
commands in a requested order and notifies HDC Driver of their
completions in the same order"); the out-of-order mode exists for the
ablation study.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.command import (D2DCompletion, D2DStatus, DeviceCommand,
                                EntryState)
from repro.errors import ConfigurationError, DeviceError, DeviceTimeout
from repro.sim.kernel import Simulator
from repro.sim.resources import Signal, Store
from repro.units import nsec

# One scheduling decision: a handful of FSM cycles at the engine clock.
SCOREBOARD_DECISION = nsec(50)


class Executor:
    """Protocol for controller/NDP backends the scoreboard issues to.

    ``slots`` is the number of entries the backend can run at once;
    ``execute(entry)`` is a process returning the entry's result bytes
    (or None).
    """

    slots: int = 1

    def execute(self, entry: DeviceCommand):  # pragma: no cover - protocol
        raise NotImplementedError


class _Task:
    """One admitted D2D command and its entries."""

    def __init__(self, d2d_id: int, entries: List[DeviceCommand],
                 finalize: Callable[["_Task"], D2DCompletion],
                 abort: Optional[Callable[["_Task"], None]] = None):
        self.d2d_id = d2d_id
        self.entries = entries
        self.finalize = finalize
        self.abort = abort
        self.failed: Optional[BaseException] = None
        self.abort_requested = False

    def done(self) -> bool:
        return all(e.state == EntryState.DONE for e in self.entries)

    def settled(self) -> bool:
        """Every entry has left the pipeline (done or cancelled)."""
        return all(e.state in (EntryState.DONE, EntryState.CANCELLED)
                   for e in self.entries)

    def status(self) -> D2DStatus:
        """The completion status a failed/aborted task reports."""
        if self.abort_requested:
            return D2DStatus.ABORTED
        if isinstance(self.failed, DeviceTimeout):
            return D2DStatus.TIMEOUT
        if isinstance(self.failed, ConfigurationError):
            return D2DStatus.BAD_COMMAND
        return D2DStatus.DEVICE_ERROR


class Scoreboard:
    """Entry storage + the scheduling FSM."""

    def __init__(self, sim: Simulator, capacity_entries: int = 256,
                 in_order_completion: bool = True, owner: str = "engine"):
        self.sim = sim
        self.capacity_entries = capacity_entries
        self.in_order_completion = in_order_completion
        self.owner = owner
        self._executors: Dict[str, Executor] = {}
        self._busy: Dict[str, int] = {}
        self._tasks: List[_Task] = []       # admission order
        self._wake = Signal(sim)
        self.completions: Store = Store(sim)
        self.entries_issued = 0
        self.decisions = 0
        metrics = sim.metrics
        if metrics is None:
            self._m_entries = None
        else:
            self._m_entries = metrics.timegauge("engine.scoreboard_entries",
                                                engine=owner)
            metrics.polled("engine.scoreboard_issued",
                           lambda: self.entries_issued, engine=owner)
        sim.spawn(self._scheduler())

    # -- configuration -----------------------------------------------------

    def register_executor(self, dev: str, executor: Executor) -> None:
        """Attach the backend that runs entries targeting ``dev``."""
        if dev in self._executors:
            raise ConfigurationError(f"executor {dev!r} already registered")
        self._executors[dev] = executor
        self._busy[dev] = 0

    # -- admission -----------------------------------------------------------

    def live_entries(self) -> int:
        return sum(len(t.entries) for t in self._tasks)

    def admit(self, d2d_id: int, entries: List[DeviceCommand],
              finalize: Callable[[object], D2DCompletion],
              abort: Optional[Callable[[object], None]] = None):
        """Process: store a split D2D command (waits while full).

        ``finalize`` builds the task's completion record once all its
        entries are done (it sees the entries' results).  ``abort``
        runs instead of ``finalize`` when the task fails or is
        cancelled — its job is to release whatever the planner
        allocated (intermediate buffers, bookkeeping).
        """
        if not entries:
            raise ConfigurationError("a D2D command needs at least one entry")
        for entry in entries:
            entry.d2d_id = d2d_id
            if entry.dev not in self._executors:
                raise ConfigurationError(
                    f"no executor registered for device {entry.dev!r}")
        while self.live_entries() + len(entries) > self.capacity_entries:
            yield self._wake.wait()
        self._tasks.append(_Task(d2d_id, entries, finalize, abort))
        if self._m_entries is not None:
            self._m_entries.set(self.live_entries())
        self._kick()

    def abort(self, d2d_id: int, reason: str = "aborted by request") -> bool:
        """Cancel a live task: not-yet-issued entries never run, and the
        completion posts with :data:`D2DStatus.ABORTED`.  Entries that
        are already executing finish first (a device command cannot be
        recalled mid-DMA).  Returns False if the id is not live."""
        for task in self._tasks:
            if task.d2d_id != d2d_id:
                continue
            if task.failed is None:
                task.failed = DeviceError(reason)
                task.abort_requested = True
                self._kick()
            return True
        return False

    # -- scheduling ------------------------------------------------------------

    def _kick(self) -> None:
        self._wake.notify()

    def _pick(self):
        """The first WAIT entry whose deps are done and controller free.

        Entries of a task that already failed are cancelled on sight —
        a dependent stage must never run against a failed producer's
        buffer.
        """
        cancelled = False
        for task in self._tasks:
            if task.failed is not None:
                for entry in task.entries:
                    if entry.state == EntryState.WAIT:
                        entry.state = EntryState.CANCELLED
                        entry.after = None
                        entry.done_at = self.sim.now
                        entry.issued_at = self.sim.now
                        cancelled = True
                continue
            for entry in task.entries:
                if entry.state != EntryState.WAIT:
                    continue
                if not entry.deps_done():
                    continue
                executor = self._executors[entry.dev]
                if self._busy[entry.dev] >= executor.slots:
                    continue
                return task, entry, executor
        if cancelled:
            self._drain_completions()
        return None

    def _scheduler(self):
        while True:
            picked = self._pick()
            if picked is None:
                yield self._wake.wait()
                continue
            task, entry, executor = picked
            # ready -> issue: reserve the controller slot, pay the
            # scheduling FSM, hand the entry over.
            entry.state = EntryState.ISSUE
            self._busy[entry.dev] += 1
            yield self.sim.timeout(SCOREBOARD_DECISION)
            self.decisions += 1
            self.entries_issued += 1
            self.sim.spawn(self._run_entry(task, entry, executor))

    def _run_entry(self, task: _Task, entry: DeviceCommand,
                   executor: Executor):
        entry.issued_at = self.sim.now
        try:
            result = yield self.sim.process(executor.execute(entry))
            entry.result = result
        except (DeviceError, ConfigurationError) as exc:
            if task.failed is None:
                task.failed = exc
        finally:
            entry.state = EntryState.DONE
            entry.done_at = self.sim.now
            self._busy[entry.dev] -= 1
            after = entry.after
            if after is not None:
                entry.after = None
                after()
        yield self.sim.timeout(SCOREBOARD_DECISION)  # state write-back
        self.decisions += 1
        self._drain_completions()
        self._kick()

    def _drain_completions(self) -> None:
        """Move finished tasks to the completion queue.

        In-order mode releases a task only once every earlier-admitted
        task has been released (the prototype's behaviour).
        """
        while self._tasks:
            if self.in_order_completion:
                candidates = self._tasks[:1]
            else:
                candidates = [t for t in self._tasks if t.settled()][:1]
            if not candidates or not candidates[0].settled():
                return
            task = candidates[0]
            self._tasks.remove(task)
            if self._m_entries is not None:
                self._m_entries.set(self.live_entries())
            if task.failed is not None:
                status = task.status()
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.instant(
                        "recover.abort", track="faults",
                        name=f"abort d2d#{task.d2d_id} {status.name}",
                        d2d_id=task.d2d_id, status=int(status),
                        reason=str(task.failed),
                        cancelled=sum(1 for e in task.entries
                                      if e.state == EntryState.CANCELLED))
                if task.abort is not None:
                    task.abort(task)
                completion = D2DCompletion(d2d_id=task.d2d_id,
                                           status=int(status))
            else:
                completion = task.finalize(task)
            self.completions.put(completion)
