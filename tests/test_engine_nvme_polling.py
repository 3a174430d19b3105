"""The engine NVMe controller's write-driven, phase-exact CQ polling,
checked against an every-tick reference poller.

The reference below is the controller's completion FSM as a plain
200 ns polling loop.  Both must consume the same CQEs on the same ticks
and finish every command at the same time; the write-driven one just
schedules fewer events to get there.
"""

import random

import pytest

from repro.core.command import DeviceCommand
from repro.core.controllers.nvme_ctrl import (POLL_INTERVAL,
                                              EngineNvmeController)
from repro.core.engine import ENGINE_DDR_BASE
from repro.errors import DeviceError
from repro.faults import FaultPlan, FaultRule
from repro.schemes import Testbed
from repro.units import KIB, MIB

SIZES = (4 * KIB, 8 * KIB, 12 * KIB, 64 * KIB, 128 * KIB, 192 * KIB)
GAPS = (0, 1, 37, 200, 399, 1_000, 7_000)
PLANS = {
    "clean": None,
    "cqe_drop": FaultRule("nvme.cqe_drop", probability=0.1),
    "flash_read": FaultRule("flash.read", probability=0.15),
}


def _every_tick_fsm(self):
    """Reference: poll the CQ every POLL_INTERVAL while a command is
    outstanding, whether or not anything could have changed."""
    while True:
        if not self.client.waiters:
            yield self._issued.wait()
            continue
        cqe = self.qp.poll_completion()
        if cqe is None:
            yield self.sim.timeout(POLL_INTERVAL)
            continue
        yield from self.client.complete(cqe, self.sim.now)


def _stream(seed: int, count: int):
    rng = random.Random(seed)
    return [(rng.choice("rw"), rng.randrange(0, 4096) * 8,
             rng.choice(SIZES), rng.choice(GAPS)) for _ in range(count)]


def _run(monkeypatch, reference: bool, seed: int, concurrency: int,
         rings_in_host: bool, plan: str):
    """Drive a seeded command stream through node0's engine controller;
    returns what the run observed and how many events it took."""
    rule = PLANS[plan]
    faults = FaultPlan([rule]) if rule is not None else None
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(EngineNvmeController, "_completion_fsm",
                          _every_tick_fsm)
        tb = Testbed(seed=seed, nvme_rings_in_host=rings_in_host,
                     faults=faults)
    sim = tb.sim
    ctrl = tb.node0.engine.nvme_ctrl
    consumed = []
    complete = ctrl.client.complete

    def logged_complete(cqe, completed_at):
        # completed_at is the tick the poll consumed the CQE on; sim.now
        # afterwards is when the CQ head doorbell acknowledged it.
        yield from complete(cqe, completed_at)
        consumed.append((cqe.cid, completed_at, sim.now))

    ctrl.client.complete = logged_complete
    steps = [0]
    step = sim.step

    def counted_step():
        steps[0] += 1
        step()

    sim.step = counted_step
    pending = _stream(seed, 6 * concurrency)
    finished = []

    def worker(index):
        buf = ENGINE_DDR_BASE + index * MIB
        while pending:
            rw, lba, size, gap = pending.pop(0)
            yield sim.timeout(gap)
            entry = DeviceCommand(dev="nvme", rw=rw,
                                  src=lba if rw == "r" else buf,
                                  dst=buf if rw == "r" else lba,
                                  length=size)
            try:
                yield sim.process(ctrl.execute(entry))
                outcome = "ok"
            except DeviceError as exc:
                outcome = str(exc)
            finished.append((index, rw, lba, size, sim.now, outcome))

    for index in range(concurrency):
        sim.process(worker(index))
    sim.run()
    return {"consumed": consumed, "finished": finished, "drained": sim.now,
            "retries": ctrl.client.retries,
            "stale": ctrl.client.stale_completions}, steps[0]


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("rings_in_host", [False, True],
                         ids=["bram", "host-dram"])
@pytest.mark.parametrize("concurrency", [1, 2, 4])
def test_write_driven_polling_matches_every_tick_reference(
        monkeypatch, plan, rings_in_host, concurrency):
    seed = 11 * concurrency + 3 * rings_in_host + len(plan)
    lazy, lazy_events = _run(monkeypatch, False, seed, concurrency,
                             rings_in_host, plan)
    eager, eager_events = _run(monkeypatch, True, seed, concurrency,
                               rings_in_host, plan)
    assert lazy == eager
    assert len(lazy["finished"]) == 6 * concurrency
    assert lazy["consumed"]
    assert lazy_events < eager_events


def test_fault_plans_exercise_recovery(monkeypatch):
    """The faulted streams above really take the retry paths: lost
    CQEs expire on the watchdog, media errors fail commands."""
    dropped, _ = _run(monkeypatch, False, 7, 4, False, "cqe_drop")
    media, _ = _run(monkeypatch, False, 7, 4, True, "flash_read")
    assert dropped["retries"] > 0
    assert media["retries"] > 0
    assert all(outcome == "ok" for *_, outcome in dropped["finished"])
