"""No reference cycles on the hot path: a finished process, and what a
scheme operation leaves behind, are freed by reference counting.

Each test runs its work with the cyclic collector off and then asks it
how many unreachable objects it finds; the answer must be 0.  A
testbed is cyclic by design (device loops and the simulator refer to
each other), so every testbed is built and warmed before the measured
work starts.
"""

import gc
import hashlib

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.schemes import ALL_SCHEMES, Testbed
from repro.sim import Simulator
from repro.units import KIB
from tests.test_schemes import run_send

SENDS = 4
SIZE = 4 * KIB


def cyclic_garbage(action) -> int:
    """How many objects the cyclic collector frees after ``action()``
    ran with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestFinishedProcesses:
    @staticmethod
    def body(sim, fail=False):
        yield sim.timeout(1)
        if fail:
            raise RuntimeError("nobody is listening")
        return 3

    def test_returned_process(self):
        sim = Simulator()

        def action():
            proc = sim.process(self.body(sim))
            sim.run()
            assert proc.value == 3

        assert cyclic_garbage(action) == 0

    def test_waited_on_process(self):
        sim = Simulator()

        def parent():
            return (yield sim.process(self.body(sim)))

        def action():
            proc = sim.process(parent())
            sim.run()
            assert proc.value == 3

        assert cyclic_garbage(action) == 0

    def test_spawned_process(self):
        sim = Simulator()

        def action():
            sim.spawn(self.body(sim))
            sim.run()
            assert sim.now == 1

        assert cyclic_garbage(action) == 0

    def test_spawned_process_that_raises(self):
        sim = Simulator()

        def action():
            sim.spawn(self.body(sim, fail=True))
            sim.run()
            assert sim.now == 1

        assert cyclic_garbage(action) == 0


def _cases():
    for name, scheme_cls in ALL_SCHEMES.items():
        for processing in (None, "md5"):
            if processing and processing not in scheme_cls.supported_processing:
                continue
            for faulty in (False, True):
                yield pytest.param(
                    scheme_cls, processing, faulty,
                    id=f"{name}-{processing or 'plain'}"
                       f"{'-flash-fault' if faulty else ''}")


def _payload(salt: int) -> bytes:
    return bytes((i * 13 + salt) % 256 for i in range(SIZE))


@pytest.mark.parametrize("scheme_cls,processing,faulty", list(_cases()))
def test_send_file_leaves_no_cyclic_garbage(scheme_cls, processing, faulty):
    # The warm-up reads flash once, so occurrence 3 is the second
    # measured send's read: it fails once and the retry recovers it.
    plan = (FaultPlan([FaultRule("flash.read", occurrences={3})])
            if faulty else None)
    tb = Testbed(seed=3, faults=plan)
    scheme = scheme_cls(tb)
    run_send(tb, scheme, _payload(0), "warm.dat", processing)

    def action():
        for index in range(SENDS):
            data = _payload(index + 1)
            result = run_send(tb, scheme, data, f"send-{index}.dat",
                              processing)
            assert result.bytes_moved == SIZE
            if processing:
                assert result.digest == hashlib.md5(data).digest()
            if hasattr(result, "received"):
                assert result.received == data

    assert cyclic_garbage(action) == 0
    if faulty:
        assert tb.sim.faults.injected == 1
