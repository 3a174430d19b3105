"""The completion-ring producer every device shares (devices/ring.py)."""

import pytest

from repro.devices.ring import RING_DMA_RETRIES, CompletionRing
from repro.errors import DeviceTimeout
from repro.sim.kernel import Simulator

BASE, SLOT, DEPTH = 0x1000, 16, 4


def _ring(lost=0):
    """A ring whose DMA times out ``lost[0]`` more times, then lands;
    returns it with its simulator, the landed writes and ``lost``."""
    writes = []
    failures = [lost]

    def dma_write(addr, data):
        yield sim.timeout(10)
        if failures[0]:
            failures[0] -= 1
            raise DeviceTimeout("lost")
        writes.append((addr, data))
        return len(data)

    sim = Simulator()
    ring = CompletionRing(BASE, SLOT, DEPTH, dma_write)
    return sim, ring, writes, failures


def _post(sim, ring, record=b"x"):
    proc = sim.process(ring.write(ring.claim(), record))
    sim.run()
    return proc.value


class TestCompletionRing:
    def test_slots_wrap_and_the_phase_flips_at_each_wrap(self):
        sim, ring, writes, _ = _ring()
        phases = []
        for _ in range(2 * DEPTH + 1):
            phases.append(ring.phase)
            assert _post(sim, ring)
        assert phases == [1] * DEPTH + [0] * DEPTH + [1]
        assert [addr for addr, _ in writes] == [
            BASE + (i % DEPTH) * SLOT for i in range(2 * DEPTH + 1)]
        assert ring.produced == 2 * DEPTH + 1

    @pytest.mark.parametrize("lost", range(1, 1 + RING_DMA_RETRIES))
    def test_lost_attempts_are_written_again_up_to_the_cap(self, lost):
        sim, ring, writes, _ = _ring(lost)
        assert _post(sim, ring, b"cqe")
        assert writes == [(BASE, b"cqe")]
        assert ring.produced == 1
        assert sim.now == 10 * (1 + lost)

    def test_a_give_back_at_the_wrap_restores_the_phase(self):
        sim, ring, writes, failures = _ring()
        for _ in range(DEPTH - 1):
            _post(sim, ring)
        assert ring.phase == 1
        failures[0] = 1 + RING_DMA_RETRIES
        assert not _post(sim, ring, b"lost")
        assert (ring.produced, ring.phase) == (DEPTH - 1, 1)
        assert _post(sim, ring, b"next")
        assert writes[-1] == (BASE + (DEPTH - 1) * SLOT, b"next")
        assert (ring.produced, ring.phase) == (DEPTH, 0)
