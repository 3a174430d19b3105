"""A fixed pure-Python reference workload that gauges the host's speed.

The benchmark shares a few cores of a host with other tenants.  Their
load moved the CPU time of one and the same round by up to 1.7x from
one minute to the next: contention for the core's caches and its
hyperthread sibling slows every instruction, so CPU time does not leave
it out.  Runs made minutes apart then disagree by more than any change
worth measuring.

So the benchmark times this workload between its rounds and scales
every timing to the speed the host had when :data:`REFERENCE_S` was
measured.  Over four minutes in which the medians of 30 s windows of
``swift-md5`` rounds moved from 1.07 s to 1.74 s (interquartile range
39 % of the median), the ratio of round to reference time moved by
5 %.  The workload is the benchmark's own code, never the simulator's,
so no change to the simulator moves it.  It imitates what the
simulator's host time is made of: an event loop that pops a heap and
resumes generator processes through callbacks on small event objects,
and a 32-bit mixing loop over ``struct``-unpacked words like the
pure-Python digests.
"""

from __future__ import annotations

import heapq
import struct
from typing import Callable, Dict

PROCESSES = 128
STEPS = 96
# CPU seconds one ``workload()`` takes on the unloaded reference host
# (2 vCPUs, Python 3.11): the unit of every scaled timing.
REFERENCE_S = 0.04


class _Loop:
    def __init__(self):
        self.now = 0
        self.sequence = 0
        self.heap: list = []

    def run(self) -> None:
        heap = self.heap
        while heap:
            self.now, _sequence, event = heapq.heappop(heap)
            for callback in event.callbacks:
                callback(event)


class _Event:
    def __init__(self, loop: _Loop, delay: int, value):
        self.value = value
        self.callbacks: list = []
        loop.sequence += 1
        heapq.heappush(loop.heap, (loop.now + delay, loop.sequence, self))


def _start(loop: _Loop, body) -> None:
    def resume(event: _Event) -> None:
        try:
            delay = body.send(event.value)
        except StopIteration:
            return
        _Event(loop, delay, delay).callbacks.append(resume)

    _Event(loop, 0, None).callbacks.append(resume)


def _body(index: int, block: bytes, counts: Dict[int, int]):
    acc = index
    for step in range(STEPS):
        words = struct.unpack("<16I", block)
        for word in words[step % 4 * 4:step % 4 * 4 + 4]:
            acc = (acc + word) & 0xFFFFFFFF
            acc = ((acc << 7) | (acc >> 25)) & 0xFFFFFFFF
        counts[acc & 255] = counts.get(acc & 255, 0) + 1
        yield (acc & 1023) + 1


def workload() -> Dict[int, int]:
    """Run the reference workload once; its result never varies."""
    loop = _Loop()
    counts: Dict[int, int] = {}
    block = bytes(range(64))
    for index in range(PROCESSES):
        _start(loop, _body(index, block, counts))
    loop.run()
    return counts


def seconds(clock: Callable[[], float]) -> float:
    """``clock`` time of one run of the reference workload."""
    started = clock()
    workload()
    return clock() - started
