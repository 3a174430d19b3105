"""Shared measurement helpers for the experiment runners."""

from __future__ import annotations

import gc
from typing import Optional, Type

from repro.apps.workload import pattern_bytes
from repro.host.costs import CAT
from repro.schemes import Testbed
from repro.schemes.base import Scheme, TransferResult
from repro.sim.session import section
from repro.units import KIB

MICROBENCH_SIZE = 4 * KIB   # the paper's per-command transfer unit

# Latency-trace categories where only hardware is working.
DEVICE_CATEGORIES = (CAT.READ, CAT.WRITE, CAT.HASH, CAT.NDP, CAT.WIRE)

# The software components of Figs 3a/11, in display order.
SOFTWARE_CATEGORIES = (CAT.FILESYSTEM, CAT.NETWORK, CAT.DEVICE_CONTROL,
                       CAT.COMPLETION, CAT.GPU_COPY, CAT.GPU_CONTROL,
                       CAT.DATA_COPY, CAT.HDC_DRIVER, CAT.SCOREBOARD,
                       CAT.KERNEL_OTHER)


def fresh_testbed(**config) -> Testbed:
    """A new :class:`Testbed`, built after collecting the runs before it.

    A testbed is cyclic by design (device loops and the simulator refer
    to each other), so a dropped one waits for the cyclic collector.
    Finished processes leave no cyclic garbage, so automatic
    collections are rare; collecting here keeps a run of many
    experiments from holding every earlier testbed.  Tests build
    :class:`Testbed` directly and pay no collection.
    """
    gc.collect()
    return Testbed(**config)


def software_us(result: TransferResult) -> float:
    """Software-attributable latency (total minus device-only time)."""
    segs = result.trace.breakdown_us()
    device = sum(segs.get(cat, 0.0) for cat in DEVICE_CATEGORIES)
    return result.latency_us - device


def measure_send(scheme_cls: Type[Scheme], processing: Optional[str],
                 size: int = MICROBENCH_SIZE, seed: int = 5,
                 warmups: int = 1) -> TransferResult:
    """One steady-state send_file measurement on a fresh testbed."""
    with section(f"{scheme_cls.name}/{processing or 'none'}"):
        tb = fresh_testbed(seed=seed)
        scheme = scheme_cls(tb)
        data = pattern_bytes(size, 7)
        for index in range(warmups):
            _run_one(tb, scheme, data, f"warm-{index}.dat", processing)
        return _run_one(tb, scheme, data, "measure.dat", processing)


def _run_one(tb: Testbed, scheme: Scheme, data: bytes, name: str,
             processing: Optional[str]) -> TransferResult:
    tb.node0.host.install_file(name, data)
    conn = scheme.connect()

    def sender(sim):
        return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                            len(data),
                                            processing=processing))

    if conn.offloaded:
        proc = tb.sim.process(sender(tb.sim))
        tb.sim.run(until=proc)
        return proc.value
    dst = tb.node1.host.alloc_buffer(len(data))

    def receiver(sim):
        yield from tb.node1.host.kernel.socket_recv(conn.flow1, len(data),
                                                    dst)

    send_proc = tb.sim.process(sender(tb.sim))
    recv_proc = tb.sim.process(receiver(tb.sim))
    tb.sim.run(until=send_proc)
    tb.sim.run(until=recv_proc)
    tb.node1.host.free_buffer(dst, len(data))
    return send_proc.value


def measure_send_cpu(scheme_cls: Type[Scheme], processing: Optional[str],
                     size: int = MICROBENCH_SIZE, seed: int = 5
                     ) -> dict[str, float]:
    """CPU busy-time (ns per request, by category) of one steady-state
    send on node0."""
    with section(f"{scheme_cls.name}/cpu/{processing or 'none'}"):
        tb = fresh_testbed(seed=seed)
        scheme = scheme_cls(tb)
        data = pattern_bytes(size, 7)
        _run_one(tb, scheme, data, "warm.dat", processing)
        tb.node0.host.cpu.tracker.reset_window()
        _run_one(tb, scheme, data, "measure.dat", processing)
        return dict(tb.node0.host.cpu.tracker.by_category())
