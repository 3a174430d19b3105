"""Shared measurement helpers for the experiment runners."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cache
from typing import Dict, Optional, Tuple, Type

from repro.apps.workload import pattern_bytes
from repro.host.costs import CAT
from repro.schemes import ALL_SCHEMES, Testbed
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


def measure_send(scheme_cls: Type[Scheme], processing: Optional[str],
                 size: int = MICROBENCH_SIZE
                 ) -> Tuple[TransferResult, Dict[str, int]]:
    """One warm-up send_file, then the measured one, on a fresh testbed:
    its result and node0's CPU busy ns by category during it (read as a
    difference of snapshots, so metrics samples are a plain send's)."""
    with section(f"{scheme_cls.name}/{processing or 'none'}"):
        tb = fresh_testbed()
        scheme = scheme_cls(tb)
        data = pattern_bytes(size, 7)
        _run_one(tb, scheme, data, "warm-0.dat", processing)
        tracker = tb.node0.host.cpu.tracker
        before = tracker.by_category()
        sent = _run_one(tb, scheme, data, "measure.dat", processing)
        return sent, {category: busy - before.get(category, 0)
                      for category, busy in tracker.by_category().items()}


def _run_one(tb: Testbed, scheme: Scheme, data: bytes, name: str,
             processing: Optional[str]) -> TransferResult:
    tb.node0.host.install_file(name, data)
    conn = scheme.connect()

    def sender(sim):
        return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                            len(data),
                                            processing=processing))

    send_proc = tb.sim.process(sender(tb.sim))
    if conn.offloaded:
        tb.sim.run(until=send_proc)
        return send_proc.value
    dst = tb.node1.host.alloc_buffer(len(data))

    def receiver(sim):
        yield from tb.node1.host.kernel.socket_recv(conn.flow1, len(data),
                                                    dst)

    recv_proc = tb.sim.process(receiver(tb.sim))
    tb.sim.run(until=send_proc)
    tb.sim.run(until=recv_proc)
    tb.node1.host.free_buffer(dst, len(data))
    return send_proc.value


@dataclass(frozen=True)
class SendRun:
    """One measured send as plain data (no testbed reference)."""

    latency_us: float
    software_us: float              # total minus device-only time
    breakdown_us: Dict[str, float]  # LatencyTrace.breakdown_us()
    cpu_ns: int                     # node0 CPU busy ns during the send


@cache
def send_run(scheme_name: str, processing: Optional[str],
             size: int) -> SendRun:
    """:func:`measure_send` of one scheme, made once per process.

    Figs 3, 8 and 11, the size sweep and the headline share the runs.
    Schemes that share a path (:func:`shared_path`) are still measured
    under their own names, so each keeps its own trace.  Under a session,
    a run's events belong to the section that first asked for it.
    """
    sent, cpu_ns = measure_send(ALL_SCHEMES[scheme_name], processing, size)
    segs = sent.trace.breakdown_us()
    device = sum(segs.get(cat, 0.0) for cat in DEVICE_CATEGORIES)
    return SendRun(sent.latency_us, sent.latency_us - device, segs,
                   sum(cpu_ns.values()))


def shared_path(scheme_name: str) -> str:
    """The scheme whose data path ``scheme_name`` runs for sends that
    carry no processing (:attr:`Scheme.unprocessed_path`)."""
    return ALL_SCHEMES[scheme_name].unprocessed_path or scheme_name
