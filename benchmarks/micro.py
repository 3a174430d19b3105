"""Layer microbenchmark: what one fabric DMA and one kernel event cost
in host time.

Usage, from the root of a checkout::

    PYTHONPATH=src python benchmarks/micro.py

Prints host nanoseconds per uncontended cross-fabric ``dma_write`` and
``dma_read`` (64 B and 4 KiB), per DMA of a contended pair (two
initiators writing into one target's RX), bare-kernel timeouts per
second, and host nanoseconds per spawn-and-finish of an empty process,
per uncontended ``CpuPool.run``, per uncontended ``Lanes.acquire()`` /
``release()`` pair and per ``LatencyTrace.span`` block.  With the
observation planes on, it prints host nanoseconds per uncontended 64 B
``dma_write`` under a ``TraceSession`` and a ``MetricsSession``, per
``Tracer.begin`` + ``Span.end`` pair and per ``TimeWeightedGauge.inc``.  Each figure is
the best of a few repeats of a fixed batch, so the run takes a few
seconds.  Last, per scheme, it prints the objects a 4 KiB ``send_file``
leaves for the cyclic garbage collector (0 expected: a finished process
is freed by reference counting) and the KiB a testbed warmed by one
such send holds (``tracemalloc``: the regions' written pages, the
allocators' chunk maps, rings and device state).  It asserts nothing:
it is a probe for profiling work, and CI runs it only to keep it
working.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

from repro.analysis import LatencyTrace
from repro.host import CpuPool
from repro.memory import MemoryRegion
from repro.metrics import MetricSet, MetricsSession
from repro.pcie import Fabric, LINK_GEN2_X8
from repro.schemes import ALL_SCHEMES, Testbed
from repro.sim import Lanes, Simulator
from repro.trace import Tracer, TraceSession
from repro.units import KIB, MIB

REPEATS = 5
DMAS = 4_000
TIMEOUTS = 100_000
OPS = 50_000
SENDS = 4
HOST_BASE = 0x0000_0000
ENGINE_BASE = 0x4000_0000


def _fabric():
    sim = Simulator()
    fabric = Fabric(sim)
    for port in ("host", "nic", "engine"):
        fabric.add_port(port, LINK_GEN2_X8)
    fabric.add_region(MemoryRegion("host-dram", base=HOST_BASE, size=MIB,
                                   port="host", access_latency=90))
    fabric.add_region(MemoryRegion("engine-ddr3", base=ENGINE_BASE,
                                   size=MIB, port="engine"))
    return sim, fabric


@contextmanager
def _planes():
    """Trace and metrics sessions installed around the block."""
    with TraceSession(label="micro"), MetricsSession(label="micro"):
        yield


def _best_ns_per_op(build, ops, planes=False):
    """Best host ns per op over ``REPEATS`` runs of ``build()``'s sim,
    built and run with both observation planes on when ``planes``."""
    best = float("inf")
    for _ in range(REPEATS):
        with _planes() if planes else nullcontext():
            sim = build()
            start = time.perf_counter()  # simlint: disable=DET002
            sim.run()
            elapsed = time.perf_counter() - start  # simlint: disable=DET002
            best = min(best, elapsed)
    return best * 1e9 / ops


def uncontended(kind: str, size: int, planes: bool = False) -> float:
    """One initiator, back-to-back DMAs engine -> host memory."""

    def build():
        sim, fabric = _fabric()
        payload = bytes(size)

        def body():
            for _ in range(DMAS):
                if kind == "write":
                    yield from fabric.dma_write("engine", HOST_BASE, payload)
                else:
                    yield from fabric.dma_read("engine", HOST_BASE, size)

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, DMAS, planes)


def contended(size: int) -> float:
    """Two initiators writing into the engine: every DMA of the pair
    queues on, or hands over, the engine's RX direction."""

    def build():
        sim, fabric = _fabric()
        payload = bytes(size)

        def writer(port):
            for _ in range(DMAS // 2):
                yield from fabric.dma_write(port, ENGINE_BASE, payload)

        sim.spawn(writer("host"))
        sim.spawn(writer("nic"))
        return sim

    return _best_ns_per_op(build, DMAS)


def timeouts_per_second() -> float:
    """Bare kernel: one process yielding 1 ns timeouts."""

    def build():
        sim = Simulator()

        def body():
            for _ in range(TIMEOUTS):
                yield sim.timeout(1)

        sim.spawn(body())
        return sim

    return 1e9 / _best_ns_per_op(build, TIMEOUTS)


def spawn_and_finish() -> float:
    """Spawn an empty process and run it to its end."""

    def build():
        sim = Simulator()

        def empty():
            return
            yield  # a generator that ends at its first resumption

        for _ in range(OPS):
            sim.spawn(empty())
        return sim

    return _best_ns_per_op(build, OPS)


def cpu_run() -> float:
    """One stage after another on a free core, ``cost`` 1 ns each (the
    timeout it waits on included)."""

    def build():
        sim = Simulator()
        pool = CpuPool(sim, cores=1)

        def body():
            for _ in range(OPS):
                yield from pool.run(1, "work")

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, OPS)


def lanes_acquire_release() -> float:
    """Take a free lane with ``Lanes.acquire()``, release it."""

    def build():
        sim = Simulator()
        lanes = Lanes(sim)

        def body():
            for _ in range(OPS):
                yield from lanes.acquire()
                lanes.release()

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, OPS)


def latency_span() -> float:
    """An empty ``with trace.span(category):`` block."""

    def build():
        sim = Simulator()
        trace = LatencyTrace(sim)

        def body():
            for _ in range(OPS):
                with trace.span("stage"):
                    pass
            yield sim.timeout(0)

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, OPS)


def span_begin_end() -> float:
    """Open a span and close it at once, on a bare tracer."""

    def build():
        sim = Simulator()
        tracer = Tracer(sim, label="micro")

        def body():
            for _ in range(OPS):
                tracer.begin("tlp.send", track="link:engine").end()
            yield sim.timeout(0)

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, OPS)


def timegauge_inc() -> float:
    """Raise a time-weighted gauge, as a DMA does per link direction."""

    def build():
        sim = Simulator()
        gauge = MetricSet(sim, label="micro", interval_ns=1).timegauge(
            "pcie.link.inflight_bytes", node="fabric", link="engine",
            dir="tx")

        def body():
            for _ in range(OPS):
                gauge.inc(64)
            yield sim.timeout(0)

        sim.spawn(body())
        return sim

    return _best_ns_per_op(build, OPS)


def cyclic_garbage_per_send(scheme_cls) -> float:
    """Objects the cyclic collector finds per 4 KiB ``send_file`` on a
    warm testbed, the sends run with the collector off."""
    tb = Testbed(seed=5)
    scheme = scheme_cls(tb)
    data = bytes(4 * KIB)

    def send(name):
        tb.node0.host.install_file(name, data)
        conn = scheme.connect()
        tb.sim.spawn(scheme.send_file(tb.node0, conn, name, 0, len(data)))
        tb.sim.spawn(scheme.client_recv(tb.node1, conn, len(data)))
        tb.sim.run()

    send("warm.dat")
    gc.collect()
    gc.disable()
    try:
        for index in range(SENDS):
            send(f"send-{index}.dat")
        return gc.collect() / SENDS
    finally:
        gc.enable()


def warmed_testbed_kib(scheme_cls) -> float:
    """KiB of Python memory a testbed holds once one 4 KiB
    ``send_file`` has run on it (a warm-up testbed is built first, so
    imports and process-wide caches are not counted)."""

    def warmed():
        tb = Testbed(seed=5)
        scheme = scheme_cls(tb)
        tb.node0.host.install_file("warm.dat", bytes(4 * KIB))
        conn = scheme.connect()
        tb.sim.spawn(scheme.send_file(tb.node0, conn, "warm.dat", 0,
                                      4 * KIB))
        tb.sim.spawn(scheme.client_recv(tb.node1, conn, 4 * KIB))
        tb.sim.run()
        return tb

    warmed()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        tb = warmed()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del tb  # alive until the second snapshot
    return sum(stat.size_diff
               for stat in after.compare_to(before, "filename")) / KIB


def main() -> None:
    for kind in ("write", "read"):
        for size in (64, 4 * KIB):
            print(f"dma_{kind:5s} {size:5d} B uncontended: "
                  f"{uncontended(kind, size):8.0f} host ns/DMA")
    for size in (64, 4 * KIB):
        print(f"dma_write {size:5d} B contended pair: "
              f"{contended(size):8.0f} host ns/DMA")
    print(f"kernel timeouts: {timeouts_per_second():,.0f} per host second")
    print(f"spawn + finish, empty process: {spawn_and_finish():8.0f} host ns")
    print(f"CpuPool.run, uncontended:      {cpu_run():8.0f} host ns")
    print(f"Lanes acquire + release:       "
          f"{lanes_acquire_release():8.0f} host ns")
    print(f"LatencyTrace.span block:       {latency_span():8.0f} host ns")
    print("with the trace and metrics planes on:")
    print(f"dma_write    64 B uncontended: "
          f"{uncontended('write', 64, planes=True):8.0f} host ns/DMA")
    print(f"Tracer.begin + Span.end:       {span_begin_end():8.0f} host ns")
    print(f"TimeWeightedGauge.inc:         {timegauge_inc():8.0f} host ns")
    print("per scheme: objects left for the cyclic collector per 4 KiB "
          "send_file, KiB a warmed testbed holds:")
    for name, scheme_cls in ALL_SCHEMES.items():
        print(f"{name:10s} {cyclic_garbage_per_send(scheme_cls):8.1f} "
              f"{warmed_testbed_kib(scheme_cls):8.0f} KiB")


if __name__ == "__main__":
    main()
