"""The benchmark's three workloads, driven through the simulator's public API.

A workload is run in *rounds*.  One round sets up a fresh seeded
:class:`~repro.schemes.Testbed` per scheme (bring-up, input generation
and one untimed 4 KiB warm-up transfer), then runs the workload's
*steps* on each testbed in turn, checking every step's outcome after
it finishes.  Every round of one seed repeats the same simulation, so
its simulated results must come out identical; the benchmark hashes
them into a fingerprint and compares rounds, and passes, against each
other and against the committed reference.

Only the simulator's public surface is used: ``Testbed``, the scheme
operations, the Swift application runner, ``TraceSession``,
``MetricsSession`` and ``FaultPlan``.  Reading results back goes through
``Host.alloc_buffer``/``fabric.peek``/``fabric.poke`` and the file
system's extents, the same back doors the test suite uses.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Type

from repro.apps import SwiftConfig, WorkloadConfig, run_swift
from repro.apps.workload import RequestKind, requests
from repro.faults import FaultPlan, FaultRule
from repro.metrics import MetricsSession
from repro.schemes import ALL_SCHEMES, Scheme, Testbed
from repro.trace import TraceSession
from repro.units import KIB

XFER_SIZE = 4 * KIB           # the paper's per-command transfer unit
D2D_OPS_PER_SCHEME = 16       # alternating send / receive, 8 of each
OBSERVED_OPS_PER_SCHEME = 4   # the first four of them, with the planes on
FAULT_RATE = 0.05             # flash.read media-error rate when observed
SWIFT_MAX_OBJECT = 256 * KIB
SWIFT_ARRIVAL_RATE = 3000.0   # Fig 12a's offered load
SWIFT_PUT_RATIO = 0.4
# Object sizes of one scheme's requests, the same for every seed: one
# of the likeliest 5-request Dropbox mixes at 60:40 GET:PUT (344 KiB),
# with an object of 64 KiB or more on each path.
SWIFT_MIX = {RequestKind.GET: (4 * KIB, 16 * KIB, 64 * KIB),
             RequestKind.PUT: (4 * KIB, 256 * KIB)}
SWIFT_SEARCH = 1 << 20        # request streams tried per seed, at most
FAULT_COUNTERS = ("faults.injected", "faults.retries", "faults.aborts")

SRC_FILE = "bench-src.dat"
DST_FILE = "bench-dst.dat"


@dataclass
class Step:
    """One timed unit of work and the oracle that judges it."""

    run: Callable[[], Any]       # the timed work; returns what check needs
    check: Callable[[Any], bool]  # untimed; True when the outcome is right
    ops: int                     # operations the step performs
    payload: int                 # simulated payload bytes it delivers
    per_op: bool                 # True when the step is a single op


def _drain(sim, *bodies) -> list:
    """Start one process per generator and run until the queue drains."""
    procs = [sim.process(body) for body in bodies]
    sim.run()
    return procs


def _succeeded(proc) -> bool:
    return proc.triggered and proc.ok


@contextmanager
def _faults_detached(sim):
    """Suspend fault injection, so a read-back neither fails nor draws
    from the plan's random streams."""
    faults, sim.faults = sim.faults, None
    try:
        yield
    finally:
        sim.faults = faults


def _read_file(host, name: str, offset: int, size: int) -> bytes:
    """Bytes ``[offset, offset+size)`` of a file (block-aligned offset),
    straight off the flash."""
    ssd = host.ssds[host.fs.volume_of(name)]
    with _faults_detached(host.sim):
        data = b"".join(
            ssd.flash.read_blocks(extent.slba, extent.nblocks)
            for extent in host.fs.extents_for(name, offset, size))
    return data[:size]


def _peek_next_buffer(host, size: int) -> bytes:
    """What the next ``alloc_buffer`` would hand out: after a client
    receive frees its buffer, that is the buffer the data landed in."""
    addr = host.alloc_buffer(size)
    try:
        return host.fabric.peek(addr, size)
    finally:
        host.free_buffer(addr, size)


def _stage_next_buffer(host, data: bytes) -> None:
    """Put ``data`` where the next ``alloc_buffer`` will point, so a
    client send transmits it."""
    addr = host.alloc_buffer(len(data))
    host.fabric.poke(addr, data)
    host.free_buffer(addr, len(data))


def _cpu(host) -> Dict[str, float]:
    return dict(sorted(host.cpu.utilization_by_category().items()))


class Bench:
    """One scheme on its own seeded testbed, set up and warmed."""

    def __init__(self, scheme_cls: Type[Scheme], seed: int,
                 faults: Optional[FaultPlan] = None):
        self.tb = Testbed(seed=seed, faults=faults)
        self.scheme = scheme_cls(self.tb)
        self.record: Dict[str, Any] = {"scheme": self.scheme.name}
        self.failed = False

    def warm_up(self, data: bytes) -> None:
        """One untimed SSD->NIC transfer of ``data`` on a fresh connection."""
        tb, scheme = self.tb, self.scheme
        name = "bench-warm.dat"
        tb.node0.host.install_file(name, data)
        conn = scheme.connect()
        server, client = _drain(
            tb.sim,
            scheme.send_file(tb.node0, conn, name, 0, len(data)),
            scheme.client_recv(tb.node1, conn, len(data)))
        if not (_succeeded(server) and _succeeded(client)):
            self.failed = True

    def steps(self) -> Iterator[Step]:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> None:
        """Leak check once the testbed has drained."""
        try:
            self.tb.assert_no_leaks()
        except AssertionError as exc:
            self.failed = True
            self.record["leaks"] = str(exc)


class D2DBench(Bench):
    """Sequential 4 KiB transfers: SSD->NIC sends alternate with NIC->SSD
    receives, each driven to a drained queue."""

    def __init__(self, scheme_cls, seed: int, faults: bool, ops: int):
        plan = (FaultPlan([FaultRule("flash.read", probability=FAULT_RATE)])
                if faults else None)
        super().__init__(scheme_cls, seed, plan)
        rng = random.Random(seed)
        self.payloads = [rng.randbytes(XFER_SIZE)
                         for _ in range(D2D_OPS_PER_SCHEME)][:ops]
        host0 = self.tb.node0.host
        host0.install_file(SRC_FILE, b"".join(self.payloads[0::2]))
        host0.install_file(DST_FILE, bytes(len(self.payloads[1::2])
                                           * XFER_SIZE))
        self.conn = self.scheme.connect()
        self.warm_up(rng.randbytes(XFER_SIZE))
        self.tb.reset_cpu_windows()
        self.record["ops"] = []

    def _send(self, offset: int):
        tb, scheme = self.tb, self.scheme
        start = tb.sim.now
        procs = _drain(
            tb.sim,
            scheme.send_file(tb.node0, self.conn, SRC_FILE, offset,
                             XFER_SIZE),
            scheme.client_recv(tb.node1, self.conn, XFER_SIZE))
        return start, procs

    def _recv(self, offset: int):
        tb, scheme = self.tb, self.scheme
        start = tb.sim.now
        procs = _drain(
            tb.sim,
            scheme.receive_to_file(tb.node0, self.conn, DST_FILE, offset,
                                   XFER_SIZE),
            scheme.client_send(tb.node1, self.conn, XFER_SIZE))
        return start, procs

    def _checker(self, kind: str, offset: int, payload: bytes):
        def check(outcome) -> bool:
            start, (server, client) = outcome
            if not (_succeeded(server) and _succeeded(client)):
                self.record["ops"].append([kind, "failed"])
                return False
            result = server.value
            if kind == "send":
                landed = _peek_next_buffer(self.tb.node1.host, XFER_SIZE)
            else:
                landed = _read_file(self.tb.node0.host, DST_FILE, offset,
                                    XFER_SIZE)
            self.record["ops"].append([
                kind, result.latency_us, self.tb.sim.now - start,
                hashlib.md5(landed).hexdigest()])
            return (landed == payload and result.bytes_moved == XFER_SIZE
                    and client.value == XFER_SIZE)
        return check

    def steps(self) -> Iterator[Step]:
        for index, payload in enumerate(self.payloads):
            offset = (index // 2) * XFER_SIZE
            if index % 2 == 0:
                run = lambda offset=offset: self._send(offset)  # noqa: E731
                kind = "send"
            else:
                _stage_next_buffer(self.tb.node1.host, payload)
                run = lambda offset=offset: self._recv(offset)  # noqa: E731
                kind = "recv"
            yield Step(run=run, check=self._checker(kind, offset, payload),
                       ops=1, payload=XFER_SIZE, per_op=True)

    def finish(self) -> None:
        super().finish()
        tb = self.tb
        self.record["cpu"] = [_cpu(tb.node0.host), _cpu(tb.node1.host)]
        self.record["sim_ns"] = tb.sim.now
        self.record["gbps"] = (len(self.payloads) * XFER_SIZE * 8
                               / tb.sim.now if tb.sim.now else 0.0)


@lru_cache(maxsize=None)
def swift_config(seed: int) -> SwiftConfig:
    """Fig 12a's Swift shape, with the same request sizes for every seed.

    Dropbox sizes are heavy-tailed, so a fixed request count moves a
    different mix of GET and PUT bytes per seed, and the host time with
    it.  Take the first request stream seeded ``seed * SWIFT_SEARCH + j``
    whose GET and PUT sizes are exactly ``SWIFT_MIX``; the seed still
    picks their order, arrival times and contents.  The search takes
    about 250 streams, and its result is cached, so it is timed in no
    set-up but the first.
    """
    shape = dict(arrival_rate=SWIFT_ARRIVAL_RATE, put_ratio=SWIFT_PUT_RATIO,
                 max_object=SWIFT_MAX_OBJECT)
    count = sum(len(sizes) for sizes in SWIFT_MIX.values())
    for stream_seed in range(seed * SWIFT_SEARCH, (seed + 1) * SWIFT_SEARCH):
        workload = WorkloadConfig(count=count, seed=stream_seed, **shape)
        drawn = {kind: [] for kind in SWIFT_MIX}
        for request in requests(workload):
            drawn[request.kind].append(request.size)
        if all(tuple(sorted(drawn[kind])) == sizes
               for kind, sizes in SWIFT_MIX.items()):
            return SwiftConfig(workload=workload, connections=4,
                               integrity="md5")
    raise RuntimeError(f"no request stream of seed {seed} has the mix "
                       f"{SWIFT_MIX}")


class SwiftBench(Bench):
    """One ``run_swift`` call: Poisson GET/PUT arrivals with MD5."""

    def __init__(self, scheme_cls, seed: int, config: SwiftConfig):
        super().__init__(scheme_cls, seed)
        self.config = config
        self.expected = {RequestKind.GET: 0, RequestKind.PUT: 0}
        for request in requests(config.workload):
            self.expected[request.kind] += request.size
        self.warm_up(random.Random(seed).randbytes(XFER_SIZE))

    def _check(self, run) -> bool:
        latencies = run.latencies
        self.record.update(
            sim_ns=run.duration_ns, bytes_get=run.bytes_get,
            bytes_put=run.bytes_put, requests=run.requests_done,
            gbps=run.throughput_gbps, cpu=dict(sorted(run.server_cpu.items())),
            latency_us=[latencies.count, latencies.mean(), latencies.min(),
                        latencies.max(), latencies.percentile(50),
                        latencies.percentile(99)])
        count = self.config.workload.count
        return (run.requests_done == count and latencies.count == count
                and run.bytes_get == self.expected[RequestKind.GET]
                and run.bytes_put == self.expected[RequestKind.PUT])

    def steps(self) -> Iterator[Step]:
        yield Step(run=lambda: run_swift(self.scheme, self.config),
                   check=self._check, ops=self.config.workload.count,
                   payload=sum(self.expected.values()), per_op=False)


class Planes:
    """The trace and metrics sessions of one observed round."""

    def __init__(self):
        self.trace = TraceSession(label="perfbench")
        self.metrics = MetricsSession(label="perfbench")

    @contextmanager
    def installed(self):
        """Equip every testbed built inside the block with both planes."""
        self.trace.install()
        self.metrics.install()
        try:
            yield
        finally:
            self.metrics.uninstall()
            self.trace.uninstall()

    def finish(self) -> Dict[str, int]:
        """Close both planes; their exact counts."""
        self.trace.finalize()
        self.metrics.finalize()
        counts = dict.fromkeys(FAULT_COUNTERS, 0)
        rows = 0
        for metric_set in self.metrics.sets:
            rows += len(metric_set.rows)
            final = {}
            for _tick, metric, value in metric_set.rows:
                if metric.name in counts:
                    final[metric] = value
            for metric, value in final.items():
                counts[metric.name] += int(value)
        counts["metrics.rows"] = rows
        counts["trace.spans"] = sum(
            1 for event in self.trace.all_events()
            if event.duration is not None)
        return counts


@dataclass(frozen=True)
class Workload:
    """A named workload: its schemes and how to set up one round."""

    name: str
    why: str
    schemes: tuple
    kind: str                # "d2d" or "swift"
    observed: bool = False   # trace + metrics sessions and a fault plan
    ops_per_scheme: int = D2D_OPS_PER_SCHEME   # d2d only

    def config(self, seed: int) -> Dict[str, Any]:
        """Everything that fixes this workload's inputs, for the record."""
        out: Dict[str, Any] = {"schemes": list(self.schemes), "seed": seed,
                               "testbed_seed": seed}
        if self.kind == "d2d":
            out.update(xfer_bytes=XFER_SIZE, ops_per_scheme=self.ops_per_scheme,
                       payload_seed=seed, observed=self.observed,
                       flash_read_fault_rate=(FAULT_RATE if self.observed
                                              else 0.0))
        else:
            swift = swift_config(seed)
            out.update(requests=swift.workload.count,
                       request_seed=swift.workload.seed,
                       arrival_rate=swift.workload.arrival_rate,
                       put_ratio=swift.workload.put_ratio,
                       max_object=swift.workload.max_object,
                       connections=swift.connections,
                       integrity=swift.integrity)
        return out

    def setup(self, seed: int) -> "Round":
        """Build and warm every scheme's testbed; generate the inputs."""
        planes = Planes() if self.observed else None
        classes = [ALL_SCHEMES[name] for name in self.schemes]
        if self.kind == "d2d":
            with planes.installed() if planes else nullcontext():
                benches = [D2DBench(cls, seed, faults=self.observed,
                                    ops=self.ops_per_scheme)
                           for cls in classes]
        else:
            config = swift_config(seed)
            benches = [SwiftBench(cls, seed, config) for cls in classes]
        return Round(benches, planes)


class Round:
    """One set-up pass over every scheme of a workload."""

    def __init__(self, benches: List[Bench], planes: Optional[Planes]):
        self.benches = benches
        self.planes = planes
        self.attempted = 0
        self.failed = 0
        self.counts: Dict[str, int] = {}

    def run(self, execute: Callable[[Step], Any]) -> None:
        """Run every step through ``execute`` (which times or profiles
        it), check each outcome, then close the round."""
        for bench in self.benches:
            bench_ops = 0
            bench_failed = 0
            for step in bench.steps():
                outcome = execute(step)
                bench_ops += step.ops
                if not step.check(outcome):
                    bench_failed += step.ops
            bench.finish()
            if bench.failed:
                bench_failed = bench_ops
            self.attempted += bench_ops
            self.failed += bench_failed
        self.counts = dict.fromkeys(FAULT_COUNTERS, 0)
        self.counts.update({"metrics.rows": 0, "trace.spans": 0})
        if self.planes is not None:
            self.counts.update(self.planes.finish())
        for bench in self.benches:
            faults = bench.tb.sim.faults
            if faults is not None and faults.injected:
                bench.record["faults_injected"] = faults.injected

    def fingerprint(self) -> str:
        """SHA-256 over every simulated result of the round (latencies,
        CPU utilization, throughput, digests, fault counts), and no
        event counts."""
        faults = {name: self.counts.get(name, 0) for name in FAULT_COUNTERS}
        blob = repr(([bench.record for bench in self.benches], faults))
        return hashlib.sha256(blob.encode()).hexdigest()


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="swift-md5",
            why="Fig 12a Swift GET/PUT with MD5 integrity: payload-digest "
                "bound, both SSD->NIC and NIC->SSD paths",
            schemes=("sw-opt", "sw-p2p", "dcs-ctrl"), kind="swift"),
        Workload(
            name="d2d-4k",
            why="sequential 4 KiB SSD->NIC and NIC->SSD transfers on all "
                "four schemes: control-path and event-kernel bound, no "
                "payload work",
            schemes=tuple(ALL_SCHEMES), kind="d2d"),
        Workload(
            name="d2d-4k-observed",
            why="the first 4 ops per scheme of d2d-4k's stream with trace, "
                "metrics and a 5% flash.read fault plan installed: the only "
                "run of the observation planes",
            schemes=tuple(ALL_SCHEMES), kind="d2d", observed=True,
            ops_per_scheme=OBSERVED_OPS_PER_SCHEME),
    )
}
