"""An OpenStack-Swift-like object server (paper §V-C1).

The served path is exactly what the paper measures: a client sends REST
PUT/GET requests; the storage server moves object data between SSD and
NIC with MD5 data-integrity processing in between, using whichever
scheme is under test (GPU offload for the software baselines, NDP for
DCS-ctrl).

Server-side request handling (HTTP parse, auth, ring lookup) costs CPU
per request on top of the data path; it is identical across schemes,
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.host.costs import CAT
from repro.apps.workload import (Request, RequestKind, WorkloadConfig,
                                 pattern_bytes, requests)
from repro.schemes.base import Scheme
from repro.sim.resources import Store
from repro.sim.stats import Histogram
from repro.units import SEC, to_usec, usec


@dataclass(frozen=True)
class SwiftConfig:
    """One Swift run."""

    workload: WorkloadConfig = WorkloadConfig()
    connections: int = 4
    # Swift's Python proxy/object-server work per request (HTTP parse,
    # auth, ring lookup, ETag bookkeeping) — scheme-independent, and a
    # big share of real deployments' CPU.
    request_cpu: int = usec(40)
    integrity: str = "md5"         # Table II: Swift checks MD5


@dataclass
class SwiftRun:
    """Results of one Swift run."""

    scheme: str
    duration_ns: int
    bytes_get: int
    bytes_put: int
    requests_done: int
    server_cpu: Dict[str, float]      # utilization by category
    latencies: Histogram = field(default_factory=Histogram)

    @property
    def throughput_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return ((self.bytes_get + self.bytes_put) * 8
                / (self.duration_ns / SEC) / 1e9)

    @property
    def server_cpu_total(self) -> float:
        return sum(self.server_cpu.values())


def run_swift(scheme: Scheme, config: SwiftConfig) -> SwiftRun:
    """Execute a Swift workload on ``scheme``'s testbed; node0 serves."""
    tb = scheme.tb
    sim = tb.sim
    server = tb.node0
    client = tb.node1
    reqs = requests(config.workload)

    # Pre-install one GET object per distinct size and per-connection
    # PUT targets (the paper pre-loads its datasets).
    get_names: Dict[int, str] = {}
    for request in reqs:
        if request.kind is RequestKind.GET and request.size not in get_names:
            name = f"swift-get-{request.size}.dat"
            server.host.install_file(name, pattern_bytes(request.size, 31))
            get_names[request.size] = name
    put_names: List[str] = []
    for index in range(config.connections):
        name = f"swift-put-{index}.dat"
        server.host.install_file(name, bytes(config.workload.max_object))
        put_names.append(name)

    conn_pool = Store(sim)
    for index in range(config.connections):
        conn_pool.put((index, scheme.connect()))

    stats = SwiftRun(scheme=scheme.name, duration_ns=0, bytes_get=0,
                     bytes_put=0, requests_done=0, server_cpu={})
    start = sim.now
    tb.reset_cpu_windows()
    done_events = []

    # Software designs shuttle object bytes through Swift's Python
    # process; DCS-ctrl replaces those routines with one API call, so
    # the per-byte user-space handling disappears (paper §IV-A).
    offloaded = scheme.uses_offloaded_connections()

    def handle(request: Request):
        index, conn = yield conn_pool.get()
        began = sim.now
        # Request handling on the server (HTTP/proxy), scheme-agnostic.
        app_cpu = config.request_cpu
        if not offloaded:
            app_cpu += server.host.costs.copy_cost(request.size)
        yield from server.host.cpu.run(app_cpu, CAT.APPLICATION)
        if request.kind is RequestKind.GET:
            server_op = scheme.send_file(
                server, conn, get_names[request.size], 0, request.size,
                processing=config.integrity)
            client_op = scheme.client_recv(client, conn, request.size)
            stats.bytes_get += request.size
        else:
            server_op = scheme.receive_to_file(
                server, conn, put_names[index], 0, request.size,
                processing=config.integrity)
            client_op = scheme.client_send(client, conn, request.size)
            stats.bytes_put += request.size
        server_proc = sim.process(server_op)
        client_proc = sim.process(client_op)
        yield sim.all_of([server_proc, client_proc])
        stats.latencies.add(to_usec(sim.now - began))
        stats.requests_done += 1
        yield conn_pool.put((index, conn))

    def arrivals():
        t0 = sim.now
        for request in reqs:
            wait = (t0 + request.arrival) - sim.now
            if wait > 0:
                yield sim.timeout(wait)
            done_events.append(sim.process(handle(request)))

    arrival_proc = sim.process(arrivals())
    sim.run(until=arrival_proc)
    for event in done_events:
        sim.run(until=event)

    stats.duration_ns = sim.now - start
    stats.server_cpu = server.host.cpu.utilization_by_category()
    return stats
