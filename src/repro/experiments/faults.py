"""Fault sweep: D2D latency and goodput under injected media errors.

Not a figure from the paper — a robustness experiment over the same
four schemes: sweep the ``flash.read`` transient-error rate and
measure per-request p50/p99 latency, goodput, and how many requests
still fail after each layer's bounded retries.  Every cell runs on a
fresh seeded testbed with a fresh :class:`~repro.faults.FaultPlan`,
so the sweep is fully deterministic; the 0 %% row must match an
uninstrumented run exactly (the fault-free hot path is one branch per
injection site).
"""

from __future__ import annotations

from repro.apps.workload import pattern_bytes
from repro.experiments.common import fresh_testbed, shared_path
from repro.experiments.result import ExperimentResult
from repro.faults import FaultPlan, FaultRule
from repro.schemes import ALL_SCHEMES
from repro.sim.session import section
from repro.units import KIB

REQUEST_SIZE = 16 * KIB
REQUESTS = 24          # measured requests per cell (plus one warmup)
FAULT_RATES = (0.0, 0.05, 0.20)
SEED = 13


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _run_cell(scheme_cls, rate: float) -> dict:
    """One (scheme, fault-rate) cell: sequential requests on a fresh
    testbed, errors counted rather than raised."""
    plan = FaultPlan([FaultRule("flash.read", probability=rate)])
    tb = fresh_testbed(seed=SEED, faults=plan)
    scheme = scheme_cls(tb)
    data = pattern_bytes(REQUEST_SIZE, 7)
    latencies = []
    errors = 0
    ok_bytes = 0
    for index in range(REQUESTS + 1):
        name = f"req-{index}.dat"
        tb.node0.host.install_file(name, data)
        conn = scheme.connect()

        def sender(sim):
            return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                                REQUEST_SIZE))

        proc = tb.sim.process(sender(tb.sim))
        if not conn.offloaded:
            dst = tb.node1.host.alloc_buffer(REQUEST_SIZE)

            def receiver(sim):
                yield from tb.node1.host.kernel.socket_recv(
                    conn.flow1, REQUEST_SIZE, dst)

            tb.sim.spawn(receiver(tb.sim))
        tb.sim.run()   # drain: failed chains must also settle
        warmup = index == 0
        if proc.triggered and proc.ok:
            if not warmup:
                latencies.append(proc.value.latency_us)
                ok_bytes += REQUEST_SIZE
        elif not warmup:
            errors += 1
    tb.assert_no_leaks()
    # Goodput over time spent serving requests (not raw sim.now: the
    # inter-request drain waits out armed watchdog deadlines, which is
    # idle time, not service time).
    busy_ns = sum(latencies) * 1000.0
    return {
        "latencies": latencies,
        "errors": errors,
        "goodput_gbps": ok_bytes * 8 / busy_ns if busy_ns else 0.0,
        "injected": 0 if tb.sim.faults is None else tb.sim.faults.injected,
    }


def run_faults() -> ExperimentResult:
    result = ExperimentResult(
        name="Fault sweep: flash.read transient-error rate vs recovery "
             f"({REQUESTS} x {REQUEST_SIZE // KIB} KiB sends per cell)",
        headers=["scheme", "fault rate", "p50 us", "p99 us",
                 "goodput Gbps", "errors", "injected"])
    # The sends carry no processing, so schemes that share a path
    # (Scheme.unprocessed_path) share its cells.
    cells = {}
    for scheme_name in ALL_SCHEMES:
        path = shared_path(scheme_name)
        for rate in FAULT_RATES:
            if (path, rate) not in cells:
                with section(f"faults/{path}/{rate}"):
                    cells[path, rate] = _run_cell(ALL_SCHEMES[path], rate)
            cell = cells[path, rate]
            lat = cell["latencies"]
            p50 = _percentile(lat, 0.50) if lat else float("nan")
            p99 = _percentile(lat, 0.99) if lat else float("nan")
            result.add_row(scheme_name, f"{rate:.0%}", f"{p50:.1f}",
                           f"{p99:.1f}", f"{cell['goodput_gbps']:.3f}",
                           cell["errors"], cell["injected"])
            key = f"{scheme_name}_r{int(rate * 100)}"
            result.metrics[f"{key}_p99_us"] = p99
            result.metrics[f"{key}_errors"] = cell["errors"]
    result.notes.append(
        "transient media errors are retried with exponential backoff "
        "(host NVMe driver and engine NVMe controller); 'errors' counts "
        "requests that still failed after every retry budget")
    return result
