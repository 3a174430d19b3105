"""Golden-trace determinism: same seed => byte-identical JSONL."""

import hashlib

from repro.core.command import D2DKind
from repro.experiments.common import measure_send
from repro.faults import FaultPlan, FaultRule
from repro.schemes import DcsCtrlScheme, SwOptScheme, SwP2pScheme, Testbed
from repro.trace import TraceSession, jsonl_lines, to_chrome
from repro.units import KIB

# sha256 of the "\n"-joined JSONL of each pinned run.  The records hold
# only ints and strings, so the digests are stable across Python
# versions; a change that moves any span, instant or argument fails here.
GOLDEN_JSONL_SHA256 = {
    "dcs-ctrl-md5": (
        "865e95c2aa8c3c337afa812eff4f9fa32eb1aef3ea035ef35d58513e30ee907f"),
    "sw-opt": (
        "e0c2eea312a423aba66fc2812f58ac0f9da625f690c55fb485c5aaf727709ef1"),
    "nvme-retries": (
        "ca223c23e5758f7cf069a783633b31baadecc7848c6cb932455b2b4bf1ee77a7"),
    "sw-p2p-md5": (
        "4671240f5680190dc32c9c71795d09530fc9ac0fe3c9a83e9d0e62ab6c46f1f6"),
    "interleaved-dcs-ctrl": (
        "462cf126e84dbe2fbd46ac91202bf9d7b77cc663fe996b787075d5a9b4b6b129"),
    "interleaved-sw-opt": (
        "389efb82f70da444463505397236921ac43e1f9fd6cdfbc42cad18be0f6a5630"),
}


def _traced_run(scheme_cls, processing):
    with TraceSession(label="golden") as session:
        measure_send(scheme_cls, processing)
    return session


def _interleaved_run(scheme_cls, seed=11):
    """Three concurrent transfers on distinct flows under one trace."""
    with TraceSession(label="interleaved") as session:
        tb = Testbed(seed=seed)
        scheme = scheme_cls(tb)
        procs = []
        buffers = []
        for index, size in enumerate((2 * KIB, 4 * KIB, 3 * KIB)):
            name = f"file-{index}.dat"
            data = bytes((i * 11 + index) % 256 for i in range(size))
            tb.node0.host.install_file(name, data)
            conn = scheme.connect()

            def sender(sim, conn=conn, name=name, size=size):
                return (yield from scheme.send_file(
                    tb.node0, conn, name, 0, size, processing=None))

            procs.append(tb.sim.process(sender(tb.sim)))
            if not conn.offloaded:
                dst = tb.node1.host.alloc_buffer(size)

                def receiver(sim, conn=conn, size=size, dst=dst):
                    yield from tb.node1.host.kernel.socket_recv(
                        conn.flow1, size, dst)

                procs.append(tb.sim.process(receiver(tb.sim)))
                buffers.append((dst, size))
        for proc in procs:
            tb.sim.run(until=proc)
        for dst, size in buffers:
            tb.node1.host.free_buffer(dst, size)
    return "\n".join(jsonl_lines(session))


def _nvme_retry_run():
    """A host-path read and an engine D2D read under one fault plan: the
    first flash read fails (host NVMe retry) and the third CQE is lost
    (engine NVMe watchdog + retry)."""
    plan = FaultPlan([FaultRule("flash.read", occurrences={1}),
                      FaultRule("nvme.cqe_drop", occurrences={3})])
    with TraceSession(label="nvme-retries") as session:
        tb = Testbed(seed=5, faults=plan)
        host = tb.node0.host
        buf = host.alloc_buffer(8 * KIB)

        def body(sim):
            yield from host.nvme_driver.read(0, 8 * KIB, buf)
            yield from tb.node0.driver.submit(
                D2DKind.SSD_TO_HOST, src=0, dst=buf, length=8 * KIB)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert proc.ok
    return "\n".join(jsonl_lines(session))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenTraces:
    """Pinned digests: a refactor must leave these traces unchanged."""

    def test_offloaded_md5_send(self):
        text = "\n".join(jsonl_lines(_traced_run(DcsCtrlScheme, "md5")))
        assert _digest(text) == GOLDEN_JSONL_SHA256["dcs-ctrl-md5"]

    def test_host_path_send(self):
        text = "\n".join(jsonl_lines(_traced_run(SwOptScheme, None)))
        assert _digest(text) == GOLDEN_JSONL_SHA256["sw-opt"]

    def test_host_and_engine_nvme_retries(self):
        text = _nvme_retry_run()
        assert "host NVMe retry 1" in text
        assert "engine NVMe retry 1" in text
        assert _digest(text) == GOLDEN_JSONL_SHA256["nvme-retries"]

    def test_gpu_staged_md5_send(self):
        # The only pinned run whose request spans come from the GPU
        # driver (gpu-data-copy, gpu-control and hash phases).
        text = "\n".join(jsonl_lines(_traced_run(SwP2pScheme, "md5")))
        for phase in ("gpu-data-copy", "gpu-control", "hash"):
            assert f'"name":"{phase}"' in text
        assert _digest(text) == GOLDEN_JSONL_SHA256["sw-p2p-md5"]

    def test_interleaved_offloaded_requests(self):
        # Three concurrent requests under one session: each phase must
        # land under its own request root, never a neighbour's.
        assert (_digest(_interleaved_run(DcsCtrlScheme))
                == GOLDEN_JSONL_SHA256["interleaved-dcs-ctrl"])

    def test_interleaved_host_path_requests(self):
        assert (_digest(_interleaved_run(SwOptScheme))
                == GOLDEN_JSONL_SHA256["interleaved-sw-opt"])


class TestDeterminism:
    def test_jsonl_byte_identical_across_runs(self):
        first = "\n".join(jsonl_lines(_traced_run(DcsCtrlScheme, "md5")))
        second = "\n".join(jsonl_lines(_traced_run(DcsCtrlScheme, "md5")))
        assert first == second

    def test_jsonl_byte_identical_for_host_path_too(self):
        # The software-staged path exercises kernel/NIC/IRQ machinery
        # the offloaded path does not; it must be just as reproducible.
        first = "\n".join(jsonl_lines(_traced_run(SwOptScheme, None)))
        second = "\n".join(jsonl_lines(_traced_run(SwOptScheme, None)))
        assert first == second

    def test_chrome_document_identical_across_runs(self):
        import json
        first = json.dumps(to_chrome(_traced_run(DcsCtrlScheme, None)),
                           sort_keys=True)
        second = json.dumps(to_chrome(_traced_run(DcsCtrlScheme, None)),
                            sort_keys=True)
        assert first == second

    def test_interleaved_offloaded_flows_byte_identical(self):
        # Flow uids come from a process-global counter, so the second
        # run's flows carry different uids than the first's.  Byte
        # identity therefore proves both that uid never leaks into a
        # trace record and that all flow-keyed engine/kernel state
        # iterates in creation order, not memory-address order.
        first = _interleaved_run(DcsCtrlScheme)
        second = _interleaved_run(DcsCtrlScheme)
        assert first == second

    def test_interleaved_kernel_flows_byte_identical(self):
        # Same property on the host path, which keys per-flow receive
        # streams and header slots inside the kernel model.
        first = _interleaved_run(SwOptScheme)
        second = _interleaved_run(SwOptScheme)
        assert first == second

    def test_no_wall_clock_or_object_ids_leak(self):
        # Event ids are small per-tracer ordinals, timestamps simulated:
        # nothing in a record should look like id() or time.time().
        import json
        for line in jsonl_lines(_traced_run(DcsCtrlScheme, None)):
            rec = json.loads(line)
            assert rec["id"] < 10**6
            assert rec["parent_id"] is None or rec["parent_id"] < 10**6
            assert rec["ts_ns"] < 10**12  # a simulated run lasts << 1000 s
