"""Ablation: checksum placement — NDP unit vs GPU vs host CPU.

The paper argues NDP both shortens latency (no GPU control, no copies)
and frees the CPU (vs hashing on a core, which "decreases the server
throughput due to the increased CPU utilization", §V-B).
"""

from repro.experiments.common import measure_send
from repro.host.costs import CAT
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.units import KIB

SIZE = 4 * KIB


def _cpu_hash_latency_and_cpu():
    """The CPU-checksum variant: SW-opt path with MD5 on a core."""
    tb = Testbed(seed=43)
    host = tb.node0.host
    data = bytes(SIZE)
    host.install_file("cpu.dat", data)
    conn = tb.connect_kernel()
    buf = host.alloc_buffer(SIZE)

    def body(sim):
        kernel = host.kernel
        yield from kernel.syscall_enter()
        yield from kernel.file_read_direct("cpu.dat", 0, SIZE, buf)
        yield from kernel.cpu_checksum("md5", buf, SIZE)
        yield from kernel.socket_send(conn.flow0, buf, SIZE)
        yield from kernel.syscall_exit()

    def drain(sim):
        dst = tb.node1.host.alloc_buffer(SIZE)
        yield from tb.node1.host.kernel.socket_recv(conn.flow1, SIZE, dst)

    host.cpu.tracker.reset_window()
    start = tb.sim.now
    send = tb.sim.process(body(tb.sim))
    recv = tb.sim.process(drain(tb.sim))
    tb.sim.run(until=send)
    elapsed_us = (tb.sim.now - start) / 1000
    tb.sim.run(until=recv)
    return elapsed_us, host.cpu.tracker.total()


def test_ablation_checksum_placement(once):
    def run():
        ndp, _ = measure_send(DcsCtrlScheme, "md5", size=SIZE)
        gpu, _ = measure_send(SwOptScheme, "md5", size=SIZE)
        cpu_us, cpu_busy = _cpu_hash_latency_and_cpu()
        return ndp, gpu, cpu_us, cpu_busy

    ndp, gpu, cpu_us, cpu_busy = once(run)
    ndp_hash = ndp.trace.breakdown_us().get(CAT.NDP, 0.0)
    gpu_hash = gpu.trace.breakdown_us().get(CAT.HASH, 0.0)
    print(f"\nNDP checksum:  {ndp.latency_us:.2f} us total "
          f"({ndp_hash:.2f} us hashing)")
    print(f"GPU checksum:  {gpu.latency_us:.2f} us total "
          f"({gpu_hash:.2f} us hashing)")
    print(f"CPU checksum:  {cpu_us:.2f} us total "
          f"({cpu_busy / 1000:.2f} us of CPU busy)")
    # NDP wins on latency; the CPU variant burns far more host cycles.
    assert ndp.latency_us < gpu.latency_us
    assert cpu_busy > 3 * SIZE  # >3 ns per byte of host CPU for MD5
