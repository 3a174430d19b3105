"""Figure 8 — kernel-side CPU utilization: Linux vs DCS-ctrl.

"Figure 8 shows the kernel-side CPU utilization of Linux and DCS-ctrl
in simple direct communications between a SSD and a NIC.  The result
indicates DCS-ctrl significantly reduces kernel-side CPU utilization
as much as other existing software optimization approaches do."

Three columns: stock Linux (buffered I/O + user/kernel copies),
optimized software (direct I/O + zero copy — the SW-opt baseline), and
DCS-ctrl (HDC Driver only).  The measurement is kernel CPU ns per 64
KiB SSD→NIC request.
"""

from __future__ import annotations

from repro.experiments.common import fresh_testbed, send_run
from repro.experiments.result import ExperimentResult
from repro.schemes import Testbed
from repro.units import KIB

SIZE = 64 * KIB


def _linux_buffered_send(tb: Testbed, name: str) -> int:
    """One stock-Linux-style request: buffered read + copying send."""
    host = tb.node0.host
    conn = tb.connect_kernel()
    buf = host.alloc_buffer(SIZE)

    def body(sim):
        kernel = host.kernel
        yield from kernel.syscall_enter()
        yield from kernel.file_read_buffered(name, 0, SIZE, buf)
        yield from kernel.syscall_exit()
        yield from kernel.syscall_enter()
        yield from kernel.socket_send(conn.flow0, buf, SIZE,
                                      copy_from_user=True)
        yield from kernel.syscall_exit()

    def drain(sim):
        dst = tb.node1.host.alloc_buffer(SIZE)
        yield from tb.node1.host.kernel.socket_recv(conn.flow1, SIZE, dst)

    host.cpu.tracker.reset_window()
    send = tb.sim.process(body(tb.sim))
    recv = tb.sim.process(drain(tb.sim))
    tb.sim.run(until=send)
    tb.sim.run(until=recv)
    host.free_buffer(buf, SIZE)
    return host.cpu.tracker.total()


def run_fig8() -> ExperimentResult:
    tb = fresh_testbed()
    tb.node0.host.install_file("fig8.dat", bytes(SIZE))
    linux_ns = _linux_buffered_send(tb, "fig8.dat")
    swopt_ns = send_run("sw-opt", None, SIZE).cpu_ns
    dcs_ns = send_run("dcs-ctrl", None, SIZE).cpu_ns

    result = ExperimentResult(
        name="Fig 8: kernel-side CPU per 64 KiB SSD->NIC request",
        headers=["stack", "kernel CPU us/request", "vs Linux"])
    for label, value in (("Linux (buffered)", linux_ns),
                         ("software-optimized", swopt_ns),
                         ("DCS-ctrl", dcs_ns)):
        result.add_row(label, f"{value / 1000:.2f}",
                       f"{value / linux_ns:.2f}")
    result.metrics["linux_us"] = linux_ns / 1000
    result.metrics["swopt_vs_linux"] = swopt_ns / linux_ns
    result.metrics["dcs_vs_linux"] = dcs_ns / linux_ns
    result.notes.append(
        "paper shape: DCS-ctrl's kernel CPU drops at least as much as "
        "the software-optimization approaches'")
    return result
