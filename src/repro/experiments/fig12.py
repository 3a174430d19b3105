"""Figure 12 — CPU-utilization breakdown of scale-out storage apps.

(a) Swift PUT/GET with MD5 integrity; (b) the HDFS balancer with CRC32
on the receiver.  Utilizations are compared at matched offered load
(same workload on every scheme), per the paper's "with the same
throughput" methodology.

Each (app, scheme) run is made once per process by :func:`app_run`;
Fig 13 and the headline read the same runs.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from typing import Dict, Union

from repro.apps import (HdfsConfig, HdfsRun, SwiftConfig, SwiftRun,
                        WorkloadConfig, run_hdfs_balancer, run_swift)
from repro.experiments.common import fresh_testbed, shared_path
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT
from repro.schemes import ALL_SCHEMES
from repro.units import KIB, MIB

SCHEMES = ("sw-opt", "sw-p2p", "dcs-ctrl")

CPU_DISPLAY = (CAT.APPLICATION, CAT.KERNEL_OTHER, CAT.FILESYSTEM,
               CAT.NETWORK, CAT.DEVICE_CONTROL, CAT.COMPLETION,
               CAT.DATA_COPY, CAT.GPU_COPY, CAT.GPU_CONTROL,
               CAT.HDC_DRIVER)

SWIFT_CONFIG = SwiftConfig(
    workload=WorkloadConfig(arrival_rate=3000.0, put_ratio=0.4,
                            max_object=256 * KIB, count=60, seed=12))

HDFS_CONFIG = HdfsConfig(blocks=24, block_size=1 * MIB, streams=6)


@cache
def app_run(app: str, scheme_name: str) -> Union[SwiftRun, HdfsRun]:
    """The ``"swift"`` or ``"hdfs"`` run of one scheme, made once.

    A fault-free run ignores the testbed seed (it feeds only fault
    streams), so the run depends on nothing but the app and the scheme.
    HDFS sends carry no processing, so a scheme that shares another's
    unprocessed path gets that scheme's run under its own name.  The
    result is plain data; the testbed is dropped.  Under a trace or
    metrics session, the run's events belong to the section that first
    asked for it; a shared run appears under its path's name only.
    """
    path = shared_path(scheme_name)
    if app == "hdfs" and path != scheme_name:
        return replace(app_run(app, path), scheme=scheme_name)
    scheme = ALL_SCHEMES[scheme_name](fresh_testbed())
    if app == "swift":
        return run_swift(scheme, SWIFT_CONFIG)
    return run_hdfs_balancer(scheme, HDFS_CONFIG)


def _cpu_cells(util: Dict[str, float]) -> list:
    return [f"{util.get(cat, 0.0) * 100:.2f}" for cat in CPU_DISPLAY]


def run_fig12_swift() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12a: Swift server CPU utilization (%, 6 cores) at "
             "matched load",
        headers=["scheme", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    totals = {}
    for name in SCHEMES:
        run = app_run("swift", name)
        totals[name] = run.server_cpu_total
        result.add_row(name, f"{run.throughput_gbps:.2f}",
                       f"{run.server_cpu_total * 100:.2f}",
                       *_cpu_cells(run.server_cpu))
    result.metrics["swift_dcs_vs_swopt_cpu"] = (
        totals["dcs-ctrl"] / totals["sw-opt"])
    result.metrics["swift_dcs_vs_p2p_cpu"] = (
        totals["dcs-ctrl"] / totals["sw-p2p"])
    result.notes.append("paper: DCS-ctrl removes the accelerator-control "
                        "overhead entirely and reduces kernel overhead")
    return result


def run_fig12_hdfs() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12b: HDFS balancer CPU utilization (%, 6 cores) at "
             "matched bandwidth",
        headers=["scheme", "side", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    totals = {}
    for name in SCHEMES:
        run = app_run("hdfs", name)
        totals[name] = (run.sender_cpu_total, run.receiver_cpu_total,
                        run.throughput_gbps)
        result.add_row(name, "sender", f"{run.throughput_gbps:.2f}",
                       f"{run.sender_cpu_total * 100:.2f}",
                       *_cpu_cells(run.sender_cpu))
        result.add_row(name, "receiver", f"{run.throughput_gbps:.2f}",
                       f"{run.receiver_cpu_total * 100:.2f}",
                       *_cpu_cells(run.receiver_cpu))
    sw = totals["sw-opt"]
    p2p = totals["sw-p2p"]
    dcs = totals["dcs-ctrl"]
    result.metrics["hdfs_dcs_vs_swopt_cpu"] = (
        (dcs[0] + dcs[1]) / (sw[0] + sw[1]))
    result.metrics["hdfs_p2p_vs_swopt_cpu"] = (
        (p2p[0] + p2p[1]) / (sw[0] + sw[1]))
    result.metrics["hdfs_dcs_gbps"] = dcs[2]
    result.metrics["hdfs_swopt_gbps"] = sw[2]
    result.notes.append("paper: software-controlled P2P cannot improve "
                        "HDFS; DCS-ctrl cuts both sides' CPU")
    return result
