"""Figure 12 — CPU-utilization breakdown of scale-out storage apps.

(a) Swift PUT/GET with MD5 integrity; (b) the HDFS balancer with CRC32
on the receiver.  Utilizations are compared at matched offered load
(same workload on every scheme), per the paper's "with the same
throughput" methodology.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import (HdfsConfig, SwiftConfig, WorkloadConfig,
                        run_hdfs_balancer, run_swift)
from repro.experiments.common import fresh_testbed
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT
from repro.schemes import DcsCtrlScheme, SwOptScheme, SwP2pScheme
from repro.units import KIB, MIB

SCHEMES = (("sw-opt", SwOptScheme), ("sw-p2p", SwP2pScheme),
           ("dcs-ctrl", DcsCtrlScheme))

CPU_DISPLAY = (CAT.APPLICATION, CAT.KERNEL_OTHER, CAT.FILESYSTEM,
               CAT.NETWORK, CAT.DEVICE_CONTROL, CAT.COMPLETION,
               CAT.DATA_COPY, CAT.GPU_COPY, CAT.GPU_CONTROL,
               CAT.HDC_DRIVER)

SWIFT_CONFIG = SwiftConfig(
    workload=WorkloadConfig(arrival_rate=3000.0, put_ratio=0.4,
                            max_object=256 * KIB, count=60, seed=12))

HDFS_CONFIG = HdfsConfig(blocks=24, block_size=1 * MIB, streams=6)


def _cpu_cells(util: Dict[str, float]) -> list:
    return [f"{util.get(cat, 0.0) * 100:.2f}" for cat in CPU_DISPLAY]


def run_fig12_swift(config: SwiftConfig = SWIFT_CONFIG) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12a: Swift server CPU utilization (%, 6 cores) at "
             "matched load",
        headers=["scheme", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    totals = {}
    for name, scheme_cls in SCHEMES:
        tb = fresh_testbed(seed=21)
        run = run_swift(scheme_cls(tb), config)
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


def run_fig12_hdfs(config: HdfsConfig = HDFS_CONFIG) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 12b: HDFS balancer CPU utilization (%, 6 cores) at "
             "matched bandwidth",
        headers=["scheme", "side", "Gbps", "total %"]
                + [cat for cat in CPU_DISPLAY])
    totals = {}
    for name, scheme_cls in SCHEMES:
        tb = fresh_testbed(seed=22)
        run = run_hdfs_balancer(scheme_cls(tb), config)
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
