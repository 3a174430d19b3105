"""Fig 13, validated: simulate the projected configuration directly.

The paper *extrapolates* its Fig 13 from 10 Gbps measurements ("for the
estimation, we assume a 40-Gbps NIC, six NVMe SSDs, and a single 6-core
Intel Xeon CPU").  Our substrate can simply *build* that machine: a
40 Gbps wire and six SSD volumes per node, HDFS balancer traffic spread
across volumes.  Neither design is CPU-bound there: ``sw-opt`` moves
4.76 Gbps on 1.34 of 6 cores and ``dcs-ctrl`` 7.59 Gbps on 0.71 cores,
so the ratio is not the paper's CPU wall; which resource binds each is
an open question (ROADMAP.md).
"""

from __future__ import annotations

from repro.apps import HdfsConfig, run_hdfs_balancer
from repro.experiments.common import fresh_testbed
from repro.experiments.result import ExperimentResult
from repro.host.machine import CORES
from repro.schemes import DcsCtrlScheme, SwOptScheme
from repro.units import MIB, gbps

N_SSDS = 6

CONFIG = HdfsConfig(blocks=48, block_size=1 * MIB, streams=12)


def _run(scheme_cls):
    # 40 Gbps-provisioned node: faster wire, six SSD volumes, and NDP
    # banks instantiated for 40 Gbps (each added core is <0.1-5 % of
    # the FPGA, Table III).
    tb = fresh_testbed(wire_rate=gbps(40), n_ssds=N_SSDS,
                       ndp_target_gbps=40.0)
    scheme = scheme_cls(tb)
    run = run_hdfs_balancer(scheme, CONFIG)
    node_cores = (run.sender_cpu_total + run.receiver_cpu_total) * CORES
    return run.throughput_gbps, node_cores


def run_fig13_validate() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 13 validated: HDFS on a simulated 40 Gbps / 6-SSD node",
        headers=["scheme", "achieved Gbps", "node cores busy"])
    sw_gbps, sw_cores = _run(SwOptScheme)
    dcs_gbps, dcs_cores = _run(DcsCtrlScheme)
    result.add_row("sw-opt", f"{sw_gbps:.2f}", f"{sw_cores:.2f}")
    result.add_row("dcs-ctrl", f"{dcs_gbps:.2f}", f"{dcs_cores:.2f}")
    result.metrics["sw_gbps"] = sw_gbps
    result.metrics["dcs_gbps"] = dcs_gbps
    result.metrics["sw_cores"] = sw_cores
    result.metrics["dcs_cores"] = dcs_cores
    result.metrics["throughput_ratio"] = dcs_gbps / sw_gbps
    result.notes.append(
        "paper's projection: the software designs cannot serve 40 Gbps "
        "with one CPU; DCS-ctrl needs <= 3 cores and delivers ~2x the "
        "throughput under the core budget")
    return result
