"""Figure 13 — estimated CPU utilization with high-performance devices.

The paper's projection: measure throughput and CPU on the 10 Gbps
testbed, then ask how many cores each design needs as the line rate
grows to 40 Gbps (40-Gbps NIC, six NVMe SSDs, one 6-core Xeon), and
what throughput fits once the 6-core budget caps the design.  Each
node runs both directions of balancer/replication traffic, so the
projection charges a node with its send-side and receive-side CPU.

The measurements are Fig 12's runs (:func:`~repro.experiments.fig12.app_run`);
this figure projects them and simulates nothing of its own.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.projection import project_cores
from repro.experiments.fig12 import SCHEMES, app_run
from repro.experiments.result import ExperimentResult
from repro.host.machine import CORES

TARGET_GBPS = 40.0
CORE_BUDGET = 6


def _measurements(app: str) -> Dict[str, Tuple[float, float]]:
    """(Gbps, busy core equivalents) per scheme, from Fig 12's runs."""
    out = {}
    for name in SCHEMES:
        run = app_run(app, name)
        if app == "swift":
            cores = run.server_cpu_total * CORES
        else:
            # A storage node carries both roles' CPU at line rate.
            cores = (run.sender_cpu_total + run.receiver_cpu_total) * CORES
        out[name] = (run.throughput_gbps, cores)
    return out


def run_fig13() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 13: projected cores and achievable throughput at "
             f"{TARGET_GBPS:.0f} Gbps ({CORE_BUDGET}-core budget)",
        headers=["app", "scheme", "measured Gbps", "measured cores",
                 "cores @40G", "achievable Gbps"])
    metrics = {}
    for app in ("swift", "hdfs"):
        projections = project_cores(_measurements(app),
                                    target_gbps=TARGET_GBPS,
                                    cpu_core_budget=CORE_BUDGET)
        by_name = {p.scheme: p for p in projections}
        for name in SCHEMES:
            p = by_name[name]
            result.add_row(app, name, f"{p.measured_gbps:.2f}",
                           f"{p.measured_core_equivalents:.2f}",
                           f"{p.cores_needed_at_target:.2f}",
                           f"{p.achievable_gbps:.2f}")
        dcs = by_name["dcs-ctrl"]
        p2p = by_name["sw-p2p"]
        metrics[f"{app}_dcs_cores_at_40g"] = dcs.cores_needed_at_target
        metrics[f"{app}_throughput_ratio_dcs_vs_p2p"] = (
            dcs.achievable_gbps / p2p.achievable_gbps)
    result.metrics = metrics
    result.notes.append("paper: DCS-ctrl needs <= 3 cores at 40 Gbps and "
                        "delivers 1.95x (Swift) / 2.06x (HDFS) the "
                        "throughput of software-controlled P2P under the "
                        "core budget")
    return result
