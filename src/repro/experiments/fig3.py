"""Figure 3 — software overheads of multi-device communication.

The motivating microbenchmark: SSD→GPU→NIC ("sending data to network
with hash computation on a GPU"), measured as (a) software-side latency
and (b) normalized CPU utilization, for the optimized-software
baseline, software-controlled P2P and the device-integration reference.
The integrated device has a built-in CRC32 block, so the checksum is
CRC32 in every column (the function choice does not change the
overhead structure the figure is about).
"""

from __future__ import annotations

from repro.experiments.common import (MICROBENCH_SIZE, SOFTWARE_CATEGORIES,
                                      send_run)
from repro.experiments.result import ExperimentResult

SCHEMES = ("sw-opt", "sw-p2p", "integrated")

PROCESSING = "crc32"


def run_fig3() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 3: software overheads of SSD->processing->NIC",
        headers=["scheme", "total us", "software us", "norm. CPU"]
                + [f"{cat} us" for cat in SOFTWARE_CATEGORIES])
    sent = {name: send_run(name, PROCESSING, MICROBENCH_SIZE)
            for name in SCHEMES}
    baseline_cpu = sent["sw-opt"].cpu_ns
    for name in SCHEMES:
        run = sent[name]
        result.add_row(name, f"{run.latency_us:.2f}",
                       f"{run.software_us:.2f}",
                       f"{run.cpu_ns / baseline_cpu:.2f}",
                       *[f"{run.breakdown_us.get(cat, 0.0):.2f}"
                         for cat in SOFTWARE_CATEGORIES])
    result.metrics["sw_opt_total_us"] = sent["sw-opt"].latency_us
    result.metrics["p2p_total_us"] = sent["sw-p2p"].latency_us
    result.metrics["integrated_total_us"] = sent["integrated"].latency_us
    result.metrics["integrated_vs_swopt_latency"] = (
        sent["integrated"].latency_us / sent["sw-opt"].latency_us)
    result.metrics["integrated_vs_swopt_cpu"] = (
        sent["integrated"].cpu_ns / baseline_cpu)
    result.notes.append(
        "paper shape: P2P trims data-copy but keeps control costs; the "
        "integrated device removes both (its bar is mostly device time)")
    return result
