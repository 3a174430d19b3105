"""Transfer-size sweep: where does hardware device control pay off?

Not a figure in the paper, but the natural question its Fig 11 raises:
the software control overhead is (mostly) per-request, so its relative
cost shrinks as transfers grow.  This sweep measures end-to-end
SSD→MD5→NIC latency for each design across sizes and reports the
DCS-ctrl advantage at every point.
"""

from __future__ import annotations

from repro.experiments.common import send_run
from repro.experiments.fig11 import SCHEMES
from repro.experiments.result import ExperimentResult
from repro.units import KIB

SIZES = (4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB)


def run_sweep(processing: str = "md5") -> ExperimentResult:
    result = ExperimentResult(
        name=f"Size sweep: SSD->{processing}->NIC end-to-end latency (us)",
        headers=["size KiB", *SCHEMES, "dcs total gain",
                 "dcs software gain"])
    gains = {}
    for size in SIZES:
        runs = {name: send_run(name, processing, size) for name in SCHEMES}
        dcs, p2p = runs["dcs-ctrl"], runs["sw-p2p"]
        total_gain = 1 - dcs.latency_us / p2p.latency_us
        software_gain = 1 - dcs.software_us / p2p.software_us
        gains[size] = (total_gain, software_gain)
        result.add_row(size // KIB,
                       *[f"{runs[name].latency_us:.1f}" for name in SCHEMES],
                       f"{total_gain * 100:.0f}%",
                       f"{software_gain * 100:.0f}%")
    result.metrics["total_gain_4k"] = gains[4 * KIB][0]
    result.metrics["total_gain_256k"] = gains[256 * KIB][0]
    result.metrics["software_gain_4k"] = gains[4 * KIB][1]
    result.metrics["software_gain_256k"] = gains[256 * KIB][1]
    result.notes.append(
        "the software-latency gain persists across sizes; the total-"
        "latency gain shrinks — and eventually inverts — as the engine's "
        "per-command store-and-forward staging meets transfers large "
        "enough for device time to dominate.  This is the reason the "
        "paper evaluates large-transfer workloads by CPU utilization "
        "and throughput (Figs 12/13) rather than single-request latency")
    return result
