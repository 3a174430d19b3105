"""Figure 11 — latency breakdown of inter-device communications.

(a) SSD→NIC without processing; (b) SSD→Processing(MD5)→NIC.  The
baselines compute MD5 on the GPU; DCS-ctrl uses its MD5 NDP bank.
Direct SSD↔NIC P2P is impossible (neither device exposes internal
memory), so in (a) software-controlled P2P falls back to host staging —
the paper's own observation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import (MICROBENCH_SIZE, SOFTWARE_CATEGORIES,
                                      SendRun, send_run)
from repro.experiments.result import ExperimentResult
from repro.host.costs import CAT

SCHEMES = ("sw-opt", "sw-p2p", "dcs-ctrl")

DEVICE_DISPLAY = (CAT.READ, CAT.HASH, CAT.NDP, CAT.WIRE)


def _panel(result: ExperimentResult, processing: Optional[str],
           tag: str) -> Dict[str, SendRun]:
    measured = {}
    for name in SCHEMES:
        run = measured[name] = send_run(name, processing, MICROBENCH_SIZE)
        result.add_row(tag, name, f"{run.latency_us:.2f}",
                       f"{run.software_us:.2f}",
                       *[f"{run.breakdown_us.get(cat, 0.0):.2f}"
                         for cat in DEVICE_DISPLAY + SOFTWARE_CATEGORIES])
    return measured


def run_fig11() -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 11: latency breakdown of inter-device communication "
             "(4 KiB)",
        headers=["panel", "scheme", "total us", "software us"]
                + [f"{cat}" for cat in
                   ("read", "hash", "ndp", "wire") + SOFTWARE_CATEGORIES])
    panel_a = _panel(result, None, "a:SSD->NIC")
    panel_b = _panel(result, "md5", "b:SSD->MD5->NIC")

    sw_a = panel_a["sw-p2p"].software_us
    dcs_a = panel_a["dcs-ctrl"].software_us
    sw_b = panel_b["sw-p2p"].software_us
    dcs_b = panel_b["dcs-ctrl"].software_us
    result.metrics["fig11a_software_reduction"] = (sw_a - dcs_a) / sw_a
    result.metrics["fig11b_software_reduction"] = (sw_b - dcs_b) / sw_b
    result.metrics["fig11a_total_reduction"] = (
        (panel_a["sw-p2p"].latency_us - panel_a["dcs-ctrl"].latency_us)
        / panel_a["sw-p2p"].latency_us)
    result.metrics["fig11b_total_reduction"] = (
        (panel_b["sw-p2p"].latency_us - panel_b["dcs-ctrl"].latency_us)
        / panel_b["sw-p2p"].latency_us)
    result.notes.append("paper: 42 % software-latency reduction without "
                        "NDP, 72 % with NDP (vs software-controlled P2P)")
    return result
