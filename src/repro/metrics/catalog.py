"""The closed catalog of metric names.

Like the trace-event taxonomy (:mod:`repro.trace.events`), the metric
namespace is a documented contract: every name a component may register
appears here with its kind and unit, and every entry has a matching
``### `name` `` section in ``docs/metrics.md``.  Registering a metric
that is not in the catalog — or registering it with the wrong kind —
raises :class:`~repro.errors.MetricsError`; the docs and this table are
kept in lock-step by ``tests/test_docs_contract.py``.

Kinds:

* ``counter`` — monotonically increasing total (bytes, operations).
* ``gauge`` — instantaneous level sampled as-is (bytes in use, a
  utilization fraction).
* ``timegauge`` — a gauge whose time integral is also maintained, so
  the report can show a true time-weighted mean (queue depths,
  occupancies, busy engines).
* ``histogram`` — value distribution over fixed log2 bucket edges
  (bucket ``i`` holds values ``v`` with ``int(v).bit_length() == i``),
  chosen so bucketing is exact integer arithmetic and therefore
  deterministic across platforms.

Label key conventions: ``node`` is the host/fabric name (``node0``),
``dev`` a device name on that fabric (``ssd``, ``nic``), ``engine`` is
``<node>:<port>`` for HDC Engine resources, ``owner`` identifies a
driver/controller instance, and ``dir``/``qid``/``channel``/``category``
qualify links, NVMe queues, NIC rings and CPU accounting categories.
"""

from __future__ import annotations

from typing import Dict, Tuple

# name -> (kind, unit, one-line description)
METRICS: Dict[str, Tuple[str, str, str]] = {
    # -- PCIe fabric -----------------------------------------------------
    "pcie.link.inflight_bytes": (
        "timegauge", "bytes",
        "Bytes submitted to one link direction and not yet serialized"),
    "pcie.port.tx_bytes": (
        "counter", "bytes",
        "Payload bytes a switch port has transmitted toward the fabric"),
    "pcie.port.rx_bytes": (
        "counter", "bytes",
        "Payload bytes a switch port has received from the fabric"),
    "pcie.port.doorbells": (
        "counter", "ops",
        "Doorbell MMIO writes delivered to the device behind a port"),
    # -- NVMe SSD --------------------------------------------------------
    "nvme.sq_depth": (
        "timegauge", "entries",
        "Submission-queue occupancy (tail minus head, modulo depth)"),
    "nvme.cq_depth": (
        "timegauge", "entries",
        "Completion-queue entries posted and not yet acknowledged"),
    "nvme.inflight": (
        "timegauge", "commands",
        "Commands fetched from the SQ and still executing in the SSD"),
    "nvme.commands": (
        "counter", "ops",
        "Commands the SSD has completed (CQE posted)"),
    "nvme.cqes_dropped": (
        "counter", "ops",
        "Completion entries lost to injected nvme.cqe_drop faults"),
    # -- NIC -------------------------------------------------------------
    "nic.tx_ring_occupancy": (
        "timegauge", "descriptors",
        "TX descriptors posted by the driver and not yet consumed"),
    "nic.rx_buffers": (
        "timegauge", "buffers",
        "Posted RX buffers currently available for incoming frames"),
    "nic.wire_tx_bytes": (
        "counter", "bytes",
        "Frame bytes the NIC has put on the Ethernet wire"),
    "nic.frames_lost": (
        "counter", "frames",
        "Frames lost to injected nic.wire_drop faults"),
    # -- GPU -------------------------------------------------------------
    "gpu.copy_busy": (
        "timegauge", "engines",
        "Copy engines currently executing a DMA transfer"),
    "gpu.exec_busy": (
        "timegauge", "engines",
        "Execution engines currently running a kernel"),
    # -- HDC Engine ------------------------------------------------------
    "engine.scoreboard_entries": (
        "timegauge", "entries",
        "Live scoreboard entries (admitted D2D tasks not yet retired)"),
    "engine.scoreboard_issued": (
        "counter", "entries",
        "Scoreboard entries issued to device controllers"),
    "engine.ddr3_bytes_in_use": (
        "gauge", "bytes",
        "DDR3 staging bytes held by the engine's chunk allocator"),
    "engine.bram_bytes_in_use": (
        "gauge", "bytes",
        "BRAM bytes consumed by the engine's bump allocator"),
    "engine.d2d_latency_ns": (
        "histogram", "ns",
        "Per-task D2D completion latency (admission to retirement)"),
    # -- Host CPU --------------------------------------------------------
    "host.cpu.busy_ns": (
        "counter", "ns",
        "Busy nanoseconds accounted per cost-model category"),
    "host.cpu.busy_cores": (
        "gauge", "cores",
        "Cores executing host work at the sample instant"),
    # -- Fault plane -----------------------------------------------------
    "faults.injected": (
        "counter", "ops",
        "Faults the installed FaultPlan has injected so far"),
    "faults.retries": (
        "counter", "ops",
        "Commands reissued by a driver/controller after a fault"),
    "faults.aborts": (
        "counter", "tasks",
        "D2D tasks the engine aborted after exhausting recovery"),
}

KINDS = ("counter", "gauge", "timegauge", "histogram")


def kind_of(name: str) -> str:
    """The registered kind for ``name`` (KeyError if uncataloged)."""
    return METRICS[name][0]


def metric_names() -> frozenset:
    """The closed set of registrable metric names.

    Machine-readable export consumed by tooling — in particular the
    ``PLANE001`` rule of :mod:`repro.lint`, which rejects metric-name
    string literals that are not in this catalog.
    """
    return frozenset(METRICS)
