"""The event taxonomy: every type a tracer may emit, in one registry.

This module *is* the machine-readable half of the trace contract.  The
human-readable half lives in ``docs/tracing.md``; the two are kept in
lock-step by ``tests/test_docs_contract.py`` (the ``make docs-check``
target), which fails if either side drifts.

Rules:

* :class:`~repro.trace.tracer.Tracer` refuses to emit a type that is
  not registered here (:class:`~repro.errors.TraceError`), so an
  undocumented event can never appear in an exported trace;
* every entry must have a ``### `type``` section in ``docs/tracing.md``;
* types are dotted ``layer.action`` slugs.  Variable detail (which
  category, which queue, which opcode) goes into the event *name* and
  *args*, never into the type, so the taxonomy stays finite.
"""

from __future__ import annotations

from typing import Dict

# type -> one-line semantics (the docs carry the full field tables).
EVENT_TYPES: Dict[str, str] = {
    # -- simulation kernel -------------------------------------------------
    "proc.run": "lifetime of one simulation Process (generator)",
    # -- PCIe fabric -------------------------------------------------------
    "tlp.send": "TLP payload occupying link direction(s), queueing included",
    "dma.read": "bulk non-posted read through the switch (request+completion)",
    "dma.write": "bulk posted write through the switch",
    "doorbell.ring": "small posted register write (doorbell-class MMIO)",
    "irq.deliver": "message-signalled interrupt delivery to the host",
    # -- NVMe SSD ----------------------------------------------------------
    "nvme.doorbell": "submission-queue tail doorbell observed by the SSD",
    "nvme.command": "one NVMe command: SQE decode to CQE posted",
    "nvme.cqe": "completion-queue entry written back by the SSD",
    # -- NIC ---------------------------------------------------------------
    "nic.doorbell": "send/receive ring doorbell observed by the NIC",
    "nic.tx": "one send descriptor: fetch, LSO segmentation, egress",
    "nic.rx": "one received frame: steer, buffer DMA, completion",
    # -- GPU ---------------------------------------------------------------
    "gpu.copy": "copy-engine transfer into or out of GPU memory",
    "gpu.exec": "kernel execution (launch overhead + streaming time)",
    # -- HDC Engine --------------------------------------------------------
    "engine.split": "D2D command split into scoreboard entries",
    "engine.stage": "one scoreboard stage executing on a device controller",
    # -- control-path phases (schemes / driver / host kernel) --------------
    "request": "root span of one scheme operation (send_file, ...)",
    "phase": "one latency-breakdown segment of a request (Fig 3a/11)",
    # -- fault injection & recovery ----------------------------------------
    "fault.inject": "a fault-plan rule fired at an injection site",
    "recover.retry": "a timed-out or failed command being re-issued",
    "recover.timeout": "a deadline expired before its completion arrived",
    "recover.abort": "a failed D2D task torn down (siblings cancelled)",
    # -- run structure -----------------------------------------------------
    "mark": "experiment-level annotation (section label, boundary)",
}


def is_registered(event_type: str) -> bool:
    """True if ``event_type`` is part of the documented contract."""
    return event_type in EVENT_TYPES


def event_type_names() -> frozenset:
    """The closed set of emittable event types.

    Machine-readable export consumed by tooling — in particular the
    ``PLANE002`` rule of :mod:`repro.lint`, which rejects event-type
    string literals that are not in this taxonomy.
    """
    return frozenset(EVENT_TYPES)
