"""The unified metrics plane: typed instruments, periodic sampling,
deterministic exports, and the "sim-top" utilization report.

Quickstart::

    from repro.metrics import MetricsSession, write_csv, render_top

    with MetricsSession(label="demo") as session:
        ...  # every Simulator built here registers + samples metrics
    write_csv("metrics.csv", session)
    print(render_top(session))

The metric-name catalog is a documented contract — ``docs/metrics.md``
— kept in lock-step with :mod:`repro.metrics.catalog` by
``tests/test_docs_contract.py``.  Off by default and zero-overhead when
off (``Simulator.metrics is None``; no sampling events are ever
scheduled, enabled or not).
"""

from repro.metrics.catalog import KINDS, METRICS, kind_of, metric_names
from repro.metrics.export import (csv_lines, format_value, jsonl_lines,
                                  write_csv, write_jsonl)
from repro.metrics.registry import (Counter, Gauge, Histogram, Metric,
                                    MetricSet, TimeWeightedGauge,
                                    format_labels)
from repro.metrics.report import aggregate, render_top
from repro.metrics.session import DEFAULT_INTERVAL_NS, MetricsSession

__all__ = [
    "METRICS", "KINDS", "kind_of", "metric_names",
    "Metric", "Counter", "Gauge", "TimeWeightedGauge", "Histogram",
    "MetricSet", "format_labels",
    "MetricsSession", "DEFAULT_INTERVAL_NS",
    "csv_lines", "write_csv", "jsonl_lines", "write_jsonl", "format_value",
    "aggregate", "render_top",
]
