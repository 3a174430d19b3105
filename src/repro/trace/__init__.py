"""Structured simulation tracing (spans and exporters).

See ``docs/tracing.md`` for the full event taxonomy and field
semantics — the trace schema is a documented contract, enforced by
``make docs-check``.
"""

from repro.trace.events import (EVENT_TYPES, event_type_names,
                                is_registered)
from repro.trace.export import (jsonl_lines, to_chrome, write_chrome,
                                write_jsonl)
from repro.trace.tracer import Span, TraceEvent, Tracer, TraceSession

__all__ = [
    "EVENT_TYPES", "is_registered", "event_type_names",
    "Span", "TraceEvent", "Tracer", "TraceSession",
    "jsonl_lines", "to_chrome", "write_chrome", "write_jsonl",
]
