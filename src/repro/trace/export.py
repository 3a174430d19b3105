"""Trace exporters: Chrome trace-event JSON and flat JSONL.

* :func:`to_chrome` / :func:`write_chrome` — the Chrome trace-event
  format (``{"traceEvents": [...]}``), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans become
  complete (``"ph": "X"``) events, instants ``"ph": "i"``; each
  simulator is a process (``pid``) and each track a named thread
  (``tid``).  Timestamps are microseconds (Chrome's unit); 1 simulated
  ns = 0.001 µs.
* :func:`jsonl_lines` / :func:`write_jsonl` — one JSON object per
  event with raw integer-ns timestamps and sorted keys.  This is the
  *canonical* form: deterministic byte-for-byte across runs of the same
  seed.

Field semantics of both formats are documented in ``docs/tracing.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Union

from repro.trace.tracer import TraceEvent, Tracer, TraceSession

Traceable = Union[Tracer, TraceSession, Iterable[Tracer]]


def _tracers(source: Traceable) -> List[Tracer]:
    if isinstance(source, Tracer):
        return [source]
    if isinstance(source, TraceSession):
        return list(source.tracers)
    return list(source)


# -- JSONL -----------------------------------------------------------------

def event_record(event: TraceEvent, pid: int, label: str) -> Dict[str, Any]:
    """The flat dict written per JSONL line (stable schema)."""
    return {
        "id": event.id,
        "parent_id": event.parent_id,
        "type": event.type,
        "name": event.name,
        "pid": pid,
        "sim": label,
        "track": event.track,
        "ts_ns": event.start,
        "dur_ns": event.duration,
        "args": event.args,
    }


def jsonl_lines(source: Traceable) -> Iterator[str]:
    """Yield one canonical JSON line per event, in (start, id) order."""
    for pid, tracer in enumerate(_tracers(source)):
        for event in tracer.sorted_events():
            yield json.dumps(event_record(event, pid, tracer.label),
                             sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str, source: Traceable) -> int:
    """Write the JSONL stream; returns the number of events written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in jsonl_lines(source):
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


# -- Chrome trace-event JSON ------------------------------------------------

def to_chrome(source: Traceable) -> Dict[str, Any]:
    """Build the Chrome trace-event document for Perfetto."""
    out: List[Dict[str, Any]] = []
    for pid, tracer in enumerate(_tracers(source)):
        out.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                    "args": {"name": tracer.label}})
        tids: Dict[str, int] = {}
        for event in tracer.sorted_events():
            tid = tids.get(event.track)
            if tid is None:
                tid = tids[event.track] = len(tids)
                out.append({"ph": "M", "pid": pid, "tid": tid,
                            "name": "thread_name",
                            "args": {"name": event.track}})
            args = dict(event.args)
            args["event_id"] = event.id
            if event.parent_id is not None:
                args["parent_id"] = event.parent_id
            record: Dict[str, Any] = {
                "pid": pid, "tid": tid, "name": event.name,
                "cat": event.type, "ts": event.start / 1000.0,
                "args": args,
            }
            if event.duration is None:
                record["ph"] = "i"
                record["s"] = "t"      # thread-scoped instant
            else:
                record["ph"] = "X"
                record["dur"] = event.duration / 1000.0
            out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ns"}


def write_chrome(path: str, source: Traceable) -> int:
    """Write the Chrome trace JSON; returns the number of trace events
    (metadata records excluded)."""
    document = to_chrome(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, separators=(",", ":"))
    return sum(1 for record in document["traceEvents"]
               if record["ph"] != "M")
